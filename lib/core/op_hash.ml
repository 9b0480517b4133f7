open Op_common

type t = {
  b : binary;
  id : int;
  index_l : Ops.Hash_index.t;
  index_r : Ops.Hash_index.t;
  mutable hashed_l : int;
  mutable hashed_r : int;
}

let create b ~id =
  {
    b;
    id;
    index_l = Ops.Hash_index.create ~key:b.key_l;
    index_r = Ops.Hash_index.create ~key:b.key_r;
    hashed_l = 0;
    hashed_r = 0;
  }

let kind h =
  match h.b.op with
  | `Join -> Formulas.Hash_join
  | `Intersect -> Formulas.Hash_intersect

(* Deltas retained but not yet in the indexes: the catch-up a switch
   onto this path inserts first, and therefore part of its price. *)
let unhashed h = (drop h.hashed_l h.b.deltas_l, drop h.hashed_r h.b.deltas_r)

(* [catch_up] is [None] under partial fulfillment: a transient
   per-stage index builds the left delta and probes the right. *)
type prepared = { catch_up : float option; bf_out : int }

let prepare h =
  {
    catch_up =
      (if h.b.full then begin
         let miss_l, miss_r = unhashed h in
         Some (float_of_int (sum_lengths miss_l + sum_lengths miss_r))
       end
       else None);
    bf_out = h.b.bf;
  }

let measures_of p ~nl ~nr ~out_new =
  let build_tuples, probe_tuples =
    match p.catch_up with
    | Some catch_up -> (catch_up +. nl +. nr, nl +. nr)
    | None -> (nl, nr)
  in
  {
    Formulas.zero_measures with
    Formulas.build_tuples;
    probe_tuples;
    out_tuples = out_new;
    out_pages = pages ~bf:p.bf_out out_new;
  }

let measures h ~nl ~nr ~out_new = measures_of (prepare h) ~nl ~nr ~out_new

(* The index is read-only during a probe, so probe ranges may run on
   the pool; outputs concatenate in range order, which is probe order.
   Then the charges a probe charging as it went would issue: one
   hash_probe for the probes, one residual check per candidate. *)
let probe ctx b index ~probe_key ~indexed_side probes =
  let n = Array.length probes in
  let chunks =
    map_ranges ctx ~n (fun lo hi ->
        let sub = if hi - lo = n then probes else Array.sub probes lo (hi - lo) in
        match b.op with
        | `Join ->
            Ops.probe_join_counted ~index ~probe_key ~indexed_side
              ~residual:(Option.value b.residual ~default:(fun _ -> true))
              sub
        | `Intersect ->
            let emit_side = if indexed_side = `Left then `Indexed else `Probe in
            (Ops.hash_probe_intersect ~index ~emit_side sub, 0))
  in
  Device.hash_probe ctx.device ~n;
  Array.iter
    (fun (_, candidates) ->
      for _ = 1 to candidates do
        Device.check_tuples ctx.device ~n:1 ~comparisons:b.residual_comparisons
      done)
    chunks;
  match chunks with
  | [| (out, _) |] -> out
  | _ -> List.concat_map fst (Array.to_list chunks)

(* No temp files, no sorts, no re-reading of old sample units. Under
   full fulfillment the symmetric-hash order (probe the left delta
   against the old right index, insert it, probe the right delta
   against the now-current left index, insert it) covers exactly the
   new point space nl*cum_r + cum_l*nr + nl*nr. Build and probe time
   interleave, so each is accumulated on its own. *)
let eval ctx h ~slice_l delta_l delta_r =
  let device = ctx.device and b = h.b in
  let m =
    measures h
      ~nl:(float_of_int (Array.length delta_l))
      ~nr:(float_of_int (Array.length delta_r))
      ~out_new:0.0
  in
  let build_s = ref 0.0 and probe_s = ref 0.0 in
  let timed acc f =
    let s = now ctx in
    let r = f () in
    acc := !acc +. (now ctx -. s);
    r
  in
  let produced =
    if b.full then begin
      let miss_l, miss_r = unhashed h in
      timed build_s (fun () ->
          List.iter (Ops.Hash_index.add ~device h.index_l) miss_l;
          List.iter (Ops.Hash_index.add ~device h.index_r) miss_r);
      h.hashed_l <- List.length b.deltas_l;
      h.hashed_r <- List.length b.deltas_r;
      let out_l =
        timed probe_s (fun () ->
            probe ctx b h.index_r ~probe_key:b.key_l ~indexed_side:`Right
              delta_l)
      in
      timed build_s (fun () -> Ops.Hash_index.add ~device h.index_l delta_l);
      h.hashed_l <- h.hashed_l + 1;
      let out_r =
        timed probe_s (fun () ->
            probe ctx b h.index_l ~probe_key:b.key_r ~indexed_side:`Left
              delta_r)
      in
      timed build_s (fun () -> Ops.Hash_index.add ~device h.index_r delta_r);
      h.hashed_r <- h.hashed_r + 1;
      List.rev_append (List.rev out_l) out_r
    end
    else begin
      (* Partial fulfillment evaluates only delta x delta: a transient
         index, nothing retained, but shared-cacheable when the left
         side is leaf-fed on the shared prefix. Cached indexes are only
         ever probed, never added to. *)
      let cached =
        Option.bind slice_l (fun sl ->
            Cache.find_hash_index sl.cache ~file:sl.file ~kind:sl.kind
              ~lo:sl.lo ~hi:sl.hi ~key:b.key_l)
      in
      let index =
        match cached with
        | Some index ->
            timed build_s (fun () -> Device.cache_probe device);
            index
        | None ->
            let index = Ops.Hash_index.create ~key:b.key_l in
            timed build_s (fun () -> Ops.Hash_index.add ~device index delta_l);
            Option.iter
              (fun sl ->
                Cache.store_hash_index sl.cache ~file:sl.file ~kind:sl.kind
                  ~lo:sl.lo ~hi:sl.hi ~key:b.key_l
                  ~cost:
                    (float_of_int (Array.length delta_l)
                    *. (Device.params device).Cost_params.hash_build_per_tuple)
                  index)
              slice_l;
            index
      in
      timed probe_s (fun () ->
          probe ctx b index ~probe_key:b.key_r ~indexed_side:`Left delta_r)
    end
  in
  let out = Array.of_list produced in
  let t0 = now ctx in
  charge_output ctx ~bf:b.bf (Array.length out);
  let t1 = now ctx in
  observe ctx ~id:h.id
    (with_output ~bf:b.bf m (float_of_int (Array.length out)))
    [
      (Formulas.Step_hash_build, !build_s);
      (Formulas.Step_hash_probe, !probe_s);
      (Formulas.Step_output, t1 -. t0);
    ];
  out

let restore h ~hashed_l ~hashed_r =
  List.iter (Ops.Hash_index.add h.index_l) (take hashed_l h.b.deltas_l);
  List.iter (Ops.Hash_index.add h.index_r) (take hashed_r h.b.deltas_r);
  h.hashed_l <- hashed_l;
  h.hashed_r <- hashed_r
