open Op_common
module Sorted_run = Taqp_relational.Sorted_run
module Fulfillment = Taqp_sampling.Fulfillment

type t = {
  b : binary;
  sort_l : Tuple.t array -> Sorted_run.t;
  sort_r : Tuple.t array -> Sorted_run.t;
  bf_l : int;
  bf_r : int;
  mutable files_l : Sorted_run.t list;
  mutable files_r : Sorted_run.t list;
}

let create b ~arity_l ~arity_r ~bf_l ~bf_r =
  let sort key arity =
    Sorted_run.sort ~key ~cmp:(Ops.key_comparator ~arity key)
  in
  {
    b;
    sort_l = sort b.key_l arity_l;
    sort_r = sort b.key_r arity_r;
    bf_l;
    bf_r;
    files_l = [];
    files_r = [];
  }

let kind s =
  match s.b.op with `Join -> Formulas.Join | `Intersect -> Formulas.Intersect

(* Deltas retained but not yet sorted into files: the catch-up a switch
   onto this path sorts first, and therefore part of its price. *)
let unsorted s =
  ( drop (List.length s.files_l) s.b.deltas_l,
    drop (List.length s.files_r) s.b.deltas_r )

let pairings s =
  Fulfillment.pairings_at_stage
    ~stages_l:(List.length s.b.deltas_l + 1)
    ~stage:(List.length s.b.deltas_r + 1)
    (if s.b.full then `Full else `Partial)

(* Pairing sizes come from the deltas, not the files, because the files
   may lag the deltas under the hash path. *)
let measures s ~nl ~nr ~out_new =
  let missing_l, missing_r = unsorted s in
  let add_files bf files acc =
    List.fold_left
      (fun (ni, tp, nn) file ->
        let n = float_of_int (Array.length file) in
        (ni +. n, tp +. pages ~bf n, nn +. xlog n))
      acc files
  in
  let n_input, temp_pages, nlogn =
    add_files s.bf_r missing_r
      (add_files s.bf_l missing_l
         ( nl +. nr,
           pages ~bf:s.bf_l nl +. pages ~bf:s.bf_r nr,
           xlog nl +. xlog nr ))
  in
  let sizes deltas n =
    Array.of_list (List.map Array.length deltas @ [ int_of_float n ])
  in
  let sizes_l = sizes s.b.deltas_l nl and sizes_r = sizes s.b.deltas_r nr in
  let size_at sizes i =
    if i <= Array.length sizes then float_of_int sizes.(i - 1) else 0.0
  in
  let pairings = pairings s in
  let merge_reads =
    List.fold_left
      (fun acc (i, j) -> acc +. size_at sizes_l i +. size_at sizes_r j)
      0.0 pairings
  in
  {
    Formulas.zero_measures with
    Formulas.n_input;
    temp_pages;
    nlogn;
    merge_reads;
    out_tuples = out_new;
    out_pages = pages ~bf:s.b.bf out_new;
    pairings = float_of_int (List.length pairings);
  }

let eval ctx ~id s ~slice_l ~slice_r delta_l delta_r =
  let device = ctx.device and b = s.b in
  (* Taken before the retained state moves, so they are what
     [measures] promised the planner. *)
  let m =
    measures s
      ~nl:(float_of_int (Array.length delta_l))
      ~nr:(float_of_int (Array.length delta_r))
      ~out_new:0.0
  in
  let pairings = pairings s in
  let missing_l, missing_r = unsorted s in
  let t0 = now ctx in
  let write bf arr =
    Device.write_temp_tuples device ~n:(Array.length arr);
    Device.write_pages device
      ~n:(int_of_float (pages ~bf (float_of_int (Array.length arr))))
  in
  List.iter (write s.bf_l) missing_l;
  List.iter (write s.bf_r) missing_r;
  write s.bf_l delta_l;
  write s.bf_r delta_r;
  let t1 = now ctx in
  (* One walk issues every sort charge, in this order: catch-up deltas
     left then right, then this stage's right delta, then its left. A
     leaf-fed delta on the shared prefix costs one cache probe on a hit;
     on a miss it is sorted at once, because the store needs the run
     (never mutated afterwards, so sharing it across jobs is safe).
     Every other sort is computed after the walk, in one batch. *)
  let work = ref 0 in
  let walk sort key slice arr =
    let n = Array.length arr in
    let cached =
      Option.bind slice (fun sl ->
          Cache.find_sorted_run sl.cache ~file:sl.file ~kind:sl.kind ~lo:sl.lo
            ~hi:sl.hi ~key)
    in
    match (cached, slice) with
    | Some run, _ ->
        Device.cache_probe device;
        Fun.const run
    | None, Some sl ->
        Device.sort device ~n;
        let run = sort arr in
        let p = Device.params device and fn = float_of_int n in
        Cache.store_sorted_run sl.cache ~file:sl.file ~kind:sl.kind ~lo:sl.lo
          ~hi:sl.hi ~key
          ~cost:
            ((p.Cost_params.sort_per_nlogn *. xlog fn)
            +. (p.Cost_params.sort_per_tuple *. fn))
          ?keys:run.Sorted_run.keys run.Sorted_run.tuples;
        Fun.const run
    | None, None ->
        Device.sort device ~n;
        work := !work + n;
        fun () -> sort arr
  in
  let catch_l = List.map (walk s.sort_l b.key_l None) missing_l in
  let catch_r = List.map (walk s.sort_r b.key_r None) missing_r in
  let run_r = walk s.sort_r b.key_r slice_r delta_r in
  let run_l = walk s.sort_l b.key_l slice_l delta_l in
  let sorted =
    run ctx ~work:!work (Array.of_list (catch_l @ catch_r @ [ run_r; run_l ]))
  in
  let t2 = now ctx in
  let n_l = List.length missing_l and n_r = List.length missing_r in
  s.files_l <-
    s.files_l @ Array.to_list (Array.sub sorted 0 n_l) @ [ sorted.(n_l + n_r + 1) ];
  s.files_r <-
    s.files_r @ Array.to_list (Array.sub sorted n_l n_r) @ [ sorted.(n_l + n_r) ];
  (* One merge per Figure 4.5 pairing, all computed first; then, in
     pairing order, the charges a merge charging as it went would
     issue: merge_setup, merge_tuples |fl|+|fr|, one residual check per
     candidate. *)
  let files_l = Array.of_list s.files_l and files_r = Array.of_list s.files_r in
  let pair_files =
    Array.of_list
      (List.map (fun (i, j) -> (files_l.(i - 1), files_r.(j - 1))) pairings)
  in
  let pair_tuples (fl, fr) = Sorted_run.length fl + Sorted_run.length fr in
  let merge (fl, fr) () =
    match b.op with
    | `Join ->
        Sorted_run.merge_join ~key_l:b.key_l ~key_r:b.key_r ~residual:b.residual
          fl fr
    | `Intersect -> (Sorted_run.merge_intersect ~key:b.key_l fl fr, 0)
  in
  let merged =
    run ctx
      ~work:(Array.fold_left (fun acc p -> acc + pair_tuples p) 0 pair_files)
      (Array.map merge pair_files)
  in
  let out = ref [] in
  Array.iteri
    (fun idx (produced, candidates) ->
      Device.merge_setup device;
      Device.merge_tuples device ~n:(pair_tuples pair_files.(idx));
      for _ = 1 to candidates do
        Device.check_tuples device ~n:1 ~comparisons:b.residual_comparisons
      done;
      out := List.rev_append produced !out)
    merged;
  let t3 = now ctx in
  let out = Array.of_list (List.rev !out) in
  charge_output ctx ~bf:b.bf (Array.length out);
  let t4 = now ctx in
  observe ctx ~id
    (with_output ~bf:b.bf m (float_of_int (Array.length out)))
    [
      (Formulas.Step_write_temp, t1 -. t0);
      (Formulas.Step_sort, t2 -. t1);
      (Formulas.Step_merge, t3 -. t2);
      (Formulas.Step_output, t4 -. t3);
    ];
  out

let restore s ~files_l ~files_r =
  s.files_l <- List.map s.sort_l (take files_l s.b.deltas_l);
  s.files_r <- List.map s.sort_r (take files_r s.b.deltas_r)
