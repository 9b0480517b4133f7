open Op_common
module Sorted_run = Taqp_relational.Sorted_run
module Fulfillment = Taqp_sampling.Fulfillment

type t = {
  b : binary;
  sort_l : ?keys:int array -> Tuple.t array -> Sorted_run.t;
  sort_r : ?keys:int array -> Tuple.t array -> Sorted_run.t;
  cols_l : int array array option;
  cols_r : int array array option;
  bf_l : int;
  bf_r : int;
  mutable files_l : Sorted_run.t list;
  mutable files_r : Sorted_run.t list;
}

let create b ~arity_l ~arity_r ~cols_l ~cols_r ~bf_l ~bf_r =
  let sort key arity =
    let cmp = Ops.key_comparator ~arity key in
    fun ?keys tuples -> Sorted_run.sort ?keys ~key ~cmp tuples
  in
  {
    b;
    sort_l = sort b.key_l arity_l;
    sort_r = sort b.key_r arity_r;
    cols_l;
    cols_r;
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

type prepared = {
  catch_n : float array;
  catch_pages : float array;
  catch_nlogn : float array;
  old_l : float array;
  old_r : float array;
  pair_l : int array;
  pair_r : int array;
  bf_l : int;
  bf_r : int;
  bf_out : int;
}

(* Pairing sizes come from the deltas, not the files, because the files
   may lag the deltas under the hash path. *)
let prepare s =
  let missing_l, missing_r = unsorted s in
  let catch_up =
    List.map (fun f -> (s.bf_l, Array.length f)) missing_l
    @ List.map (fun f -> (s.bf_r, Array.length f)) missing_r
  in
  let per_file g =
    Array.of_list (List.map (fun (bf, n) -> g bf (float_of_int n)) catch_up)
  in
  let lengths deltas =
    Array.of_list (List.map (fun d -> float_of_int (Array.length d)) deltas)
  in
  let pairings = Array.of_list (pairings s) in
  {
    catch_n = per_file (fun _ n -> n);
    catch_pages = per_file (fun bf n -> pages ~bf n);
    catch_nlogn = per_file (fun _ n -> xlog n);
    old_l = lengths s.b.deltas_l;
    old_r = lengths s.b.deltas_r;
    pair_l = Array.map fst pairings;
    pair_r = Array.map snd pairings;
    bf_l = s.bf_l;
    bf_r = s.bf_r;
    bf_out = s.b.bf;
  }

(* Every sum starts from this stage's (f-dependent) terms and adds the
   retained ones in the order the catch-up and the pairings list them,
   so the floats are the same whoever prepared them. Stage [i] of a
   side is a retained delta, this stage's (whole tuples), or past
   both. *)
let measures_of p ~nl ~nr ~out_new =
  let n_input = ref (nl +. nr)
  and temp_pages = ref (pages ~bf:p.bf_l nl +. pages ~bf:p.bf_r nr)
  and nlogn = ref (xlog nl +. xlog nr) in
  for i = 0 to Array.length p.catch_n - 1 do
    n_input := !n_input +. p.catch_n.(i);
    temp_pages := !temp_pages +. p.catch_pages.(i);
    nlogn := !nlogn +. p.catch_nlogn.(i)
  done;
  let[@inline] size_at old n i =
    if i <= Array.length old then old.(i - 1)
    else if i = Array.length old + 1 then float_of_int (int_of_float n)
    else 0.0
  in
  let merge_reads = ref 0.0 in
  for k = 0 to Array.length p.pair_l - 1 do
    merge_reads :=
      !merge_reads
      +. size_at p.old_l nl p.pair_l.(k)
      +. size_at p.old_r nr p.pair_r.(k)
  done;
  {
    Formulas.zero_measures with
    Formulas.n_input = !n_input;
    temp_pages = !temp_pages;
    nlogn = !nlogn;
    merge_reads = !merge_reads;
    out_tuples = out_new;
    out_pages = pages ~bf:p.bf_out out_new;
    pairings = float_of_int (Array.length p.pair_l);
  }

let measures s ~nl ~nr ~out_new = measures_of (prepare s) ~nl ~nr ~out_new

type _ want = Tuples : Tuple.t array want | Count : int want

let eval (type a) ctx ~id s ~(want : a want) ~slice_l ~slice_r ~leaf_l ~leaf_r
    delta_l delta_r : a =
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
  let walk (sort : ?keys:int array -> Tuple.t array -> Sorted_run.t) key
      ?cols ?leaf ?slice arr =
    let n = Array.length arr in
    (* A leaf-fed delta's key ints come from its relation's columns,
       row by row, instead of out of its tuples. *)
    let sort () =
      match (cols, leaf) with
      | Some cols, Some leaf -> sort ~keys:(gather_keys leaf cols ~n) arr
      | _ -> sort arr
    in
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
        let run = sort () in
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
        sort
  in
  let catch_l = List.map (walk s.sort_l b.key_l) missing_l in
  let catch_r = List.map (walk s.sort_r b.key_r) missing_r in
  let run_r =
    walk s.sort_r b.key_r ?cols:s.cols_r ?leaf:leaf_r ?slice:slice_r delta_r
  in
  let run_l =
    walk s.sort_l b.key_l ?cols:s.cols_l ?leaf:leaf_l ?slice:slice_l delta_l
  in
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
  (* Each merge returns its output tuples (none when only the count is
     wanted), its output count and its candidate count. *)
  let key_l = b.key_l and key_r = b.key_r in
  let merge (fl, fr) () =
    match (b.op, want) with
    | `Join, Tuples ->
        let out, candidates =
          Sorted_run.join ~key_l ~key_r ~residual:b.residual fl fr
        in
        (out, Array.length out, candidates)
    | `Join, Count ->
        let n, candidates =
          Sorted_run.count_join ~key_l ~key_r ~residual:b.residual fl fr
        in
        ([||], n, candidates)
    | `Intersect, Tuples ->
        let out = Sorted_run.intersect ~key:key_l fl fr in
        (out, Array.length out, 0)
    | `Intersect, Count -> ([||], Sorted_run.count_pairs ~key_l ~key_r fl fr, 0)
  in
  let merged =
    run ctx
      ~work:(Array.fold_left (fun acc p -> acc + pair_tuples p) 0 pair_files)
      (Array.map merge pair_files)
  in
  let n_out = ref 0 in
  Array.iteri
    (fun idx (_, n, candidates) ->
      Device.merge_setup device;
      Device.merge_tuples device ~n:(pair_tuples pair_files.(idx));
      for _ = 1 to candidates do
        Device.check_tuples device ~n:1 ~comparisons:b.residual_comparisons
      done;
      n_out := !n_out + n)
    merged;
  let n_out = !n_out in
  let t3 = now ctx in
  charge_output ctx ~bf:b.bf n_out;
  let t4 = now ctx in
  observe ctx ~id
    (with_output ~bf:b.bf m (float_of_int n_out))
    [
      (Formulas.Step_write_temp, t1 -. t0);
      (Formulas.Step_sort, t2 -. t1);
      (Formulas.Step_merge, t3 -. t2);
      (Formulas.Step_output, t4 -. t3);
    ];
  match want with
  | Count -> n_out
  | Tuples -> (
      match merged with
      | [| (out, _, _) |] -> out
      | _ ->
          Array.concat
            (Array.to_list (Array.map (fun (out, _, _) -> out) merged)))

let restore s ~files_l ~files_r =
  s.files_l <- List.map (fun d -> s.sort_l d) (take files_l s.b.deltas_l);
  s.files_r <- List.map (fun d -> s.sort_r d) (take files_r s.b.deltas_r)
