(* The hash evaluation path: algebraic equivalence to the sort-merge
   operators (property tests against a nested-loop oracle), estimator
   bit-identity across physical paths at fixed stage fractions, and the
   late-stage cost advantage that motivates the path. Then the int-keyed
   sorted runs against the Value.compare reference, and generated join
   queries against the exact evaluator. *)

open Taqp_data
open Taqp_relational
module Config = Taqp_core.Config
module Staged = Taqp_core.Staged
module Paper_setup = Taqp_workload.Paper_setup
module Cost_model = Taqp_timecost.Cost_model
module Count_estimator = Taqp_estimators.Count_estimator

(* Check helpers, workload specs and the fixed-stage driver live in
   the shared Fixtures module. *)
let checkb = Fixtures.checkb
let checki = Fixtures.checki
let checkf = Fixtures.checkf

(* ------------------------------------------------------------------ *)
(* Operator-level equivalence                                          *)

let mk2 a b = Tuple.of_list [ Value.Int a; Value.Int b ]

(* Multiset equality: full-tuple sort, then pointwise comparison. *)
let canon tuples = List.sort Tuple.compare tuples

let multiset_equal l1 l2 =
  List.length l1 = List.length l2
  && List.for_all2 (fun a b -> Tuple.compare a b = 0) (canon l1) (canon l2)

(* Small domains force hash-bucket collisions and duplicate keys. *)
let pairs_gen =
  QCheck.(list_of_size Gen.(0 -- 40) (pair (int_bound 4) (int_bound 3)))

let tuples_of pairs = Array.of_list (List.map (fun (a, b) -> mk2 a b) pairs)

let nested_loop_join left right =
  Array.to_list left
  |> List.concat_map (fun l ->
         Array.to_list right
         |> List.filter_map (fun r ->
                if Value.compare (Tuple.get l 0) (Tuple.get r 0) = 0 then
                  Some (Tuple.concat l r)
                else None))

let merge_join left right =
  let key = [| 0 |] in
  let sl = Array.copy left and sr = Array.copy right in
  Array.sort (Ops.compare_with_key key) sl;
  Array.sort (Ops.compare_with_key key) sr;
  Ops.merge_sorted_join ~key_l:key ~key_r:key
    ~residual:(fun _ -> true)
    ~residual_comparisons:0 sl sr

let hash_join left right =
  let index = Ops.Hash_index.create ~key:[| 0 |] in
  Ops.Hash_index.add index right;
  Ops.hash_probe_join ~index ~probe_key:[| 0 |] ~indexed_side:`Right
    ~residual:(fun _ -> true)
    ~residual_comparisons:0 left

let prop_join_paths_agree =
  QCheck.Test.make ~name:"hash join = merge join = nested loop" ~count:200
    QCheck.(pair pairs_gen pairs_gen)
    (fun (lp, rp) ->
      let left = tuples_of lp and right = tuples_of rp in
      let oracle = nested_loop_join left right in
      multiset_equal oracle (merge_join left right)
      && multiset_equal oracle (hash_join left right))

let nested_loop_intersect left right =
  Array.to_list left
  |> List.concat_map (fun l ->
         Array.to_list right
         |> List.filter_map (fun r ->
                if Tuple.compare l r = 0 then Some l else None))

let merge_intersect left right =
  let sl = Array.copy left and sr = Array.copy right in
  Array.sort Tuple.compare sl;
  Array.sort Tuple.compare sr;
  Ops.merge_sorted_intersect sl sr

let hash_intersect left right =
  let index = Ops.Hash_index.create ~key:[| 0; 1 |] in
  Ops.Hash_index.add index right;
  Ops.hash_probe_intersect ~index ~emit_side:`Probe left

let prop_intersect_paths_agree =
  QCheck.Test.make ~name:"hash intersect = merge intersect = nested loop"
    ~count:200
    QCheck.(pair pairs_gen pairs_gen)
    (fun (lp, rp) ->
      let left = tuples_of lp and right = tuples_of rp in
      let oracle = nested_loop_intersect left right in
      multiset_equal oracle (merge_intersect left right)
      && multiset_equal oracle (hash_intersect left right))

(* The other probing direction: index the left side, emit it. *)
let test_hash_intersect_emit_indexed () =
  let left = tuples_of [ (1, 1); (1, 1); (2, 2) ] in
  let right = tuples_of [ (1, 1); (3, 3) ] in
  let index = Ops.Hash_index.create ~key:[| 0; 1 |] in
  Ops.Hash_index.add index left;
  let out = Ops.hash_probe_intersect ~index ~emit_side:`Indexed right in
  checkb "both left duplicates emitted" true
    (multiset_equal out (nested_loop_intersect left right))

let test_cross_type_numeric_keys () =
  (* Int 3 and Float 3.0 compare equal, so the sort-merge path matches
     them; the hash path must bucket them together too. *)
  let l = [| Tuple.of_list [ Value.Int 3; Value.Int 1 ] |] in
  let r = [| Tuple.of_list [ Value.Float 3.0; Value.Int 2 ] |] in
  let merged = merge_join l r in
  let hashed = hash_join l r in
  checki "merge matches across types" 1 (List.length merged);
  checki "hash matches across types" 1 (List.length hashed);
  checkb "same output" true (multiset_equal merged hashed)

let prop_key_comparator_same_order =
  (* The precompiled comparator realizes exactly the compare_with_key
     total order (key positions, then all fields). *)
  let tuple_gen =
    QCheck.Gen.(
      map
        (fun (a, b, c) -> Tuple.of_list [ Value.Int a; Value.Int b; Value.Int c ])
        (triple (int_bound 3) (int_bound 3) (int_bound 3)))
  in
  let key_gen = QCheck.Gen.oneofl [ [| 0 |]; [| 2 |]; [| 1; 0 |]; [| 2; 1 |]; [||] ] in
  QCheck.Test.make ~name:"key_comparator = compare_with_key" ~count:500
    (QCheck.make QCheck.Gen.(triple key_gen tuple_gen tuple_gen))
    (fun (key, t1, t2) ->
      let sign x = compare x 0 in
      sign (Ops.key_comparator ~arity:3 key t1 t2)
      = sign (Ops.compare_with_key key t1 t2))

(* ------------------------------------------------------------------ *)
(* Staged bit-identity across physical paths                           *)

let run_fixed_stages ~physical ~stages ~f wl =
  Fixtures.run_fixed_stages ~physical ~stages ~f wl

let check_bit_identical name (wl : Paper_setup.t) =
  let stages = 4 and f = 0.05 in
  let sort_r, _ = run_fixed_stages ~physical:Config.Sort_merge ~stages ~f wl in
  let hash_r, _ = run_fixed_stages ~physical:Config.Hash ~stages ~f wl in
  let adapt_r, _ = run_fixed_stages ~physical:Config.Adaptive ~stages ~f wl in
  checki (name ^ ": same stage count (hash)") (List.length sort_r)
    (List.length hash_r);
  checki (name ^ ": same stage count (adaptive)") (List.length sort_r)
    (List.length adapt_r);
  List.iter
    (fun other_r ->
      List.iter2
        (fun (a : Staged.stage_result) (b : Staged.stage_result) ->
          let ea = a.Staged.estimate and eb = b.Staged.estimate in
          checkf (name ^ ": estimate") ea.Count_estimator.estimate
            eb.Count_estimator.estimate;
          checkf (name ^ ": variance") ea.Count_estimator.variance
            eb.Count_estimator.variance;
          checkf (name ^ ": hits") ea.Count_estimator.hits
            eb.Count_estimator.hits;
          checkf (name ^ ": points") ea.Count_estimator.points
            eb.Count_estimator.points;
          checkf (name ^ ": total points") ea.Count_estimator.total_points
            eb.Count_estimator.total_points;
          let ca = Count_estimator.confidence ~level:0.95 ea in
          let cb = Count_estimator.confidence ~level:0.95 eb in
          checkf (name ^ ": ci center") ca.Taqp_stats.Confidence.center
            cb.Taqp_stats.Confidence.center;
          checkf (name ^ ": ci half-width") ca.Taqp_stats.Confidence.half_width
            cb.Taqp_stats.Confidence.half_width)
        sort_r other_r)
    [ hash_r; adapt_r ]

let bit_identity_workloads () =
  let spec = Fixtures.spec () in
  [
    ("join", Paper_setup.join ~spec ~target_output:2000 ~seed:3 ());
    ("intersection", Paper_setup.intersection ~spec ~overlap:150 ~seed:4 ());
    ("three-way join", Paper_setup.three_way_join ~spec ~group_size:3 ~seed:5 ());
  ]

let test_estimates_bit_identical () =
  List.iter (fun (name, wl) -> check_bit_identical name wl)
    (bit_identity_workloads ())

let test_partial_fulfillment_bit_identical () =
  let wl = Paper_setup.join ~spec:(Fixtures.spec ()) ~target_output:2000 ~seed:3 () in
  let partial_plan =
    { Taqp_sampling.Plan.default with Taqp_sampling.Plan.fulfillment = Taqp_sampling.Plan.Partial }
  in
  let run physical =
    let config = { Config.default with Config.physical; plan = partial_plan } in
    let staged = Fixtures.compile ~config wl in
    let _, device = Fixtures.quiet_device () in
    let rs = ref [] in
    for _ = 1 to 3 do
      match Staged.run_stage staged ~device ~f:0.05 with
      | Some r -> rs := r.Staged.estimate :: !rs
      | None -> ()
    done;
    List.rev !rs
  in
  let s = run Config.Sort_merge and h = run Config.Hash in
  checki "same stage count" (List.length s) (List.length h);
  List.iter2
    (fun (a : Count_estimator.t) (b : Count_estimator.t) ->
      checkf "partial estimate" a.Count_estimator.estimate
        b.Count_estimator.estimate;
      checkf "partial variance" a.Count_estimator.variance
        b.Count_estimator.variance)
    s h

(* ------------------------------------------------------------------ *)
(* The cost advantage                                                  *)

let test_hash_cheaper_at_late_stages () =
  (* The point of the path: at >= 3 full-fulfillment stages of a
     multi-join, the sort path re-merges every old file pair while the
     hash path touches only the deltas — the cumulative operator-time
     ratio must be at least 2x. *)
  let spec = Fixtures.spec ~n_tuples:600 () in
  let wl = Paper_setup.three_way_join ~spec ~group_size:3 ~seed:5 () in
  let stages = 4 and f = 0.05 in
  let nodes_cost results =
    List.fold_left (fun acc r -> acc +. r.Staged.nodes_elapsed) 0.0 results
  in
  let sort_r, _ = run_fixed_stages ~physical:Config.Sort_merge ~stages ~f wl in
  let hash_r, _ = run_fixed_stages ~physical:Config.Hash ~stages ~f wl in
  let adapt_r, _ = run_fixed_stages ~physical:Config.Adaptive ~stages ~f wl in
  checki "ran enough stages" stages (List.length sort_r);
  let cs = nodes_cost sort_r and ch = nodes_cost hash_r in
  let ca = nodes_cost adapt_r in
  checkb
    (Printf.sprintf "hash at least 2x cheaper (sort %.4f vs hash %.4f)" cs ch)
    true
    (cs >= 2.0 *. ch);
  checkb
    (Printf.sprintf "adaptive at least 2x cheaper (sort %.4f vs adaptive %.4f)"
       cs ca)
    true
    (cs >= 2.0 *. ca)

let test_adaptive_within_envelope () =
  let wl = Paper_setup.join ~spec:(Fixtures.spec ()) ~target_output:2000 ~seed:3 () in
  let stages = 4 and f = 0.06 in
  let _, sort_cost = run_fixed_stages ~physical:Config.Sort_merge ~stages ~f wl in
  let _, hash_cost = run_fixed_stages ~physical:Config.Hash ~stages ~f wl in
  let _, adapt_cost = run_fixed_stages ~physical:Config.Adaptive ~stages ~f wl in
  (* Adaptive never does worse than the worse pure path, with slack for
     one switch's catch-up work. *)
  checkb "adaptive within the pure paths' envelope" true
    (adapt_cost <= Float.max sort_cost hash_cost *. 1.25)

module Formulas = Taqp_timecost.Formulas
module Io_stats = Taqp_storage.Io_stats

let test_forced_switch_catch_up () =
  (* Teach the hash path's cost node an artificially high per-tuple
     cost so adaptive selection starts on the sort path; as stages
     accumulate the sort path's re-merging grows past it and the
     operator switches to hash mid-run. The switch must exercise the
     index catch-up and leave every per-stage estimate bit-identical to
     a pure sort-merge run. *)
  let wl = Paper_setup.join ~spec:(Fixtures.spec ()) ~target_output:2000 ~seed:3 () in
  let stages = 6 and f = 0.08 in
  let run ~physical ~bias =
    let config = { Config.default with Config.physical } in
    let cm = Cost_model.create () in
    let staged =
      Staged.compile ~catalog:wl.catalog ~config ~rng:(Fixtures.Prng.create 7)
        ~cost_model:cm wl.query
    in
    if bias then
      List.iter
        (fun id ->
          if Cost_model.kind cm ~id = Formulas.Hash_join then
            for _ = 1 to 8 do
              Cost_model.observe_step cm ~id ~step:Formulas.Step_hash_build
                { Formulas.zero_measures with Formulas.build_tuples = 100.0 }
                ~seconds:0.3;
              Cost_model.observe_step cm ~id ~step:Formulas.Step_hash_probe
                { Formulas.zero_measures with Formulas.probe_tuples = 100.0 }
                ~seconds:0.3
            done)
        (Cost_model.ids cm);
    let _, device = Fixtures.quiet_device () in
    let rs = ref [] in
    for _ = 1 to stages do
      match Staged.run_stage staged ~device ~f with
      | Some r -> rs := r.Staged.estimate :: !rs
      | None -> ()
    done;
    (List.rev !rs, Fixtures.Device.stats device)
  in
  let adaptive_r, stats = run ~physical:Config.Adaptive ~bias:true in
  let sort_r, _ = run ~physical:Config.Sort_merge ~bias:false in
  checkb "sort path ran first" true (Io_stats.tuples_sorted stats > 0);
  checkb "then switched to hash" true (Io_stats.tuples_hashed stats > 0);
  checki "same stage count" (List.length sort_r) (List.length adaptive_r);
  List.iter2
    (fun (a : Count_estimator.t) (b : Count_estimator.t) ->
      checkf "estimate across switch" a.Count_estimator.estimate
        b.Count_estimator.estimate;
      checkf "variance across switch" a.Count_estimator.variance
        b.Count_estimator.variance)
    sort_r adaptive_r

(* ------------------------------------------------------------------ *)
(* Int-keyed sorted runs against the Value.compare reference           *)

(* Duplicate-heavy ints, negatives and both extremes. *)
let key_int_gen =
  QCheck.Gen.(
    frequency
      [
        (8, map (fun i -> Value.Int i) (int_range (-3) 3));
        (1, return (Value.Int min_int));
        (1, return (Value.Int max_int));
      ])

(* Key values off the int path. [Float 2.0] compares equal to [Int 2],
   so a delta mixing the two must still merge across types. *)
let odd_keys =
  [ Value.Float 2.0; Value.Float (-0.5); Value.String "k"; Value.Null ]

(* [w] distinct positions of an [arity]-field tuple, in random order. *)
let key_gen ~arity w =
  QCheck.Gen.map
    (fun l -> Array.of_list (List.filteri (fun i _ -> i < w) l))
    (QCheck.Gen.shuffle_l (List.init arity Fun.id))

let set_field t pos v =
  let f = Tuple.fields t in
  f.(pos) <- v;
  Tuple.make f

(* 0-400 all-int tuples; one delta in four then gets a few non-int
   values in its key columns, which must send it down the fallback. *)
let delta_gen ~arity ~key =
  QCheck.Gen.(
    array_size (int_range 0 400)
      (map
         (fun vs -> Tuple.make (Array.of_list vs))
         (list_repeat arity key_int_gen))
    >>= fun tuples ->
    let n = Array.length tuples in
    if n = 0 then return tuples
    else
      frequency
        [
          (3, return tuples);
          ( 1,
            list_size (int_range 1 3)
              (triple (int_bound (n - 1))
                 (int_bound (Array.length key - 1))
                 (oneofl odd_keys))
            >|= fun spoils ->
            let t = Array.copy tuples in
            List.iter
              (fun (i, c, v) -> t.(i) <- set_field t.(i) key.(c) v)
              spoils;
            t );
        ])

let print_delta (key, tuples) =
  Fmt.str "key=[%a] %a" Fmt.(array ~sep:semi int) key
    Fmt.(array ~sep:sp Tuple.pp)
    tuples

let fields_equal a b = compare (Tuple.fields a) (Tuple.fields b) = 0

let same_fields xs ys =
  List.length xs = List.length ys && List.for_all2 fields_equal xs ys

let same_pairs xs ys =
  List.length xs = List.length ys
  && List.for_all2
       (fun (a, b) (c, d) -> fields_equal a c && fields_equal b d)
       xs ys

let reference_sort ~arity key tuples =
  let s = Array.copy tuples in
  Array.sort (Ops.key_comparator ~arity key) s;
  s

let run_of ~arity key tuples =
  Sorted_run.sort ~key ~cmp:(Ops.key_comparator ~arity key) tuples

let all_int_keys key tuples =
  Array.for_all
    (fun t ->
      Array.for_all
        (fun k -> match Tuple.get t k with Value.Int _ -> true | _ -> false)
        key)
    tuples

let pairs_of merge =
  let acc = ref [] in
  merge (fun a b -> acc := (a, b) :: !acc);
  List.rev !acc

let prop_run_sort_matches_reference =
  QCheck.Test.make ~name:"Sorted_run.sort = Array.sort key_comparator"
    ~count:200
    (QCheck.make ~print:print_delta
       QCheck.Gen.(
         int_range 1 3 >>= key_gen ~arity:4 >>= fun key ->
         map (fun d -> (key, d)) (delta_gen ~arity:4 ~key)))
    (fun (key, tuples) ->
      let run = run_of ~arity:4 key tuples in
      same_fields
        (Array.to_list run.Sorted_run.tuples)
        (Array.to_list (reference_sort ~arity:4 key tuples))
      && Option.is_some run.Sorted_run.keys = all_int_keys key tuples
      && run.Sorted_run.keys = Sorted_run.int_keys ~key run.Sorted_run.tuples)

(* Join: left arity 4, right arity 3, equal key widths; the residual
   compares one non-key-aligned field of each side. *)
let prop_run_join_matches_reference =
  QCheck.Test.make ~name:"Sorted_run join merge = Ops.merge_groups" ~count:100
    (QCheck.make
       ~print:(fun (kl, l, kr, r) ->
         print_delta (kl, l) ^ " | " ^ print_delta (kr, r))
       QCheck.Gen.(
         int_range 1 3 >>= fun w ->
         pair (key_gen ~arity:4 w) (key_gen ~arity:3 w) >>= fun (kl, kr) ->
         pair (delta_gen ~arity:4 ~key:kl) (delta_gen ~arity:3 ~key:kr)
         >|= fun (l, r) -> (kl, l, kr, r)))
    (fun (key_l, left, key_r, right) ->
      let rl = run_of ~arity:4 key_l left in
      let rr = run_of ~arity:3 key_r right in
      let sl = reference_sort ~arity:4 key_l left in
      let sr = reference_sort ~arity:3 key_r right in
      let want = pairs_of (Ops.merge_groups ~key_l ~key_r sl sr) in
      let residual t = Value.compare (Tuple.get t 1) (Tuple.get t 5) <= 0 in
      let out, candidates =
        Sorted_run.merge_join ~key_l ~key_r ~residual rl rr
      in
      same_pairs (pairs_of (Sorted_run.merge_pairs ~key_l ~key_r rl rr)) want
      && candidates = List.length want
      && same_fields out
           (Ops.merge_sorted_join ~key_l ~key_r ~residual
              ~residual_comparisons:0 sl sr))

let prop_run_intersect_matches_reference =
  let key = [| 0; 1 |] in
  QCheck.Test.make ~name:"Sorted_run intersect merge = Ops.merge_groups"
    ~count:100
    (QCheck.make
       ~print:(fun (l, r) ->
         print_delta (key, l) ^ " | " ^ print_delta (key, r))
       QCheck.Gen.(pair (delta_gen ~arity:2 ~key) (delta_gen ~arity:2 ~key)))
    (fun (left, right) ->
      let rl = run_of ~arity:2 key left and rr = run_of ~arity:2 key right in
      let sl = reference_sort ~arity:2 key left in
      let sr = reference_sort ~arity:2 key right in
      same_pairs
        (pairs_of (Sorted_run.merge_pairs ~key_l:key ~key_r:key rl rr))
        (pairs_of (Ops.merge_groups ~key_l:key ~key_r:key sl sr))
      && same_fields (Sorted_run.merge_intersect ~key rl rr)
           (Ops.merge_sorted_intersect sl sr))

(* Every non-int key kind, alone in an otherwise-int delta, takes the
   fallback and still sorts and merges like the reference. *)
let test_run_fallback_kinds () =
  let key = [| 0 |] in
  let ints = Array.init 30 (fun i -> mk2 (i mod 4) (i mod 3)) in
  List.iter
    (fun v ->
      let name = Value.to_string v in
      let left = Array.copy ints in
      left.(7) <- set_field left.(7) 0 v;
      let rl = run_of ~arity:2 key left and rr = run_of ~arity:2 key ints in
      checkb (name ^ ": no int keys") true (rl.Sorted_run.keys = None);
      checkb (name ^ ": right side keeps them") true
        (rr.Sorted_run.keys <> None);
      let sl = reference_sort ~arity:2 key left in
      let sr = reference_sort ~arity:2 key ints in
      checkb (name ^ ": sort") true
        (same_fields (Array.to_list rl.Sorted_run.tuples) (Array.to_list sl));
      checkb (name ^ ": merge") true
        (same_pairs
           (pairs_of (Sorted_run.merge_pairs ~key_l:key ~key_r:key rl rr))
           (pairs_of (Ops.merge_groups ~key_l:key ~key_r:key sl sr))))
    odd_keys

let test_run_int_extremes () =
  (* A subtraction comparator calls min_int greater than max_int, so the
     merge would step past the right side's max_int group before the
     left side reached it. *)
  checkb "subtraction overflows" true (min_int - max_int > 0);
  let t k = mk2 k 0 in
  let key = [| 0 |] in
  let left = run_of ~arity:2 key [| t max_int; t min_int; t 0; t max_int |] in
  checkb "sorted keys" true
    (left.Sorted_run.keys = Some [| min_int; 0; max_int; max_int |]);
  checkb "sorted tuples" true
    (Array.for_all2 fields_equal left.Sorted_run.tuples
       [| t min_int; t 0; t max_int; t max_int |]);
  let right = run_of ~arity:2 key [| t max_int |] in
  let pairs =
    pairs_of (Sorted_run.merge_pairs ~key_l:key ~key_r:key left right)
  in
  checkb "both max_int pairs" true
    (same_pairs pairs [ (t max_int, t max_int); (t max_int, t max_int) ])

(* ------------------------------------------------------------------ *)
(* Full-field ties are unobservable                                    *)

module Heap_file = Taqp_storage.Heap_file
module Catalog = Taqp_storage.Catalog

(* The int sort may order tuples whose fields all compare equal
   differently from Array.sort. That is invisible only if such tuples
   also carry equal pads wherever a sort sees them: as stored, and as
   joined. *)
let prop_equal_fields_equal_pads =
  let schema =
    Schema.make
      [
        { Schema.name = "k"; ty = Value.Tint };
        { Schema.name = "s"; ty = Value.Tstring };
        { Schema.name = "x"; ty = Value.Tfloat };
      ]
  in
  let tuple_gen =
    QCheck.Gen.(
      map
        (fun (k, s, x, pad) -> Tuple.make ~pad [| k; s; x |])
        (quad
           (oneofl [ Value.Int 0; Value.Int 1; Value.Null ])
           (oneofl [ Value.String "a"; Value.String "bb"; Value.Null ])
           (oneofl [ Value.Float 0.0; Value.Float (-0.0); Value.Float 1.5 ])
           (int_bound 40)))
  in
  QCheck.Test.make ~name:"equal fields => equal pads, stored and joined"
    ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_range 1 12) tuple_gen))
    (fun tuples ->
      let file = Heap_file.create ~tuple_bytes:64 ~schema tuples in
      let stored = Heap_file.fold (fun acc t -> t :: acc) [] file in
      let joined =
        List.concat_map (fun a -> List.map (Tuple.concat a) stored) stored
      in
      let pads_agree ts =
        List.for_all
          (fun a ->
            List.for_all
              (fun b -> Tuple.compare a b <> 0 || Tuple.pad a = Tuple.pad b)
              ts)
          ts
      in
      pads_agree stored && pads_agree joined)

(* Two relations of 300 tuples over 39 distinct (key, v) values, each
   built with varying pads: the 3-way join's sorts see long runs of
   tuples whose fields are all equal. *)
let dup_catalog =
  lazy
    (let schema =
       Schema.make
         [
           { Schema.name = "key"; ty = Value.Tint };
           { Schema.name = "v"; ty = Value.Tint };
         ]
     in
     let rel mult =
       Heap_file.create ~tuple_bytes:100 ~schema
         (List.init 300 (fun i ->
              Tuple.make ~pad:(i mod 7)
                [| Value.Int (i * mult mod 13); Value.Int (i mod 3) |]))
     in
     Catalog.of_list [ ("d1", rel 5); ("d2", rel 7) ])

let eq a b = Predicate.Cmp (Predicate.Eq, Predicate.Attr a, Predicate.Attr b)

let dup_query =
  Ra.Join
    ( eq "b.key" "c.key",
      Ra.Join
        ( eq "a.key" "b.key",
          Ra.relation ~alias:"a" "d1",
          Ra.relation ~alias:"b" "d2" ),
      Ra.relation ~alias:"c" "d1" )

(* Per-stage estimate, variance and 95% CI of 4 stages at f = 0.1,
   and a digest of the full trace. *)
let dup_run ~physical aggregate =
  let config = { Config.default with Config.physical } in
  let clock = Fixtures.Clock.create_virtual () in
  let sink, events = Taqp_obs.Sink.memory () in
  let tracer =
    Taqp_obs.Tracer.make ~now:(fun () -> Fixtures.Clock.now clock) ~sink
  in
  let device =
    Fixtures.Device.create
      ~params:(Fixtures.Cost_params.no_jitter Fixtures.Cost_params.default)
      ~tracer clock
  in
  let staged =
    Staged.compile ~aggregate ~catalog:(Lazy.force dup_catalog) ~config
      ~rng:(Fixtures.Prng.create 11) ~cost_model:(Cost_model.create ())
      dup_query
  in
  let stages =
    List.init 4 (fun _ ->
        match Staged.run_stage staged ~device ~f:0.1 with
        | None -> "exhausted"
        | Some r ->
            let e = r.Staged.estimate in
            let ci = Count_estimator.confidence ~level:0.95 e in
            Fmt.str "%.17g %.17g %.17g %.17g" e.Count_estimator.estimate
              e.Count_estimator.variance ci.Taqp_stats.Confidence.center
              ci.Taqp_stats.Confidence.half_width)
  in
  Taqp_obs.Tracer.close tracer;
  let trace =
    String.concat "\n"
      (List.map
         (fun ev -> Taqp_obs.Json.to_string (Taqp_obs.Event.to_json ev))
         (events ()))
  in
  (stages, Digest.to_hex (Digest.string trace))

(* The pinned values come from the engine as it was when the sort-merge
   path sorted every delta with Array.sort: the int sort must change
   none of them. *)
let test_duplicate_tuples_pinned () =
  let checks = Alcotest.check Alcotest.string in
  let check_aggregate name aggregate ~final ~stages_digest =
    let sort_stages, sort_trace =
      dup_run ~physical:Config.Sort_merge aggregate
    in
    let hash_stages, _ = dup_run ~physical:Config.Hash aggregate in
    List.iter2 (checks (name ^ ": sort = hash")) hash_stages sort_stages;
    checks (name ^ ": final stage pinned") final (List.nth sort_stages 3);
    checks
      (name ^ ": every stage pinned")
      stages_digest
      (Digest.to_hex (Digest.string (String.concat "\n" sort_stages)));
    checks (name ^ ": sort trace pinned") "30241128a1f01c78062ccca69412c401"
      sort_trace
  in
  check_aggregate "count" Taqp_core.Aggregate.Count
    ~final:"161468.75 2347359.408677862 161468.75 3002.8775593423916"
    ~stages_digest:"2ef4ed5ce966f5d30d2b2102b5bb1a56";
  check_aggregate "sum" (Taqp_core.Aggregate.Sum "a.v")
    ~final:"160843.75 3884465.508167793 160843.75 3862.8999861619632"
    ~stages_digest:"ce7267b31a51e9f387971a14301b1a84"

(* ------------------------------------------------------------------ *)
(* Generated join and intersect queries against the exact evaluator   *)

(* Three small relations (k, v) sharing one key type, with duplicate
   keys and duplicate tuples. Float and String keys take the fallback
   merge; Int keys include both extremes. *)
let gen_catalog_gen =
  QCheck.Gen.(
    oneofl [ Value.Tint; Value.Tint; Value.Tint; Value.Tfloat; Value.Tstring ]
    >>= fun ty ->
    let key =
      match ty with
      | Value.Tfloat ->
          oneofl [ Value.Float (-1.5); Value.Float 0.0; Value.Float 2.0 ]
      | Value.Tstring ->
          oneofl [ Value.String "a"; Value.String "b"; Value.String "c" ]
      | Value.Tint | Value.Tbool ->
          frequency
            [
              (6, map (fun i -> Value.Int i) (int_range (-2) 2));
              (1, oneofl [ Value.Int min_int; Value.Int max_int ]);
            ]
    in
    let rel = list_size (int_range 5 40) (pair key (int_range 0 2)) in
    triple rel rel rel >|= fun (r0, r1, r2) -> (ty, [ r0; r1; r2 ]))

let gen_catalog (ty, rels) =
  let schema =
    Schema.make
      [ { Schema.name = "k"; ty }; { Schema.name = "v"; ty = Value.Tint } ]
  in
  Catalog.of_list
    (List.mapi
       (fun i rows ->
         ( Printf.sprintf "r%d" i,
           Heap_file.create ~tuple_bytes:100 ~schema
             (List.map (fun (k, v) -> Tuple.make [| k; Value.Int v |]) rows) ))
       rels)

let gen_queries =
  let rel i alias = Ra.relation ~alias (Printf.sprintf "r%d" i) in
  let ab = (rel 0 "a", rel 1 "b") in
  [
    ("join", Ra.Join (eq "a.k" "b.k", fst ab, snd ab));
    ( "join+residual",
      Ra.Join
        ( Predicate.And
            ( eq "a.k" "b.k",
              Predicate.Cmp
                (Predicate.Le, Predicate.Attr "a.v", Predicate.Attr "b.v") ),
          fst ab,
          snd ab ) );
    ( "3-way join",
      Ra.Join
        (eq "b.k" "c.k", Ra.Join (eq "a.k" "b.k", fst ab, snd ab), rel 2 "c")
    );
    ("intersect", Ra.Intersect (fst ab, snd ab));
    ( "intersect-join",
      Ra.Join (eq "a.k" "c.k", Ra.Intersect (fst ab, snd ab), rel 2 "c") );
  ]

let fixed_schedule ~physical catalog query =
  let config = { Config.default with Config.physical } in
  let staged =
    Staged.compile ~catalog ~config ~rng:(Fixtures.Prng.create 5)
      ~cost_model:(Cost_model.create ()) query
  in
  let _, device = Fixtures.quiet_device () in
  let rec go acc =
    match Staged.run_stage staged ~device ~f:0.3 with
    | None -> List.rev acc
    | Some r ->
        let e = r.Staged.estimate in
        let ci = Count_estimator.confidence ~level:0.95 e in
        go
          (( e.Count_estimator.estimate,
             e.Count_estimator.variance,
             ci.Taqp_stats.Confidence.half_width )
          :: acc)
  in
  go []

let report_fingerprint ~physical ~domains catalog query =
  let config = { Fixtures.observe_config with Config.physical; domains } in
  let rng = Fixtures.Prng.create 3 in
  let clock = Fixtures.Clock.create_virtual () in
  let device =
    Fixtures.Device.create ~params:Fixtures.Cost_params.default
      ~jitter_rng:(Fixtures.Prng.split rng) clock
  in
  let r =
    Taqp_core.Executor.run ~config ~device ~catalog ~rng ~quota:2.0 query
  in
  Fmt.str "%.17g|%.17g|%.17g|%.17g|%d|%a" r.Taqp_core.Report.estimate
    r.Taqp_core.Report.variance
    r.Taqp_core.Report.confidence.Taqp_stats.Confidence.half_width
    r.Taqp_core.Report.elapsed r.Taqp_core.Report.stages_completed
    Taqp_storage.Io_stats.pp r.Taqp_core.Report.io

let physicals = [ Config.Sort_merge; Config.Hash; Config.Adaptive ]

let prop_generated_queries =
  QCheck.Test.make ~name:"generated joins: exact at exhaustion, paths agree"
    ~count:25
    (QCheck.make
       ~print:(fun (ty, rels) ->
         Fmt.str "%s %a" (Value.ty_name ty)
           Fmt.(
             list ~sep:semi
               (list ~sep:comma (pair ~sep:(any ":") Value.pp int)))
           rels)
       gen_catalog_gen)
    (fun case ->
      let catalog = gen_catalog case in
      Staged.set_parallel_threshold 1;
      Fun.protect
        ~finally:(fun () -> Staged.set_parallel_threshold 2048)
        (fun () ->
          List.for_all
            (fun (_, query) ->
              let exact = float_of_int (Eval.count catalog query) in
              let runs =
                List.map
                  (fun physical -> fixed_schedule ~physical catalog query)
                  physicals
              in
              let last l =
                match List.rev l with (e, _, _) :: _ -> e | [] -> nan
              in
              List.for_all
                (fun r -> compare r (List.hd runs) = 0 && last r = exact)
                runs
              && List.for_all
                   (fun physical ->
                     report_fingerprint ~physical ~domains:1 catalog query
                     = report_fingerprint ~physical ~domains:2 catalog query)
                   physicals)
            gen_queries))

(* ------------------------------------------------------------------ *)
(* The stage pricer against the plans it replaces                      *)

module Cache = Taqp_cache.Cache
module Sample_size = Taqp_timecontrol.Sample_size
module Plan = Taqp_sampling.Plan

let bits = Int64.bits_of_float

(* QCOST the way the bisection priced it before the pricer: one plan
   per probe, summed by the cost model. *)
let plan_cost staged cm ~f ~mode =
  Cost_model.total cm
    (List.map
       (fun p -> (p.Staged.plan_id, p.Staged.plan_measures))
       (Staged.plan staged ~f ~mode))

(* Single-Interval's deviation the same way: an Override plan per
   operator entry with positive variance. *)
let plan_qcost_std staged cm ~f =
  let plans = Staged.plan staged ~f ~mode:Staged.Plain in
  let base = plan_cost staged cm ~f ~mode:Staged.Plain in
  let acc = ref 0.0 in
  List.iter
    (fun p ->
      if p.Staged.sel_variance > 0.0 then begin
        let delta = Float.max 1e-6 (0.01 *. Float.max p.Staged.sel_plain 1e-4) in
        let perturbed =
          plan_cost staged cm ~f
            ~mode:
              (Staged.Override [ (p.Staged.plan_op_id, p.Staged.sel_plain +. delta) ])
        in
        let grad = (perturbed -. base) /. delta in
        acc := !acc +. (grad *. grad *. p.Staged.sel_variance)
      end)
    plans;
  sqrt !acc

type pricer_case = {
  input : [ `Fixture of int | `Generated of Value.ty * (Value.t * int) list list * int ];
  stages : int;
  stage_f : float;
  physical : Config.physical_operator;
  full : bool;
  cached : bool;
  mode : [ `Plain | `Inflated of float | `Override of int * float ];
  fs : float list;
}

let pricer_fixtures =
  lazy
    [|
      Paper_setup.join ~spec:(Fixtures.spec ()) ~seed:2 ();
      Paper_setup.intersection ~spec:(Fixtures.spec ()) ~overlap:120 ~seed:2 ();
      Paper_setup.three_way_join
        ~spec:(Fixtures.spec ~n_tuples:200 ())
        ~group_size:3 ~seed:2 ();
    |]

let gen_pricer_case =
  QCheck.Gen.(
    let input =
      frequency
        [
          (2, map (fun i -> `Fixture i) (int_range 0 2));
          ( 1,
            map2
              (fun (ty, rels) q -> `Generated (ty, rels, q))
              gen_catalog_gen
              (int_range 0 (List.length gen_queries - 1)) );
        ]
    in
    (* log-uniform over [1e-9, 1], endpoints included *)
    let fraction =
      frequency
        [
          (6, map (fun u -> 10.0 ** (-9.0 *. u)) (float_range 0.0 1.0));
          (1, oneofl [ 1e-9; 1.0 ]);
        ]
    in
    let mode =
      oneof
        [
          return `Plain;
          map (fun d -> `Inflated d) (float_range 0.0 3.0);
          map2 (fun i s -> `Override (i, s)) (int_range 0 9) (float_range 1e-4 1.0);
        ]
    in
    map3
      (fun (input, stages, stage_f) (physical, full, cached) (mode, fs) ->
        { input; stages; stage_f; physical; full; cached; mode; fs })
      (triple input (int_range 0 5) (float_range 0.02 0.3))
      (triple
         (oneofl [ Config.Sort_merge; Config.Hash; Config.Adaptive ])
         bool bool)
      (pair mode (list_size (int_range 1 8) fraction)))

let print_pricer_case c =
  Fmt.str "%s stages=%d f=%g %s %s cache=%b %s fs=[%a]"
    (match c.input with
    | `Fixture i -> Fmt.str "fixture %d" i
    | `Generated (_, _, q) -> Fmt.str "generated query %d" q)
    c.stages c.stage_f
    (match c.physical with
    | Config.Sort_merge -> "sort"
    | Config.Hash -> "hash"
    | Config.Adaptive -> "adaptive")
    (if c.full then "full" else "partial")
    c.cached
    (match c.mode with
    | `Plain -> "plain"
    | `Inflated d -> Fmt.str "inflated %g" d
    | `Override (i, s) -> Fmt.str "override %d=%g" i s)
    Fmt.(list ~sep:semi float)
    c.fs

(* After [stages] executed stages (a warm-up job ahead of it on the
   same evicting cache, when cached), the pricer and the deviation
   equal their plan-per-probe references bit for bit at every f. *)
let pricer_matches_plans c =
  let catalog, query =
    match c.input with
    | `Fixture i ->
        let wl = (Lazy.force pricer_fixtures).(i) in
        (wl.Paper_setup.catalog, wl.Paper_setup.query)
    | `Generated (ty, rels, q) ->
        (gen_catalog (ty, rels), snd (List.nth gen_queries q))
  in
  let config =
    {
      Config.default with
      Config.physical = c.physical;
      plan =
        {
          Config.default.Config.plan with
          Plan.fulfillment = (if c.full then Plan.Full else Plan.Partial);
        };
    }
  in
  let cache =
    if c.cached then Some (Cache.create ~budget_mb:0.005 ~seed:17 ()) else None
  in
  let device () =
    let rng = Fixtures.Prng.create 41 in
    Fixtures.Device.create ~params:Fixtures.Cost_params.default
      ~jitter_rng:(Fixtures.Prng.split rng)
      (Fixtures.Clock.create_virtual ())
  in
  let compile seed =
    let cm = Cost_model.create () in
    ( Staged.compile ?cache ~catalog ~config ~rng:(Fixtures.Prng.create seed)
        ~cost_model:cm query,
      cm )
  in
  let run staged n =
    let device = device () in
    for _ = 1 to n do
      ignore (Staged.run_stage staged ~device ~f:c.stage_f)
    done
  in
  if c.cached then run (fst (compile 3)) (c.stages + 2);
  let staged, cm = compile 5 in
  run staged c.stages;
  let mode =
    match c.mode with
    | `Plain -> Staged.Plain
    | `Inflated d_beta -> Staged.Inflated { d_beta; zero_beta = 0.05 }
    | `Override (i, sel) ->
        let ids = Staged.op_ids staged in
        Staged.Override [ (List.nth ids (i mod List.length ids), sel) ]
  in
  let price = Staged.pricer staged ~mode and std = Staged.qcost_std staged in
  List.for_all
    (fun f ->
      bits (price f) = bits (plan_cost staged cm ~f ~mode)
      && bits (std f) = bits (plan_qcost_std staged cm ~f))
    c.fs

let prop_pricer_matches_plans =
  QCheck.Test.make ~name:"pricer f = total over plan f, bit for bit" ~count:150
    (QCheck.make ~print:print_pricer_case gen_pricer_case)
    pricer_matches_plans

(* One Sample-Size-Determine on a multi-stage 3-way join at domains 1:
   the same outcome, in at most a fifth of the words a plan per probe
   allocates. *)
let test_pricer_allocates_less () =
  let wl = (Lazy.force pricer_fixtures).(2) in
  let cm = Cost_model.create () in
  let staged =
    Staged.compile ~catalog:wl.Paper_setup.catalog
      ~config:{ Config.default with Config.domains = 1 }
      ~rng:(Fixtures.Prng.create 5) ~cost_model:cm wl.Paper_setup.query
  in
  let _, device = Fixtures.quiet_device () in
  for _ = 1 to 4 do
    ignore (Staged.run_stage staged ~device ~f:0.05)
  done;
  List.iter
    (fun (name, mode) ->
      let cost f = plan_cost staged cm ~f ~mode in
      let budget = 0.5 *. (cost 1e-9 +. cost 1.0) in
      let bisect cost_at =
        Sample_size.bisect ~cost_at ~budget ~f_min:1e-9 ~f_max:1.0
          ~eps:(1e-9 *. budget) ~max_iterations:40 ()
      in
      let words g =
        let w0 = Gc.minor_words () in
        let outcome = g () in
        (Gc.minor_words () -. w0, outcome)
      in
      let plan_words, by_plan = words (fun () -> bisect cost) in
      let pricer_words, by_pricer =
        words (fun () -> bisect (Staged.pricer staged ~mode))
      in
      checkb (name ^ ": same outcome") true (by_plan = by_pricer);
      checkb
        (Fmt.str "%s: %.0f words per plan, %.0f per pricer" name plan_words
           pricer_words)
        true
        (plan_words >= 5.0 *. pricer_words))
    [
      ("plain", Staged.Plain);
      ("inflated", Staged.Inflated { d_beta = 1.645; zero_beta = 0.05 });
    ]

(* ------------------------------------------------------------------ *)
(* Leaf columns and COUNT roots                                        *)

module Stage_set = Taqp_sampling.Stage_set
module Generator = Taqp_workload.Generator
module Aggregate = Taqp_core.Aggregate
module Report = Taqp_core.Report

(* Two relations over [Generator.schema] (id, sel, key, grp), keyed in
   groups of three; [c] shares 150 of [a]'s tuples. *)
let col_catalog =
  lazy
    (let rng = Fixtures.Prng.create 23 in
     let spec = Fixtures.spec ~n_tuples:300 () in
     let rel () = Generator.relation ~spec ~key:(fun i -> i / 3) ~rng () in
     let a = rel () and b = rel () in
     let c = Generator.partial_copy ~rng ~keep:150 ~fresh_ids_from:300 a in
     Catalog.of_list [ ("a", a); ("b", b); ("c", c) ])

(* The engine's leaf delta and its row ids: a cluster unit [u] is rows
   [u * bf] up to the block's end, an SRS unit is its own row, and the
   delta concatenates the units in draw order. *)
let leaf_delta file ~per_unit units =
  let n = Heap_file.n_tuples file and bf = Heap_file.blocking_factor file in
  let rows =
    List.concat_map
      (fun u ->
        let lo = u * per_unit in
        List.init (Int.min per_unit (n - lo)) (fun j -> lo + j))
      units
  in
  let tuple r = (Heap_file.block file (r / bf)).(r mod bf) in
  (Array.of_list (List.map tuple rows), rows)

(* The key ints of [rows], row-major, read from the int columns. *)
let column_keys file key rows =
  let cols =
    Array.map (fun i -> Option.get (Heap_file.int_column file i)) key
  in
  Array.of_list
    (List.concat_map
       (fun r -> Array.to_list (Array.map (fun col -> col.(r)) cols))
       rows)

let same_run (a : Sorted_run.t) (b : Sorted_run.t) =
  Array.length a.Sorted_run.tuples = Array.length b.Sorted_run.tuples
  && Array.for_all2 ( == ) a.Sorted_run.tuples b.Sorted_run.tuples
  && a.Sorted_run.keys = b.Sorted_run.keys

let prop_sort_keys_from_columns =
  let key_gen =
    QCheck.Gen.(
      int_range 1 3 >>= fun w ->
      shuffle_l [ 0; 1; 2; 3 ] >|= List.filteri (fun i _ -> i < w))
  in
  QCheck.Test.make
    ~name:"Sorted_run.sort ~keys from columns = sort on leaf deltas"
    ~count:100
    (QCheck.make
       ~print:(fun (srs, key, seed) ->
         Fmt.str "%s key=[%s] seed=%d"
           (if srs then "srs" else "cluster")
           (String.concat ";" (List.map string_of_int key))
           seed)
       QCheck.Gen.(triple bool key_gen (int_range 0 10_000)))
    (fun (srs, key, seed) ->
      let key = Array.of_list key in
      let file = Catalog.find (Lazy.force col_catalog) "a" in
      let per_unit, n_units =
        if srs then (1, Heap_file.n_tuples file)
        else (Heap_file.blocking_factor file, Heap_file.n_blocks file)
      in
      let units = Stage_set.create ~n_units (Fixtures.Prng.create seed) in
      let cmp = Ops.key_comparator ~arity:4 key in
      List.for_all
        (fun k ->
          let delta, rows =
            leaf_delta file ~per_unit (Stage_set.draw_stage units ~k)
          in
          same_run
            (Sorted_run.sort ~keys:(column_keys file key rows) ~key ~cmp delta)
            (Sorted_run.sort ~key ~cmp delta))
        [ 1; 7; 3 * per_unit; n_units ])

let col_config ~unit_kind ~domains =
  {
    Config.default with
    Config.physical = Config.Sort_merge;
    plan = { Plan.unit_kind; fulfillment = Plan.Full };
    domains;
  }

let col_queries =
  let r name = Ra.relation ~alias:name name in
  let ab = Ra.Join (eq "a.key" "b.key", r "a", r "b") in
  let lt x y = Predicate.Cmp (Predicate.Lt, x, y) in
  [
    ("join", ab);
    ( "join+residual",
      Ra.Join
        ( Predicate.And
            ( eq "a.key" "b.key",
              lt (Predicate.Attr "a.sel") (Predicate.Attr "b.sel") ),
          r "a",
          r "b" ) );
    ("intersect", Ra.Intersect (r "a", r "c"));
    ("3-way join", Ra.Join (eq "b.key" "c.key", ab, r "c"));
    ( "select-join",
      Ra.Join
        ( eq "a.key" "b.key",
          Ra.Select
            ( lt (Predicate.Attr "a.sel") (Predicate.Const (Value.Int 150)),
              r "a" ),
          r "b" ) );
  ]

let unit_kinds = [ ("cluster", Plan.Cluster); ("srs", Plan.Simple_random) ]

(* With the cache on, a leaf-fed sort stores the run it built from
   column keys under its stage's slice of the shared prefix: that run
   equals the tuple-keyed sort of the stage's delta. *)
let test_cached_runs_from_columns () =
  let catalog = Lazy.force col_catalog in
  let check_query (kind_name, unit_kind) (qname, right, key) =
    let cache = Cache.create ~budget_mb:64.0 () in
    let staged =
      Staged.compile ~cache ~catalog
        ~config:(col_config ~unit_kind ~domains:1)
        ~rng:(Fixtures.Prng.create 3) ~cost_model:(Cost_model.create ())
        (List.assoc qname col_queries)
    in
    let _, device = Fixtures.quiet_device () in
    let kind =
      if unit_kind = Plan.Cluster then Cache.Blocks else Cache.Tuples
    in
    let cmp = Ops.key_comparator ~arity:4 key in
    let checked = ref 0 in
    (* each of [rel]'s stages, as prefix offsets [lo, lo + size) *)
    let check_side snap rel deltas =
      let scan =
        List.find (fun s -> s.Staged.sn_relation = rel) snap.Staged.sn_scans
      in
      let file = Catalog.find catalog rel in
      let sizes =
        List.rev_map List.length scan.Staged.sn_units.Stage_set.d_stages_rev
      in
      ignore
        (List.fold_left2
           (fun lo size delta ->
             let hi = lo + size in
             (match Cache.find_sorted_run cache ~file ~kind ~lo ~hi ~key with
             | Some run ->
                 incr checked;
                 checkb
                   (Printf.sprintf "%s %s %s [%d,%d)" kind_name qname rel lo hi)
                   true
                   (same_run run (Sorted_run.sort ~key ~cmp delta))
             | None -> ());
             hi)
           0 sizes deltas)
    in
    for _ = 1 to 4 do
      ignore (Staged.run_stage staged ~device ~f:0.05);
      let snap = Staged.snapshot staged in
      match (List.hd snap.Staged.sn_terms).Staged.tn_root.Staged.ns_kind with
      | Staged.Ns_binary { nb_deltas_l; nb_deltas_r; _ } ->
          check_side snap "a" nb_deltas_l;
          check_side snap right nb_deltas_r
      | _ -> Alcotest.fail "the root is a binary operator"
    done;
    checkb
      (Printf.sprintf "%s %s: runs were cached" kind_name qname)
      true (!checked >= 8)
  in
  List.iter
    (fun unit_kind ->
      List.iter (check_query unit_kind)
        [ ("join", "b", [| 2 |]); ("intersect", "c", [| 0; 1; 2; 3 |]) ])
    unit_kinds

(* Per stage, the operators' counts, the trace (every charge, with its
   clock reading and arguments), the I/O counters of one run, and the
   root's output at its last stage. *)
let count_root_run ~unit_kind ~domains ~cache ~aggregate query =
  let clock = Fixtures.Clock.create_virtual () in
  let sink, events = Taqp_obs.Sink.memory () in
  let tracer =
    Taqp_obs.Tracer.make ~now:(fun () -> Fixtures.Clock.now clock) ~sink
  in
  let device =
    Fixtures.Device.create
      ~params:(Fixtures.Cost_params.no_jitter Fixtures.Cost_params.default)
      ~tracer clock
  in
  let staged =
    Staged.compile ~aggregate
      ?cache:(if cache then Some (Cache.create ~budget_mb:64.0 ()) else None)
      ~catalog:(Lazy.force col_catalog)
      ~config:(col_config ~unit_kind ~domains)
      ~rng:(Fixtures.Prng.create 11) ~cost_model:(Cost_model.create ())
      query
  in
  let snapshot (o : Report.op_snapshot) =
    Fmt.str "%s:%.17g/%.17g" o.Report.op_label o.Report.tuples_seen
      o.Report.points_seen
  in
  (* the root's snapshot comes first *)
  let root_out = ref 0.0 in
  let stages =
    List.init 5 (fun _ ->
        match Staged.run_stage staged ~device ~f:0.08 with
        | None -> "exhausted"
        | Some r ->
            root_out := (List.hd r.Staged.op_snapshots).Report.tuples_seen;
            String.concat " " (List.map snapshot r.Staged.op_snapshots))
  in
  Taqp_obs.Tracer.close tracer;
  let trace =
    List.map
      (fun ev -> Taqp_obs.Json.to_string (Taqp_obs.Event.to_json ev))
      (events ())
  in
  ( stages,
    trace,
    Fmt.str "%a" Io_stats.pp (Fixtures.Device.stats device),
    !root_out )

(* A COUNT root counts its sort-merge output instead of building it; a
   SUM root over the same query builds it. Both must see the same
   counts, the same residual checks and the same charges. *)
let test_count_root_matches_materializing () =
  let check (kind_name, unit_kind) (qname, query) (domains, cache) =
    let name =
      Printf.sprintf "%s %s domains=%d cache=%b" qname kind_name domains cache
    in
    let run aggregate =
      count_root_run ~unit_kind ~domains ~cache ~aggregate query
    in
    let c_stages, c_trace, c_io, c_out = run Aggregate.Count in
    let s_stages, s_trace, s_io, _ = run (Aggregate.Sum "a.grp") in
    let check_strings = Alcotest.(check (list string)) in
    check_strings (name ^ ": per-stage counts") s_stages c_stages;
    checki (name ^ ": trace length") (List.length s_trace)
      (List.length c_trace);
    check_strings (name ^ ": charge stream") s_trace c_trace;
    Alcotest.(check string) (name ^ ": io") s_io c_io;
    checkb (name ^ ": the root produced output") true (c_out > 0.0)
  in
  Staged.set_parallel_threshold 1;
  Fun.protect
    ~finally:(fun () -> Staged.set_parallel_threshold 2048)
    (fun () ->
      List.iter
        (fun unit_kind ->
          List.iter
            (fun query ->
              List.iter (check unit_kind query)
                [ (1, false); (1, true); (2, false) ])
            col_queries)
        unit_kinds)

let () =
  Alcotest.run "physical"
    [
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest prop_join_paths_agree;
          QCheck_alcotest.to_alcotest prop_intersect_paths_agree;
          Alcotest.test_case "intersect emit indexed" `Quick
            test_hash_intersect_emit_indexed;
          Alcotest.test_case "cross-type numeric keys" `Quick
            test_cross_type_numeric_keys;
          QCheck_alcotest.to_alcotest prop_key_comparator_same_order;
        ] );
      ( "estimator-identity",
        [
          Alcotest.test_case "bit-identical estimates" `Quick
            test_estimates_bit_identical;
          Alcotest.test_case "partial fulfillment" `Quick
            test_partial_fulfillment_bit_identical;
        ] );
      ( "cost",
        [
          Alcotest.test_case "hash cheaper at late stages" `Quick
            test_hash_cheaper_at_late_stages;
          Alcotest.test_case "adaptive stays in envelope" `Quick
            test_adaptive_within_envelope;
          Alcotest.test_case "forced switch catch-up" `Quick
            test_forced_switch_catch_up;
        ] );
      ( "int-runs",
        [
          QCheck_alcotest.to_alcotest prop_run_sort_matches_reference;
          QCheck_alcotest.to_alcotest prop_run_join_matches_reference;
          QCheck_alcotest.to_alcotest prop_run_intersect_matches_reference;
          Alcotest.test_case "fallback key kinds" `Quick
            test_run_fallback_kinds;
          Alcotest.test_case "int extremes" `Quick test_run_int_extremes;
        ] );
      ( "ties",
        [
          QCheck_alcotest.to_alcotest prop_equal_fields_equal_pads;
          Alcotest.test_case "duplicate tuples pinned" `Quick
            test_duplicate_tuples_pinned;
        ] );
      ( "generated",
        [ QCheck_alcotest.to_alcotest prop_generated_queries ] );
      ( "pricer",
        [
          QCheck_alcotest.to_alcotest prop_pricer_matches_plans;
          Alcotest.test_case "allocates a fifth" `Quick
            test_pricer_allocates_less;
        ] );
      ( "columns",
        [
          QCheck_alcotest.to_alcotest prop_sort_keys_from_columns;
          Alcotest.test_case "cached runs from columns" `Quick
            test_cached_runs_from_columns;
          Alcotest.test_case "COUNT root = materializing root" `Quick
            test_count_root_matches_materializing;
        ] );
    ]
