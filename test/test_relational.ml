open Taqp_data
open Taqp_relational
module Heap_file = Taqp_storage.Heap_file
module Catalog = Taqp_storage.Catalog

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let schema_rs =
  Schema.make
    [ { Schema.name = "a"; ty = Value.Tint }; { Schema.name = "b"; ty = Value.Tint } ]

let mk_tuple a b = Tuple.of_list [ Value.Int a; Value.Int b ]

let file_of pairs =
  Heap_file.create ~block_bytes:64 ~tuple_bytes:16 ~schema:schema_rs
    (List.map (fun (a, b) -> mk_tuple a b) pairs)

(* ------------------------------------------------------------------ *)
(* Predicate                                                           *)

let test_predicate_eval () =
  let open Predicate in
  let pred =
    And
      ( Cmp (Gt, Attr "a", Const (Value.Int 2)),
        Or (Cmp (Eq, Attr "b", Const (Value.Int 0)), Not (Cmp (Lt, Attr "b", Attr "a")))
      )
  in
  let test = compile schema_rs pred in
  checkb "3,0 passes" true (test (mk_tuple 3 0));
  checkb "3,5 passes (b >= a)" true (test (mk_tuple 3 5));
  checkb "3,1 fails" false (test (mk_tuple 3 1));
  checkb "1,0 fails on first conjunct" false (test (mk_tuple 1 0))

let test_predicate_arith () =
  let open Predicate in
  let pred = Cmp (Eq, Add (Attr "a", Attr "b"), Const (Value.Int 10)) in
  let test = compile schema_rs pred in
  checkb "4+6" true (test (mk_tuple 4 6));
  checkb "4+5" false (test (mk_tuple 4 5));
  let div = compile schema_rs (Cmp (Eq, Div (Attr "a", Attr "b"), Const (Value.Int 2))) in
  checkb "int division" true (div (mk_tuple 5 2));
  checkb "division by zero is null -> false" false (div (mk_tuple 5 0))

let test_predicate_null_semantics () =
  let open Predicate in
  let schema = Schema.make [ { Schema.name = "a"; ty = Value.Tint } ] in
  let test = compile schema (Cmp (Eq, Attr "a", Const Value.Null)) in
  checkb "null = null is false" false (test (Tuple.of_list [ Value.Null ]));
  let ne = compile schema (Not (Cmp (Eq, Attr "a", Const Value.Null))) in
  checkb "negation of null comparison" true (ne (Tuple.of_list [ Value.Int 1 ]))

let test_predicate_typecheck () =
  let open Predicate in
  checkb "string vs int comparison rejected" true
    (match typecheck schema_rs (Cmp (Eq, Attr "a", Const (Value.String "x"))) with
    | () -> false
    | exception Type_error _ -> true);
  checkb "arith on string rejected" true
    (match
       typecheck schema_rs (Cmp (Eq, Add (Const (Value.String "x"), Attr "a"), Attr "b"))
     with
    | () -> false
    | exception Type_error _ -> true);
  checkb "unknown attr rejected" true
    (match typecheck schema_rs (Cmp (Eq, Attr "zzz", Attr "a")) with
    | () -> false
    | exception Type_error _ -> true)

let test_predicate_shape_helpers () =
  let open Predicate in
  let p =
    And
      ( Cmp (Eq, Attr "l.x", Attr "r.y"),
        And (Cmp (Gt, Attr "l.z", Const (Value.Int 3)), Cmp (Eq, Attr "l.w", Attr "r.w"))
      )
  in
  checki "comparisons" 3 (comparisons p);
  Alcotest.check
    Alcotest.(list string)
    "attrs in order" [ "l.x"; "r.y"; "l.z"; "l.w"; "r.w" ]
    (attrs p);
  checki "equi pairs" 2 (List.length (equi_join_pairs p));
  checki "residual comparisons" 1 (comparisons (residual_of_equi p))

(* The column form of a predicate against the tuple form: rows of three
   int attributes held as columns, and random and/or/not trees over all
   six operators with attribute-attribute and attribute-constant
   comparisons, the int extremes among the values. *)
let schema_abc =
  Schema.make
    (List.map (fun name -> { Schema.name; ty = Value.Tint }) [ "a"; "b"; "c" ])

let row_value_gen =
  QCheck.Gen.(
    frequency
      [
        (6, int_range (-3) 3);
        (1, oneofl [ min_int; max_int; min_int + 1; max_int - 1 ]);
      ])

let int_pred_gen =
  let open QCheck.Gen in
  let operand =
    frequency
      [
        (3, map (fun a -> Predicate.Attr a) (oneofl [ "a"; "b"; "c" ]));
        (2, map (fun v -> Predicate.Const (Value.Int v)) row_value_gen);
      ]
  in
  let cmp =
    map3
      (fun op x y -> Predicate.Cmp (op, x, y))
      (oneofl Predicate.[ Eq; Ne; Lt; Le; Gt; Ge ])
      operand operand
  in
  sized_size (int_range 0 4)
  @@ fix (fun self depth ->
         if depth = 0 then
           frequency [ (8, cmp); (1, oneofl Predicate.[ True; False ]) ]
         else
           let sub = self (depth - 1) in
           frequency
             [
               (2, cmp);
               (2, map2 (fun p q -> Predicate.And (p, q)) sub sub);
               (2, map2 (fun p q -> Predicate.Or (p, q)) sub sub);
               (1, map (fun p -> Predicate.Not p) sub);
             ])

let prop_compile_rows_matches_compile =
  QCheck.Test.make ~name:"Predicate.compile_rows = compile on every row"
    ~count:500
    (QCheck.make
       ~print:(fun (pred, rows) ->
         Fmt.str "%a over %d rows" Predicate.pp pred (List.length rows))
       QCheck.Gen.(
         pair int_pred_gen
           (list_size (int_range 1 30)
              (triple row_value_gen row_value_gen row_value_gen))))
    (fun (pred, rows) ->
      let rows = Array.of_list rows in
      let cols =
        [|
          Array.map (fun (a, _, _) -> a) rows;
          Array.map (fun (_, b, _) -> b) rows;
          Array.map (fun (_, _, c) -> c) rows;
        |]
      in
      let by_tuple = Predicate.compile schema_abc pred in
      let column i = Some cols.(i) in
      match Predicate.compile_rows schema_abc ~column pred with
      | None -> false
      | Some by_row ->
          Array.for_all Fun.id
            (Array.mapi
               (fun r (a, b, c) ->
                 by_row r
                 = by_tuple
                     (Tuple.of_list [ Value.Int a; Value.Int b; Value.Int c ]))
               rows))

(* Every shape outside int attributes against int attributes or int
   constants has no column form. *)
let test_compile_rows_shapes () =
  let open Predicate in
  let schema =
    Schema.make
      [
        { Schema.name = "a"; ty = Value.Tint };
        { Schema.name = "x"; ty = Value.Tfloat };
        { Schema.name = "s"; ty = Value.Tstring };
        { Schema.name = "n"; ty = Value.Tint };
      ]
  in
  (* [n] is an int attribute whose column is missing (a null in it) *)
  let column = function 0 -> Some [| 1; 5 |] | _ -> None in
  let rows p = compile_rows schema ~column p in
  let lt a b = Cmp (Lt, a, b) in
  List.iter
    (fun (name, p) -> checkb name true (rows p = None))
    [
      ("float constant", lt (Attr "a") (Const (Value.Float 1.5)));
      ("float attribute", lt (Attr "x") (Attr "a"));
      ("string", Cmp (Eq, Attr "s", Const (Value.String "x")));
      ("null constant", Cmp (Eq, Attr "a", Const Value.Null));
      ( "arithmetic",
        lt (Add (Attr "a", Const (Value.Int 1))) (Const (Value.Int 3)) );
      ("attribute without a column", lt (Attr "n") (Const (Value.Int 3)));
      ( "one bad comparison under and",
        And
          ( lt (Attr "a") (Const (Value.Int 3)),
            Not (lt (Attr "x") (Attr "a")) ) );
    ];
  match rows (Or (Not (lt (Const (Value.Int 3)) (Attr "a")), False)) with
  | None -> Alcotest.fail "an int comparison has a column form"
  | Some test -> checkb "row tests" true (test 0 && not (test 1))

(* ------------------------------------------------------------------ *)
(* Ops against brute force                                             *)

let all_pairs l r = List.concat_map (fun a -> List.map (fun b -> (a, b)) r) l

let test_select_matches_filter () =
  let f = file_of [ (1, 1); (2, 4); (3, 9); (4, 16); (5, 25) ] in
  let tuples = Array.of_list (Heap_file.to_list f) in
  let pred = Predicate.Cmp (Predicate.Gt, Predicate.Attr "b", Predicate.Const (Value.Int 5)) in
  let out = Ops.select ~schema:schema_rs pred tuples in
  checki "three qualify" 3 (Array.length out)

let test_merge_join_matches_nested_loop () =
  let left = [ (1, 10); (2, 20); (2, 21); (3, 30) ] in
  let right = [ (2, 100); (2, 200); (3, 300); (4, 400) ] in
  let sl = Schema.qualify "l" schema_rs and sr = Schema.qualify "r" schema_rs in
  let pred = Predicate.Cmp (Predicate.Eq, Predicate.Attr "l.a", Predicate.Attr "r.a") in
  let lt = Array.of_list (List.map (fun (a, b) -> mk_tuple a b) left) in
  let rt = Array.of_list (List.map (fun (a, b) -> mk_tuple a b) right) in
  let out = Ops.merge_join ~schema_l:sl ~schema_r:sr pred lt rt in
  let expected =
    List.filter (fun ((a, _), (c, _)) -> a = c) (all_pairs left right)
  in
  checki "pair count matches nested loop" (List.length expected) (Array.length out);
  (* 2 matches with 2: 2x2=4; 3 with 3: 1. *)
  checki "multiplicities" 5 (Array.length out)

let test_join_with_residual () =
  let sl = Schema.qualify "l" schema_rs and sr = Schema.qualify "r" schema_rs in
  let pred =
    Predicate.And
      ( Predicate.Cmp (Predicate.Eq, Predicate.Attr "l.a", Predicate.Attr "r.a"),
        Predicate.Cmp (Predicate.Lt, Predicate.Attr "l.b", Predicate.Attr "r.b") )
  in
  let lt = Array.of_list [ mk_tuple 1 5; mk_tuple 1 50 ] in
  let rt = Array.of_list [ mk_tuple 1 10 ] in
  let out = Ops.merge_join ~schema_l:sl ~schema_r:sr pred lt rt in
  checki "residual filters" 1 (Array.length out)

let test_theta_join_nested_loop_fallback () =
  let sl = Schema.qualify "l" schema_rs and sr = Schema.qualify "r" schema_rs in
  let pred = Predicate.Cmp (Predicate.Lt, Predicate.Attr "l.a", Predicate.Attr "r.a") in
  let lt = Array.of_list [ mk_tuple 1 0; mk_tuple 3 0 ] in
  let rt = Array.of_list [ mk_tuple 2 0; mk_tuple 4 0 ] in
  let out = Ops.merge_join ~schema_l:sl ~schema_r:sr pred lt rt in
  (* pairs with l.a < r.a: (1,2),(1,4),(3,4) *)
  checki "theta join" 3 (Array.length out)

let test_intersect_multiplicity () =
  let lt = Array.of_list [ mk_tuple 1 1; mk_tuple 1 1; mk_tuple 2 2 ] in
  let rt = Array.of_list [ mk_tuple 1 1; mk_tuple 3 3 ] in
  let out = Ops.intersect ~schema:schema_rs lt rt in
  (* each (left, right) matching point yields one output: 2x1 = 2 *)
  checki "point multiplicity" 2 (Array.length out)

let test_project_groups () =
  let tuples =
    Array.of_list [ mk_tuple 1 7; mk_tuple 2 7; mk_tuple 3 8; mk_tuple 4 7 ]
  in
  let groups = Ops.project_groups ~schema:schema_rs [ "b" ] tuples in
  checki "two groups" 2 (Array.length groups);
  let occ_of v =
    Array.to_list groups
    |> List.find_map (fun (t, c) ->
           if Value.equal (Tuple.get t 0) (Value.Int v) then Some c else None)
  in
  Alcotest.check Alcotest.(option int) "b=7 occupancy" (Some 3) (occ_of 7);
  Alcotest.check Alcotest.(option int) "b=8 occupancy" (Some 1) (occ_of 8)

let test_union_difference () =
  let a = Array.of_list [ mk_tuple 1 1; mk_tuple 2 2 ] in
  let b = Array.of_list [ mk_tuple 2 2; mk_tuple 3 3 ] in
  checki "union" 3 (Array.length (Ops.union a b));
  checki "difference" 1 (Array.length (Ops.difference a b));
  checki "difference other way" 1 (Array.length (Ops.difference b a));
  checki "empty difference" 0 (Array.length (Ops.difference a a));
  checki "distinct" 2 (Array.length (Ops.distinct (Array.append a a)))

(* Property tests over the physical operators. *)

let pairs_gen n = QCheck.Gen.(list_size (int_range 0 n) (pair (int_range 0 6) (int_range 0 6)))

let tuples_of pairs = Array.of_list (List.map (fun (a, b) -> mk_tuple a b) pairs)

let prop_sort_stage_sorted_permutation =
  QCheck.Test.make ~name:"sort_stage: sorted permutation" ~count:200
    (QCheck.make (pairs_gen 30)) (fun pairs ->
      let arr = tuples_of pairs in
      let sorted = Ops.sort_stage ~key:[| 1 |] arr in
      Array.length sorted = Array.length arr
      && List.sort Tuple.compare (Array.to_list sorted)
         = List.sort Tuple.compare (Array.to_list arr)
      &&
      let ok = ref true in
      for i = 0 to Array.length sorted - 2 do
        if Tuple.compare_on [| 1 |] sorted.(i) sorted.(i + 1) > 0 then ok := false
      done;
      !ok)

let prop_select_is_filter =
  QCheck.Test.make ~name:"select = Array filter" ~count:200
    (QCheck.make QCheck.Gen.(pair (pairs_gen 30) (int_range 0 6)))
    (fun (pairs, k) ->
      let arr = tuples_of pairs in
      let pred =
        Predicate.Cmp (Predicate.Le, Predicate.Attr "a", Predicate.Const (Value.Int k))
      in
      let out = Ops.select ~schema:schema_rs pred arr in
      Array.length out = List.length (List.filter (fun (a, _) -> a <= k) pairs))

let prop_merge_sorted_join_matches_merge_join =
  QCheck.Test.make ~name:"merge_sorted_join = merge_join on sorted inputs"
    ~count:200
    (QCheck.make QCheck.Gen.(pair (pairs_gen 15) (pairs_gen 15)))
    (fun (l, r) ->
      let sl = Schema.qualify "l" schema_rs and sr = Schema.qualify "r" schema_rs in
      let pred = Predicate.Cmp (Predicate.Eq, Predicate.Attr "l.a", Predicate.Attr "r.a") in
      let lt = tuples_of l and rt = tuples_of r in
      let via_join = Ops.merge_join ~schema_l:sl ~schema_r:sr pred lt rt in
      let sorted_l = Ops.sort_stage ~key:[| 0 |] lt in
      let sorted_r = Ops.sort_stage ~key:[| 0 |] rt in
      let via_sorted =
        Ops.merge_sorted_join ~key_l:[| 0 |] ~key_r:[| 0 |]
          ~residual:(fun _ -> true)
          ~residual_comparisons:0 sorted_l sorted_r
      in
      List.sort Tuple.compare (Array.to_list via_join)
      = List.sort Tuple.compare via_sorted)

let prop_project_occupancies_sum =
  QCheck.Test.make ~name:"project group occupancies sum to input" ~count:200
    (QCheck.make (pairs_gen 40)) (fun pairs ->
      let arr = tuples_of pairs in
      let groups = Ops.project_groups ~schema:schema_rs [ "a" ] arr in
      Array.fold_left (fun acc (_, c) -> acc + c) 0 groups = Array.length arr
      && Array.length (Ops.distinct (Array.map fst groups)) = Array.length groups)

let prop_inclusion_exclusion_cardinality =
  QCheck.Test.make ~name:"|A union B| = |A| + |B| - |A inter B| (sets)" ~count:200
    (QCheck.make QCheck.Gen.(pair (pairs_gen 15) (pairs_gen 15)))
    (fun (l, r) ->
      let dedup x = List.sort_uniq compare x in
      let l = dedup l and r = dedup r in
      let lt = tuples_of l and rt = tuples_of r in
      let union = Array.length (Ops.union lt rt) in
      let inter = Array.length (Ops.intersect ~schema:schema_rs lt rt) in
      union = List.length l + List.length r - inter)

let prop_difference_partition =
  QCheck.Test.make ~name:"A = (A - B) + (A inter B) for sets" ~count:200
    (QCheck.make QCheck.Gen.(pair (pairs_gen 15) (pairs_gen 15)))
    (fun (l, r) ->
      let dedup x = List.sort_uniq compare x in
      let l = dedup l and r = dedup r in
      let lt = tuples_of l and rt = tuples_of r in
      let diff = Array.length (Ops.difference lt rt) in
      let inter = Array.length (Ops.intersect ~schema:schema_rs lt rt) in
      diff + inter = List.length l)

let test_empty_operands () =
  let e = [||] and full = tuples_of [ (1, 1); (2, 2) ] in
  checki "select empty" 0
    (Array.length (Ops.select ~schema:schema_rs Predicate.True e));
  checki "join empty left" 0
    (Array.length
       (Ops.merge_join
          ~schema_l:(Schema.qualify "l" schema_rs)
          ~schema_r:(Schema.qualify "r" schema_rs)
          (Predicate.Cmp (Predicate.Eq, Predicate.Attr "l.a", Predicate.Attr "r.a"))
          e full));
  checki "intersect empty" 0 (Array.length (Ops.intersect ~schema:schema_rs full e));
  checki "union with empty" 2 (Array.length (Ops.union full e));
  checki "difference from empty" 0 (Array.length (Ops.difference e full));
  checki "project empty" 0
    (Array.length (Ops.project_groups ~schema:schema_rs [ "a" ] e))

(* ------------------------------------------------------------------ *)
(* Ra schema inference                                                 *)

let catalog_rs () =
  Catalog.of_list
    [ ("r", file_of [ (1, 1); (2, 2) ]); ("s", file_of [ (2, 2); (3, 3) ]) ]

let test_infer_basics () =
  let catalog = catalog_rs () in
  let s = Ra.infer_catalog catalog (Ra.relation "r") in
  Alcotest.check Alcotest.(list string) "qualified" [ "r.a"; "r.b" ] (Schema.names s);
  let j =
    Ra.infer_catalog catalog
      (Ra.Join
         ( Predicate.Cmp (Predicate.Eq, Predicate.Attr "r.a", Predicate.Attr "s.a"),
           Ra.relation "r",
           Ra.relation "s" ))
  in
  checki "join arity" 4 (Schema.arity j)

let test_infer_errors () =
  let catalog = catalog_rs () in
  let raises e = match Ra.infer_catalog catalog e with
    | _ -> false
    | exception Ra.Type_error _ -> true
  in
  checkb "unknown relation" true (raises (Ra.relation "nope"));
  checkb "self join needs alias" true
    (raises (Ra.Join (Predicate.True, Ra.relation "r", Ra.relation "r")));
  checkb "aliased self join ok" false
    (raises (Ra.Join (Predicate.True, Ra.relation "r", Ra.relation ~alias:"r2" "r")));
  checkb "bad projection" true (raises (Ra.Project ([ "zzz" ], Ra.relation "r")));
  checkb "empty projection" true (raises (Ra.Project ([], Ra.relation "r")));
  checkb "union incompatible" true
    (raises
       (Ra.Union (Ra.relation "r", Ra.Project ([ "a" ], Ra.relation ~alias:"s2" "s"))))

let test_ra_structure () =
  let e =
    Ra.Union
      ( Ra.Select (Predicate.True, Ra.relation "r"),
        Ra.Join (Predicate.True, Ra.relation "r", Ra.relation ~alias:"s2" "s") )
  in
  checki "leaves" 3 (List.length (Ra.leaves e));
  Alcotest.check Alcotest.(list string) "distinct relations" [ "r"; "s" ]
    (Ra.relation_names e);
  checkb "has union" true (Ra.has_union_or_difference e);
  checkb "not sjip" false (Ra.is_sjip e);
  checki "size" 6 (Ra.size e);
  checkb "projection detection" true
    (Ra.has_projection (Ra.Project ([ "a" ], Ra.relation "r")))

(* ------------------------------------------------------------------ *)
(* Eval: exact evaluation vs hand-computed results                     *)

let test_eval_count_select () =
  let catalog = catalog_rs () in
  let q =
    Ra.Select
      (Predicate.Cmp (Predicate.Ge, Predicate.Attr "a", Predicate.Const (Value.Int 2)),
       Ra.relation "r")
  in
  checki "count" 1 (Eval.count catalog q)

let test_eval_count_ops () =
  let catalog = catalog_rs () in
  checki "intersect" 1 (Eval.count catalog (Ra.Intersect (Ra.relation "r", Ra.relation "s")));
  checki "union" 3 (Eval.count catalog (Ra.Union (Ra.relation "r", Ra.relation "s")));
  checki "difference" 1
    (Eval.count catalog (Ra.Difference (Ra.relation "r", Ra.relation "s")));
  checki "join on key" 1
    (Eval.count catalog
       (Ra.Join
          ( Predicate.Cmp (Predicate.Eq, Predicate.Attr "r.a", Predicate.Attr "s.a"),
            Ra.relation "r",
            Ra.relation "s" )))

let test_eval_charges_device () =
  let catalog = catalog_rs () in
  let clock = Taqp_storage.Clock.create_virtual () in
  let device =
    Taqp_storage.Device.create
      ~params:(Taqp_storage.Cost_params.no_jitter Taqp_storage.Cost_params.default)
      clock
  in
  ignore (Eval.eval ~device catalog (Ra.relation "r"));
  checkb "charged some time" true (Taqp_storage.Clock.now clock > 0.0);
  checkb "read all blocks" true
    (Taqp_storage.Io_stats.blocks_read (Taqp_storage.Device.stats device) > 0)

(* Randomized: Eval against a brute-force model on tiny relations. *)
let prop_eval_select_matches_model =
  QCheck.Test.make ~name:"Eval select = model filter" ~count:100
    QCheck.(pair (list_of_size Gen.(int_range 0 20) (pair (int_range 0 5) (int_range 0 5)))
              (int_range 0 5))
    (fun (rows, threshold) ->
      QCheck.assume (rows <> []);
      let catalog = Catalog.of_list [ ("t", file_of rows) ] in
      let q =
        Ra.Select
          ( Predicate.Cmp
              (Predicate.Lt, Predicate.Attr "a", Predicate.Const (Value.Int threshold)),
            Ra.relation "t" )
      in
      Eval.count catalog q = List.length (List.filter (fun (a, _) -> a < threshold) rows))

let prop_eval_join_matches_model =
  QCheck.Test.make ~name:"Eval equi-join = model nested loop" ~count:100
    QCheck.(pair (list_of_size Gen.(int_range 0 12) (pair (int_range 0 4) (int_range 0 4)))
              (list_of_size Gen.(int_range 0 12) (pair (int_range 0 4) (int_range 0 4))))
    (fun (l, r) ->
      QCheck.assume (l <> [] && r <> []);
      let catalog = Catalog.of_list [ ("l", file_of l); ("r", file_of r) ] in
      let q =
        Ra.Join
          ( Predicate.Cmp (Predicate.Eq, Predicate.Attr "l.a", Predicate.Attr "r.a"),
            Ra.relation "l",
            Ra.relation "r" )
      in
      Eval.count catalog q
      = List.length (List.filter (fun ((a, _), (c, _)) -> a = c) (all_pairs l r)))

let dedup l = List.sort_uniq compare l

let prop_eval_union_matches_model =
  QCheck.Test.make ~name:"Eval union/difference = set model" ~count:100
    QCheck.(pair (list_of_size Gen.(int_range 0 10) (pair (int_range 0 3) (int_range 0 3)))
              (list_of_size Gen.(int_range 0 10) (pair (int_range 0 3) (int_range 0 3))))
    (fun (l, r) ->
      let l = dedup l and r = dedup r in
      QCheck.assume (l <> [] && r <> []);
      let catalog = Catalog.of_list [ ("l", file_of l); ("r", file_of r) ] in
      let union = Eval.count catalog (Ra.Union (Ra.relation "l", Ra.relation "r")) in
      let diff = Eval.count catalog (Ra.Difference (Ra.relation "l", Ra.relation "r")) in
      union = List.length (dedup (l @ r))
      && diff = List.length (List.filter (fun x -> not (List.mem x r)) l))

let () =
  Alcotest.run "relational"
    [
      ( "predicate",
        [
          Alcotest.test_case "boolean evaluation" `Quick test_predicate_eval;
          Alcotest.test_case "arithmetic" `Quick test_predicate_arith;
          Alcotest.test_case "null semantics" `Quick test_predicate_null_semantics;
          Alcotest.test_case "typechecking" `Quick test_predicate_typecheck;
          Alcotest.test_case "shape helpers" `Quick test_predicate_shape_helpers;
          QCheck_alcotest.to_alcotest prop_compile_rows_matches_compile;
          Alcotest.test_case "column form shapes" `Quick
            test_compile_rows_shapes;
        ] );
      ( "ops",
        [
          Alcotest.test_case "select" `Quick test_select_matches_filter;
          Alcotest.test_case "merge join vs nested loop" `Quick
            test_merge_join_matches_nested_loop;
          Alcotest.test_case "join residual" `Quick test_join_with_residual;
          Alcotest.test_case "theta join fallback" `Quick
            test_theta_join_nested_loop_fallback;
          Alcotest.test_case "intersect multiplicity" `Quick test_intersect_multiplicity;
          Alcotest.test_case "project groups" `Quick test_project_groups;
          Alcotest.test_case "union/difference" `Quick test_union_difference;
          Alcotest.test_case "empty operands" `Quick test_empty_operands;
          QCheck_alcotest.to_alcotest prop_sort_stage_sorted_permutation;
          QCheck_alcotest.to_alcotest prop_select_is_filter;
          QCheck_alcotest.to_alcotest prop_merge_sorted_join_matches_merge_join;
          QCheck_alcotest.to_alcotest prop_project_occupancies_sum;
          QCheck_alcotest.to_alcotest prop_inclusion_exclusion_cardinality;
          QCheck_alcotest.to_alcotest prop_difference_partition;
        ] );
      ( "ra",
        [
          Alcotest.test_case "schema inference" `Quick test_infer_basics;
          Alcotest.test_case "type errors" `Quick test_infer_errors;
          Alcotest.test_case "structure helpers" `Quick test_ra_structure;
        ] );
      ( "eval",
        [
          Alcotest.test_case "select count" `Quick test_eval_count_select;
          Alcotest.test_case "set operators" `Quick test_eval_count_ops;
          Alcotest.test_case "device charging" `Quick test_eval_charges_device;
          QCheck_alcotest.to_alcotest prop_eval_select_matches_model;
          QCheck_alcotest.to_alcotest prop_eval_join_matches_model;
          QCheck_alcotest.to_alcotest prop_eval_union_matches_model;
        ] );
    ]
