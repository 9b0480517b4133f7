(* taqp_cache: the shared cross-query cache.

   The load-bearing properties:

   - cache-off is the engine: a run with no cache attached is
     deterministic and bit-identical to the pre-cache evaluator (the
     latter asserted by fingerprint determinism plus the fact that no
     cache code runs on that path);

   - invalidation means cold: after [invalidate_relation], a consumer
     compiled against the warm-then-invalidated cache produces exactly
     the report a consumer against a fresh cache does — estimates
     after a write match a cold run;

   - statistics survive sharing: with one cache shared across many
     seeded runs, estimates stay unbiased and confidence intervals
     keep their coverage — the shared prefix is still a simple random
     sample for every consumer;

   - accounting stays exact: cache hits are charged as [cache_probe]
     into the audited ledger funnel and reconciliation remains
     bit-exact, with [Cache_probe] spend > 0 on a warm run. *)

module Config = Taqp_core.Config
module Report = Taqp_core.Report
module Taqp = Taqp_core.Taqp
module Executor = Taqp_core.Executor
module Aggregate = Taqp_core.Aggregate
module Stopping = Taqp_timecontrol.Stopping
module Catalog = Taqp_storage.Catalog
module Heap_file = Taqp_storage.Heap_file
module Clock = Taqp_storage.Clock
module Device = Taqp_storage.Device
module Cost_params = Taqp_storage.Cost_params
module Io_stats = Taqp_storage.Io_stats
module Stage_set = Taqp_sampling.Stage_set
module Paper_setup = Taqp_workload.Paper_setup
module Prng = Taqp_rng.Prng
module Confidence = Taqp_stats.Confidence
module Ledger = Taqp_audit.Ledger
module Cache = Taqp_cache.Cache

let checkb = Fixtures.checkb
let checki = Fixtures.checki
let checkf = Fixtures.checkf
let checks = Alcotest.check Alcotest.string

let fingerprint (r : Report.t) =
  Fmt.str "%.17g|%.17g|%.17g|%.17g|%d|%b|%a" r.Report.estimate
    r.Report.variance r.Report.confidence.Confidence.half_width
    r.Report.elapsed r.Report.stages_completed r.Report.degraded Io_stats.pp
    r.Report.io

let selection = lazy (Paper_setup.selection ~spec:(Fixtures.spec ()) ~seed:5 ())
let join = lazy (Paper_setup.join ~spec:(Fixtures.spec ()) ~seed:6 ())

let run ?cache ?(seed = 9) ?(quota = 2.0) (wl : Paper_setup.t) =
  Taqp.count_within ~config:Fixtures.observe_config ?cache ~seed
    wl.Paper_setup.catalog ~quota wl.Paper_setup.query

let invalidate_all cache (wl : Paper_setup.t) =
  List.iter
    (fun name ->
      Cache.invalidate_relation cache
        (Catalog.find wl.Paper_setup.catalog name))
    (Catalog.names wl.Paper_setup.catalog)

(* ------------------------------------------------------------------ *)
(* Cache-off and determinism                                           *)

let test_cache_off_deterministic () =
  let wl = Lazy.force selection in
  checks "no-cache runs bit-identical"
    (fingerprint (run wl))
    (fingerprint (run wl))

let test_cache_on_deterministic () =
  let wl = Lazy.force join in
  let go () = run ~cache:(Cache.create ~budget_mb:4.0 ~seed:0 ()) wl in
  checks "fresh-cache runs bit-identical" (fingerprint (go ()))
    (fingerprint (go ()))

(* ------------------------------------------------------------------ *)
(* Invalidation means cold                                             *)

let invalidation_equals_cold seed =
  let wl = Lazy.force selection in
  let warm = Cache.create ~budget_mb:4.0 ~seed:0 () in
  ignore (run ~cache:warm ~seed:(seed + 100) wl);
  invalidate_all warm wl;
  let after = run ~cache:warm ~seed wl in
  let cold = run ~cache:(Cache.create ~budget_mb:4.0 ~seed:0 ()) ~seed wl in
  fingerprint after = fingerprint cold

let test_invalidation_equals_cold () =
  checkb "post-invalidation run equals cold run" true
    (invalidation_equals_cold 9)

let prop_invalidation_equals_cold =
  QCheck.Test.make ~name:"invalidation ≡ cold for any seed" ~count:15
    QCheck.(int_range 1 1000)
    invalidation_equals_cold

(* ------------------------------------------------------------------ *)
(* Reuse pays                                                          *)

let test_reuse_reduces_device_reads () =
  let wl = Lazy.force selection in
  let cache = Cache.create ~budget_mb:8.0 ~seed:0 () in
  let first = run ~cache wl in
  let second = run ~cache ~seed:10 wl in
  checkb "second run reads fewer device blocks" true
    (second.Report.blocks_read < first.Report.blocks_read);
  let s = Cache.stats cache in
  checkb "hits recorded" true (s.Cache.hits > 0);
  checkb "hit ratio consistent" true
    (Float.abs
       (Cache.hit_ratio cache
       -. float_of_int s.Cache.hits
          /. float_of_int (s.Cache.hits + s.Cache.misses))
    < 1e-12)

(* ------------------------------------------------------------------ *)
(* Statistics survive sharing                                          *)

let test_unbiased_under_reuse () =
  (* One cache shared across many seeded runs: the mean estimate must
     stay near the exact count, exactly as without a cache. *)
  let wl = Lazy.force selection in
  let cache = Cache.create ~budget_mb:8.0 ~seed:0 () in
  let s = Taqp_stats.Summary.create () in
  for seed = 1 to 40 do
    let r = run ~cache ~seed ~quota:1.0 wl in
    Taqp_stats.Summary.add s r.Report.estimate
  done;
  let mean = Taqp_stats.Summary.mean s in
  checkb "mean near exact under heavy reuse" true
    (Float.abs (mean -. float_of_int wl.Paper_setup.exact)
    < 0.25 *. float_of_int wl.Paper_setup.exact)

let test_ci_coverage_under_reuse () =
  (* Four independent cache seeds; under each, many runs share the
     cache. The nominal-level confidence intervals must keep their
     coverage despite every run after the first sampling warm. *)
  let wl = Lazy.force selection in
  let exact = float_of_int wl.Paper_setup.exact in
  List.iter
    (fun cache_seed ->
      let cache = Cache.create ~budget_mb:8.0 ~seed:cache_seed () in
      let covered = ref 0 in
      let n = 30 in
      for seed = 1 to n do
        let r = run ~cache ~seed ~quota:1.0 wl in
        if Confidence.contains r.Report.confidence exact then incr covered
      done;
      checkb
        (Fmt.str "coverage under reuse (cache seed %d)" cache_seed)
        true
        (float_of_int !covered /. float_of_int n >= 0.75))
    [ 0; 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Eviction and exhaustion                                             *)

let test_tiny_budget_still_exact_on_exhaustion () =
  (* A budget too small to hold anything still never corrupts: with an
     unbounded quota the evaluator exhausts the relation and reports
     the exact count, evictions notwithstanding. *)
  let wl = Lazy.force selection in
  let cache = Cache.create ~budget_mb:0.01 ~seed:0 () in
  ignore (run ~cache wl);
  let r = run ~cache ~seed:2 ~quota:1e6 wl in
  checkb "exact flag" true r.Report.exact;
  checkf "estimate equals exact"
    (float_of_int wl.Paper_setup.exact)
    r.Report.estimate;
  let s = Cache.stats cache in
  checkb "bytes within budget" true (s.Cache.bytes <= Cache.budget_bytes cache)

(* ------------------------------------------------------------------ *)
(* Accounting                                                          *)

let solo_audited ?cache ~ledger (wl : Paper_setup.t) =
  let clock = Clock.create_virtual () in
  let device =
    Device.create ~params:(Cost_params.no_jitter Cost_params.default) clock
  in
  Device.set_spend_listener device (Some (Ledger.on_spend ledger));
  let h =
    Executor.start ~config:Fixtures.observe_config ~aggregate:Aggregate.Count
      ?cache ~device ~catalog:wl.Paper_setup.catalog ~rng:(Prng.create 3)
      ~quota:2.0 wl.Paper_setup.query
  in
  let rec loop () =
    match Executor.step h with `Continue -> loop () | `Done r -> r
  in
  loop ()

let test_warm_audited_run_reconciles () =
  let wl = Lazy.force selection in
  let cache = Cache.create ~budget_mb:8.0 ~seed:0 () in
  (* warm pass, unaudited *)
  ignore (run ~cache wl);
  let l = Ledger.create () in
  let r = solo_audited ~cache ~ledger:l wl in
  checkb "warm run hit the cache" true
    (Ledger.spend l Ledger.Cache_probe > 0.0);
  let rec_ = Ledger.reconcile ~quota:2.0 l in
  checkb "reconciliation bit-exact with cache hits" true rec_.Ledger.r_exact;
  checkf "ledger total equals elapsed" r.Report.elapsed (Ledger.charged l)

let test_cold_audited_run_has_no_probe_spend () =
  let wl = Lazy.force selection in
  let l = Ledger.create () in
  ignore (solo_audited ~ledger:l wl);
  checkf "no cache, no probe spend" 0.0 (Ledger.spend l Ledger.Cache_probe)

let test_cache_probe_label_routes () =
  checkb "cache_probe label routes to its category" true
    (Ledger.category_of_label "cache_probe" = Ledger.Cache_probe)

(* ------------------------------------------------------------------ *)
(* Stage_set.record_stage validation                                   *)

let test_record_stage_validates () =
  let fresh () = Stage_set.create ~n_units:10 (Prng.create 1) in
  let s = fresh () in
  Stage_set.record_stage s [ 0; 3; 7 ];
  Alcotest.check_raises "duplicate unit rejected"
    (Invalid_argument "Stage_set.record_stage: unit already drawn")
    (fun () -> Stage_set.record_stage s [ 3 ]);
  Alcotest.check_raises "out-of-range unit rejected"
    (Invalid_argument "Stage_set.record_stage: unit out of range")
    (fun () -> Stage_set.record_stage (fresh ()) [ 10 ])

let test_record_stage_then_draw_disjoint () =
  (* Falling back to the private stream after recorded stages must
     continue without replacement: draws never repeat recorded units. *)
  let s = Stage_set.create ~n_units:20 (Prng.create 7) in
  let recorded = [ 0; 1; 2; 3; 4; 5; 6; 7 ] in
  Stage_set.record_stage s recorded;
  let drawn = Stage_set.draw_stage s ~k:12 in
  checki "drains the remainder" 12 (List.length drawn);
  List.iter
    (fun u -> checkb "fresh draw avoids recorded units" false
        (List.mem u recorded))
    drawn

(* ------------------------------------------------------------------ *)
(* Prediction                                                          *)

let first_relation (wl : Paper_setup.t) =
  Catalog.find wl.Paper_setup.catalog
    (List.hd (Catalog.names wl.Paper_setup.catalog))

let test_predict_misses_read_only () =
  let wl = Lazy.force selection in
  let cache = Cache.create ~budget_mb:8.0 ~seed:0 () in
  let file = first_relation wl in
  let p1 = Cache.predict_misses cache ~file ~kind:Cache.Blocks ~lo:0 ~k:5 in
  let p2 = Cache.predict_misses cache ~file ~kind:Cache.Blocks ~lo:0 ~k:5 in
  checki "prediction is stable (no randomness consumed)" p1 p2;
  checki "cold cache predicts every block missing" 5 p1;
  (* materialize the prefix, run nothing: prediction unchanged until
     blocks are actually stored *)
  ignore (Cache.prefix_units cache ~file ~kind:Cache.Blocks ~lo:0 ~k:5);
  checki "prediction respects materialized-but-unstored" 5
    (Cache.predict_misses cache ~file ~kind:Cache.Blocks ~lo:0 ~k:5);
  (* Any number of predictions leaves the counters and the next draw
     exactly as a twin cache that never predicted has them. *)
  let twin = Cache.create ~budget_mb:8.0 ~seed:0 () in
  let history c =
    ignore (Cache.prefix_units c ~file ~kind:Cache.Blocks ~lo:0 ~k:5);
    ignore (Cache.prefix_units c ~file ~kind:Cache.Tuples ~lo:0 ~k:30);
    List.iter
      (fun b ->
        ignore (Cache.find_block c ~file b);
        Cache.store_block c ~file b ~cost:0.01 (Heap_file.block file b))
      [ 0; 3; 7 ];
    ignore (Cache.find_block c ~file 3)
  in
  history cache;
  history twin;
  for lo = 0 to 40 do
    List.iter
      (fun kind ->
        for k = 0 to 60 do
          ignore (Cache.predict_misses cache ~file ~kind ~lo ~k)
        done)
      [ Cache.Blocks; Cache.Tuples ]
  done;
  checkb "stats untouched by predictions" true
    (Cache.stats cache = Cache.stats twin);
  List.iter
    (fun kind ->
      checkb "next draw untouched by predictions" true
        (Cache.prefix_units cache ~file ~kind ~lo:30 ~k:8
        = Cache.prefix_units twin ~file ~kind ~lo:30 ~k:8))
    [ Cache.Blocks; Cache.Tuples ];
  (* Under the Tuples kind a stage reads each uncached block once,
     however many of its sampled tuples share it. *)
  let cache = Cache.create ~budget_mb:8.0 ~seed:0 () in
  let bf = Heap_file.blocking_factor file in
  let n = Heap_file.n_tuples file in
  let units =
    Array.of_list (Cache.prefix_units cache ~file ~kind:Cache.Tuples ~lo:0 ~k:n)
  in
  (* the first offset whose tuple shares a block with an earlier one *)
  let rec first_repeat seen j =
    let b = units.(j) / bf in
    if List.mem b seen then j else first_repeat (b :: seen) (j + 1)
  in
  let j = first_repeat [] 0 in
  checki "two tuples of one uncached block are one read" j
    (Cache.predict_misses cache ~file ~kind:Cache.Tuples ~lo:0 ~k:(j + 1));
  checki "a whole-relation sample reads every block once"
    (Heap_file.n_blocks file)
    (Cache.predict_misses cache ~file ~kind:Cache.Tuples ~lo:0 ~k:n);
  let b = units.(0) / bf in
  Cache.store_block cache ~file b ~cost:0.01 (Heap_file.block file b);
  checki "a cached block is no read"
    (Heap_file.n_blocks file - 1)
    (Cache.predict_misses cache ~file ~kind:Cache.Tuples ~lo:0 ~k:n)

(* ------------------------------------------------------------------ *)
(* Memoized prediction: after any history of cache mutations, a memo
   kept warm by a prediction at every step answers exactly what a cold
   memo does. The cold side is a fresh cache with the same seed that
   replays the same operations and is asked once. *)

type op =
  | Draw of int * Cache.unit_kind * int  (* consumer, kind, units *)
  | Store of int * float  (* i-th drawn block, refetch cost *)
  | Find of int  (* i-th drawn block *)
  | Store_run of int * int  (* sorted run over tuple offsets [lo, hi) *)
  | Invalidate

type probe = { kind : Cache.unit_kind; at : int; raw_lo : int; k : int }
(* [at] 0 and 1 probe at that consumer's next offset; otherwise at [raw_lo] *)

let kind_name = function Cache.Blocks -> "blocks" | Cache.Tuples -> "tuples"

let pp_op = function
  | Draw (c, kind, k) -> Fmt.str "draw(c%d,%s,%d)" c (kind_name kind) k
  | Store (i, cost) -> Fmt.str "store(%d,%g)" i cost
  | Find i -> Fmt.str "find(%d)" i
  | Store_run (lo, hi) -> Fmt.str "run(%d,%d)" lo hi
  | Invalidate -> "invalidate"

let pp_probe p =
  Fmt.str "probe(%s,%d,%d,%d)" (kind_name p.kind) p.at p.raw_lo p.k

let gen_steps =
  let open QCheck.Gen in
  let kind = oneofl [ Cache.Blocks; Cache.Tuples ] in
  let op =
    frequency
      [
        ( 4,
          map3
            (fun c kd k -> Draw (c, kd, k))
            (int_range 0 1) kind (int_range 1 12) );
        ( 4,
          map2
            (fun i c -> Store (i, c))
            (int_range 0 99) (float_range 0.001 0.05) );
        (2, map (fun i -> Find i) (int_range 0 99));
        ( 1,
          map2
            (fun lo n -> Store_run (lo, lo + n))
            (int_range 0 30) (int_range 1 20) );
        (2, return Invalidate);
      ]
  in
  let probe =
    map4
      (fun kind at raw_lo k -> { kind; at; raw_lo; k })
      kind (int_range 0 2) (int_range 0 40) (int_range 0 60)
  in
  list_size (int_range 1 40) (pair op probe)

let arb_steps =
  QCheck.make gen_steps ~print:(fun steps ->
      String.concat "; "
        (List.map (fun (o, p) -> pp_op o ^ " " ^ pp_probe p) steps))

(* One cache, the two consumers' next offsets per unit kind (consumer 1
   starts further along the prefix than consumer 0), and the blocks the
   draws touched: stores and finds pick among those, as a stage does. *)
type subject = {
  cache : Cache.t;
  cursors : (int * Cache.unit_kind, int) Hashtbl.t;
  mutable drawn : int array;
}

let memo_subject () =
  let cursors = Hashtbl.create 4 in
  List.iter
    (fun kind ->
      Hashtbl.replace cursors (0, kind) 0;
      Hashtbl.replace cursors (1, kind) 8)
    [ Cache.Blocks; Cache.Tuples ];
  (* a budget of ~6 of the relation's 1000-byte blocks, so stores evict *)
  { cache = Cache.create ~budget_mb:0.006 ~seed:3 (); cursors; drawn = [||] }

let drawn_block file s i =
  if s.drawn = [||] then i mod Heap_file.n_blocks file
  else s.drawn.(i mod Array.length s.drawn)

let apply file s = function
  | Draw (c, kind, k) ->
      let lo = Hashtbl.find s.cursors (c, kind) in
      let pop =
        match kind with
        | Cache.Blocks -> Heap_file.n_blocks file
        | Cache.Tuples -> Heap_file.n_tuples file
      in
      let k = Int.min k (pop - lo) in
      if k > 0 then begin
        let units = Cache.prefix_units s.cache ~file ~kind ~lo ~k in
        let bf = Heap_file.blocking_factor file in
        let block u =
          match kind with Cache.Blocks -> u | Cache.Tuples -> u / bf
        in
        s.drawn <- Array.append s.drawn (Array.of_list (List.map block units));
        Hashtbl.replace s.cursors (c, kind) (lo + k)
      end
  | Store (i, cost) ->
      let b = drawn_block file s i in
      Cache.store_block s.cache ~file b ~cost (Heap_file.block file b)
  | Find i -> ignore (Cache.find_block s.cache ~file (drawn_block file s i))
  | Store_run (lo, hi) ->
      let tuples =
        Array.init (hi - lo) (fun i ->
            (Heap_file.block file (i mod Heap_file.n_blocks file)).(0))
      in
      Cache.store_sorted_run s.cache ~file ~kind:Cache.Tuples ~lo ~hi
        ~key:[| 0 |] ~cost:0.02 tuples
  | Invalidate -> Cache.invalidate_relation s.cache file

let predict file s p =
  let lo =
    if p.at < 2 then Hashtbl.find s.cursors (p.at, p.kind) else p.raw_lo
  in
  Cache.predict_misses s.cache ~file ~kind:p.kind ~lo ~k:p.k

let warm_memo_equals_cold steps =
  let file = first_relation (Lazy.force selection) in
  let warm = memo_subject () in
  let answers =
    List.map
      (fun (op, p) ->
        apply file warm op;
        predict file warm p)
      steps
  in
  let ops = List.map fst steps in
  List.for_all
    (fun i ->
      let cold = memo_subject () in
      List.iteri (fun j op -> if j <= i then apply file cold op) ops;
      predict file cold (snd (List.nth steps i)) = List.nth answers i)
    (List.init (List.length steps) Fun.id)

let prop_warm_memo_equals_cold =
  QCheck.Test.make ~name:"warm predict_misses memo ≡ cold replay" ~count:150
    arb_steps warm_memo_equals_cold

let () =
  Alcotest.run "cache"
    [
      ( "identity",
        [
          Alcotest.test_case "cache-off deterministic" `Quick
            test_cache_off_deterministic;
          Alcotest.test_case "cache-on deterministic" `Quick
            test_cache_on_deterministic;
          Alcotest.test_case "invalidation equals cold" `Quick
            test_invalidation_equals_cold;
          QCheck_alcotest.to_alcotest prop_invalidation_equals_cold;
        ] );
      ( "reuse",
        [
          Alcotest.test_case "reuse reduces device reads" `Quick
            test_reuse_reduces_device_reads;
          Alcotest.test_case "unbiased under reuse" `Slow
            test_unbiased_under_reuse;
          Alcotest.test_case "CI coverage under reuse" `Slow
            test_ci_coverage_under_reuse;
        ] );
      ( "eviction",
        [
          Alcotest.test_case "tiny budget still exact" `Quick
            test_tiny_budget_still_exact_on_exhaustion;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "warm audited run reconciles" `Quick
            test_warm_audited_run_reconciles;
          Alcotest.test_case "cold run has no probe spend" `Quick
            test_cold_audited_run_has_no_probe_spend;
          Alcotest.test_case "cache_probe label routes" `Quick
            test_cache_probe_label_routes;
        ] );
      ( "stage_set",
        [
          Alcotest.test_case "record_stage validates" `Quick
            test_record_stage_validates;
          Alcotest.test_case "record then draw stays disjoint" `Quick
            test_record_stage_then_draw_disjoint;
        ] );
      ( "prediction",
        [
          Alcotest.test_case "predict_misses is read-only" `Quick
            test_predict_misses_read_only;
          QCheck_alcotest.to_alcotest prop_warm_memo_equals_cold;
        ] );
    ]
