(* taqp_parallel: the 1-vs-N bit-identity contract of
   docs/PARALLELISM.md, plus the building blocks it rests on.

   The load-bearing suite is "identity": a full time-constrained run at
   domains ∈ {1,2,4} must produce the SAME report fingerprint, the SAME
   trace event stream, and the SAME budget-ledger reconciliation as the
   sequential engine — for the three standard fixtures × both physical
   paths × 4 seeds, with the parallel threshold forced to 1 so every
   region actually fans out. CI sweeps extra cells via TAQP_DOMAINS and
   TAQP_PHYSICAL. The qcheck suites pin that Prng stream splits are
   deterministic and non-overlapping. *)

module Taqp = Taqp_core.Taqp
module Config = Taqp_core.Config
module Staged = Taqp_core.Staged
module Report = Taqp_core.Report
module Aggregate = Taqp_core.Aggregate
module Executor = Taqp_core.Executor
module Clock = Taqp_storage.Clock
module Device = Taqp_storage.Device
module Cost_params = Taqp_storage.Cost_params
module Io_stats = Taqp_storage.Io_stats
module Paper_setup = Taqp_workload.Paper_setup
module Prng = Taqp_rng.Prng
module Sample = Taqp_rng.Sample
module Sink = Taqp_obs.Sink
module Tracer = Taqp_obs.Tracer
module Event = Taqp_obs.Event
module Ledger = Taqp_audit.Ledger
module Pool = Taqp_parallel.Pool
module Shard = Taqp_parallel.Shard
module Cache = Taqp_cache.Cache
module Plan = Taqp_sampling.Plan

let checkb = Fixtures.checkb
let checki = Fixtures.checki
let checkf = Fixtures.checkf
let checks = Alcotest.check Alcotest.string

let seeds = [ 3; 5; 11; 23 ]

let physicals =
  match Sys.getenv_opt "TAQP_PHYSICAL" with
  | Some "sort_merge" -> [ Config.Sort_merge ]
  | Some "hash" -> [ Config.Hash ]
  | Some other -> failwith ("TAQP_PHYSICAL: unknown path " ^ other)
  | None -> [ Config.Sort_merge; Config.Hash ]

let physical_name = function
  | Config.Sort_merge -> "sort_merge"
  | Config.Hash -> "hash"
  | Config.Adaptive -> "adaptive"

let fingerprint (r : Report.t) =
  Fmt.str "%.17g|%.17g|%.17g|%.17g|%d|%b|%a" r.Report.estimate
    r.Report.variance r.Report.confidence.Taqp_stats.Confidence.half_width
    r.Report.elapsed r.Report.stages_completed r.Report.degraded Io_stats.pp
    r.Report.io

(* ------------------------------------------------------------------ *)
(* The full observable surface of one run: report fingerprint, trace
   stream, ledger reconciliation. Jittered device (the default params),
   so the test also covers the jitter-draw ordering. *)

let full_run ~domains ~physical ~seed ~quota (wl : Paper_setup.t) =
  let config = { Fixtures.observe_config with Config.physical; domains } in
  let sink, events = Sink.memory () in
  let rng = Prng.create seed in
  let clock = Clock.create_virtual () in
  let tracer = Tracer.make ~now:(fun () -> Clock.now clock) ~sink in
  let device =
    Device.create ~params:Cost_params.default ~jitter_rng:(Prng.split rng)
      ~tracer clock
  in
  let ledger = Ledger.create () in
  Device.set_spend_listener device (Some (Ledger.on_spend ledger));
  let report =
    Executor.run ~config ~aggregate:Aggregate.Count ~device
      ~catalog:wl.Paper_setup.catalog ~rng ~quota wl.Paper_setup.query
  in
  Tracer.close tracer;
  ( fingerprint report,
    events (),
    Ledger.reconcile ~quota ledger,
    report.Report.stages_completed )

let check_same_run ~ctx (fp1, tr1, rec1, _) (fpn, trn, recn, _) =
  checks (ctx ^ ": report fingerprint") fp1 fpn;
  checki (ctx ^ ": trace length") (List.length tr1) (List.length trn);
  checkb (ctx ^ ": trace stream") true
    (List.for_all2 (fun (a : Event.t) b -> a = b) tr1 trn);
  checkf (ctx ^ ": ledger charged") rec1.Ledger.r_charged recn.Ledger.r_charged;
  checkf
    (ctx ^ ": ledger unattributed")
    rec1.Ledger.r_unattributed recn.Ledger.r_unattributed;
  checkb (ctx ^ ": ledger exact") rec1.Ledger.r_exact recn.Ledger.r_exact;
  List.iter2
    (fun (c1, v1) (cn, vn) ->
      checks
        (ctx ^ ": ledger category order")
        (Ledger.category_name c1) (Ledger.category_name cn);
      checkf (ctx ^ ": ledger " ^ Ledger.category_name c1) v1 vn)
    rec1.Ledger.r_by_category recn.Ledger.r_by_category

(* The three standard fixtures, sized so several stages run and the
   binary paths accumulate real pairing/probe work. The matrix asserts
   that every cell runs a stage: a run that stops after planning
   compares nothing. *)
let matrix_fixtures seed =
  [
    ("join", Paper_setup.join ~spec:(Fixtures.spec ()) ~seed (), 2.0);
    ( "intersection",
      Paper_setup.intersection ~spec:(Fixtures.spec ()) ~overlap:120 ~seed (),
      2.0 );
    ( "three_way_join",
      Paper_setup.three_way_join
        ~spec:(Fixtures.spec ~n_tuples:200 ())
        ~group_size:3 ~seed (),
      30.0 );
  ]

let test_identity_matrix () =
  (* Force every parallel region on, whatever the delta size. *)
  Staged.set_parallel_threshold 1;
  Fun.protect
    ~finally:(fun () -> Staged.set_parallel_threshold 2048)
    (fun () ->
      List.iter
        (fun seed ->
          List.iter
            (fun physical ->
              List.iter
                (fun (fname, wl, quota) ->
                  let ((_, _, _, stages) as base) =
                    full_run ~domains:1 ~physical ~seed ~quota wl
                  in
                  checkb
                    (Fmt.str "%s/%s/seed=%d: runs a stage" fname
                       (physical_name physical) seed)
                    true (stages > 0);
                  List.iter
                    (fun domains ->
                      if domains > 1 then
                        let ctx =
                          Fmt.str "%s/%s/seed=%d/domains=%d" fname
                            (physical_name physical) seed domains
                        in
                        check_same_run ~ctx base
                          (full_run ~domains ~physical ~seed ~quota wl))
                    Fixtures.domains_matrix)
                (matrix_fixtures seed))
            physicals)
        seeds)

(* Jobs in sequence on one device, one tracer and one shared cache:
   later jobs hit the blocks, sorted runs and hash indexes earlier jobs
   stored, and a tiny budget makes the store evict between probes. The
   parallel regions then interleave with cache probes, which are
   charges. *)
let cached_jobs ~domains ~physical ~fulfillment ~budget_mb ~quota
    (wl : Paper_setup.t) =
  let config =
    {
      Fixtures.observe_config with
      Config.physical;
      domains;
      plan = { Fixtures.observe_config.Config.plan with Plan.fulfillment };
    }
  in
  let cache = Cache.create ~budget_mb ~seed:17 () in
  let sink, events = Sink.memory () in
  let rng = Prng.create 29 in
  let clock = Clock.create_virtual () in
  let tracer = Tracer.make ~now:(fun () -> Clock.now clock) ~sink in
  let device =
    Device.create ~params:Cost_params.default ~jitter_rng:(Prng.split rng)
      ~tracer clock
  in
  let fingerprints =
    List.init 3 (fun _ ->
        fingerprint
          (Executor.run ~config ~aggregate:Aggregate.Count ~cache ~device
             ~catalog:wl.Paper_setup.catalog ~rng:(Prng.split rng) ~quota
             wl.Paper_setup.query))
  in
  Tracer.close tracer;
  (String.concat "\n" fingerprints, events (), Cache.stats cache)

(* The matrix fixtures at quotas where every job of three in turn runs
   stages. *)
let cached_fixtures () =
  List.map2
    (fun (name, wl, _) quota -> (name, wl, quota))
    (matrix_fixtures 3) [ 8.0; 4.0; 30.0 ]

let test_identity_cached () =
  Staged.set_parallel_threshold 1;
  Fun.protect
    ~finally:(fun () -> Staged.set_parallel_threshold 2048)
    (fun () ->
      List.iter
        (fun (fname, wl, quota) ->
          List.iter
            (fun physical ->
              List.iter
                (fun fulfillment ->
                  List.iter
                    (fun (budget, budget_mb) ->
                      let run domains =
                        cached_jobs ~domains ~physical ~fulfillment ~budget_mb
                          ~quota wl
                      in
                      let fp1, tr1, st1 = run 1 in
                      (* the cells exercise what they are named for *)
                      if budget = "tiny" then
                        checkb (fname ^ ": tiny budget evicts") true
                          (st1.Cache.evictions > 0)
                      else
                        checkb (fname ^ ": roomy budget hits") true
                          (st1.Cache.hits > 0);
                      List.iter
                        (fun domains ->
                          if domains > 1 then begin
                            let ctx =
                              Fmt.str "%s/%s/%s/%s/domains=%d" fname
                                (physical_name physical)
                                (if fulfillment = Plan.Full then "full"
                                 else "partial")
                                budget domains
                            in
                            let fpn, trn, stn = run domains in
                            checks (ctx ^ ": report fingerprints") fp1 fpn;
                            checki (ctx ^ ": trace length") (List.length tr1)
                              (List.length trn);
                            checkb (ctx ^ ": trace stream") true
                              (List.for_all2 (fun (a : Event.t) b -> a = b) tr1
                                 trn);
                            checkb (ctx ^ ": cache stats") true (st1 = stn)
                          end)
                        Fixtures.domains_matrix)
                    [ ("tiny", 0.005); ("roomy", 8.0) ])
                [ Plan.Full; Plan.Partial ])
            [ Config.Sort_merge; Config.Hash; Config.Adaptive ])
        (cached_fixtures ()))

let test_identity_sharded_skew () =
  (* The shared sharded fixture, maximally skewed: qualifying density
     concentrated in the last shard. *)
  Staged.set_parallel_threshold 1;
  Fun.protect
    ~finally:(fun () -> Staged.set_parallel_threshold 2048)
    (fun () ->
      List.iter
        (fun skew ->
          let wl = Fixtures.sharded ~shards:4 ~skew ~seed:9 () in
          let base =
            full_run ~domains:1 ~physical:Config.Sort_merge ~seed:9 ~quota:1.5
              wl
          in
          List.iter
            (fun domains ->
              if domains > 1 then
                check_same_run
                  ~ctx:(Fmt.str "sharded/skew=%g/domains=%d" skew domains)
                  base
                  (full_run ~domains ~physical:Config.Sort_merge ~seed:9
                     ~quota:1.5 wl))
            Fixtures.domains_matrix)
        [ 1.0; 3.0 ])

let test_cli_env_default () =
  (* Config.default.domains mirrors TAQP_DOMAINS (parsed in-process at
     startup); whatever it is, it is >= 1 and validates. *)
  checkb "default domains >= 1" true (Config.default.Config.domains >= 1);
  Config.validate Config.default;
  (match Sys.getenv_opt "TAQP_DOMAINS" with
  | Some s when int_of_string_opt (String.trim s) <> None ->
      let d = int_of_string (String.trim s) in
      if d >= 1 then checki "TAQP_DOMAINS honored" d Config.default.Config.domains
  | _ -> ());
  Alcotest.check_raises "domains = 0 rejected"
    (Invalid_argument "Config: domains < 1") (fun () ->
      Config.validate { Config.default with Config.domains = 0 })

(* ------------------------------------------------------------------ *)
(* Shard partitioning *)

let test_shard_ranges () =
  let rs = Shard.ranges ~n:10 ~k:4 in
  checki "4 ranges" 4 (Array.length rs);
  checki "covers 0" 0 rs.(0).Shard.lo;
  checki "covers n" 10 rs.(3).Shard.hi;
  Array.iteri
    (fun i r ->
      if i > 0 then checki "contiguous" rs.(i - 1).Shard.hi r.Shard.lo)
    rs;
  let sizes = Array.map Shard.size rs in
  checki "balanced max" 3 (Array.fold_left Int.max 0 sizes);
  checki "balanced min" 2 (Array.fold_left Int.min 10 sizes);
  checki "k > n clamps" 3 (Array.length (Shard.ranges ~n:3 ~k:8));
  checki "n = 0 empty" 0 (Array.length (Shard.ranges ~n:0 ~k:4))

(* ------------------------------------------------------------------ *)
(* Pool *)

let test_pool_order_and_errors () =
  let pool = Pool.create ~domains:3 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let tasks = Array.init 100 (fun i () -> i * i) in
      let out = Pool.run pool tasks in
      Array.iteri (fun i v -> checki "task order" (i * i) v) out;
      (* lowest-index exception wins, regardless of which domain ran
         what *)
      let boom i = Failure (Fmt.str "boom %d" i) in
      (try
         ignore
           (Pool.run pool
              (Array.init 64 (fun i () ->
                   if i = 7 || i = 41 then raise (boom i) else i)));
         Alcotest.fail "expected an exception"
       with Failure m -> checks "lowest index re-raised" "boom 7" m);
      (* the pool survives a failed batch *)
      checki "pool still works" 2016
        (Array.fold_left ( + ) 0 (Pool.run pool (Array.init 64 (fun i () -> i))));
      checki "empty batch" 0 (Array.length (Pool.run pool [||])))

let test_pool_single_domain () =
  let pool = Pool.create ~domains:1 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      checki "size" 1 (Pool.size pool);
      let out = Pool.run pool (Array.init 10 (fun i () -> i + 1)) in
      checki "sequential degenerate" 10 out.(9))

let test_pool_global_cache () =
  let p1 = Pool.global ~domains:2 in
  let p2 = Pool.global ~domains:2 in
  checkb "same pool cached" true (p1 == p2);
  let p3 = Pool.global ~domains:3 in
  checkb "resized pool is fresh" true (p3 != p2);
  checki "resized size" 3 (Pool.size p3)

(* ------------------------------------------------------------------ *)
(* Pool lifecycle: the documented create/shutdown contract *)

let test_pool_shutdown () =
  let pool = Pool.create ~domains:2 in
  checki "ran before shutdown" 3
    (Array.fold_left ( + ) 0 (Pool.run pool (Array.init 3 (fun _ () -> 1))));
  Pool.shutdown pool;
  Pool.shutdown pool;
  match Pool.run pool [| (fun () -> 0) |] with
  | _ -> Alcotest.fail "expected Invalid_argument after shutdown"
  | exception Invalid_argument _ -> ()

let test_pool_create_rejects () =
  match Pool.create ~domains:0 with
  | _ -> Alcotest.fail "expected Invalid_argument for domains = 0"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Prng stream splitting: deterministic and non-overlapping *)

let prop_split_deterministic =
  QCheck.Test.make ~name:"Prng.split streams are deterministic" ~count:50
    QCheck.(pair (int_range 0 1000000) (int_range 1 8))
    (fun (seed, shards) ->
      let streams_of () =
        let root = Prng.create seed in
        List.init shards (fun _ -> Prng.split root)
      in
      let a = streams_of () and b = streams_of () in
      List.for_all2
        (fun sa sb ->
          List.init 64 (fun _ -> Prng.bits64 sa)
          = List.init 64 (fun _ -> Prng.bits64 sb))
        a b)

let prop_split_non_overlapping =
  QCheck.Test.make
    ~name:"per-shard split streams do not overlap" ~count:20
    QCheck.(pair (int_range 0 1000000) (int_range 2 8))
    (fun (seed, shards) ->
      (* 64-bit draws from distinct xoshiro streams collide with
         probability ~ (k*h)^2 / 2^64 — any repeat across shard streams
         would mean the splits share stream positions. *)
      let root = Prng.create seed in
      let streams = List.init shards (fun _ -> Prng.split root) in
      let horizon = 512 in
      let seen = Hashtbl.create (shards * horizon) in
      List.for_all
        (fun s ->
          let ok = ref true in
          for _ = 1 to horizon do
            let v = Prng.bits64 s in
            if Hashtbl.mem seen v then ok := false
            else Hashtbl.add seen v ()
          done;
          !ok)
        streams)

let prop_split_draws_disjoint_blocks =
  QCheck.Test.make
    ~name:"split streams drive disjoint without-replacement draws"
    ~count:30
    QCheck.(int_range 0 1000000)
    (fun seed ->
      (* The engine's per-shard usage: each shard samples its own block
         range with its own split stream; the global draw sets stay
         disjoint because the ranges are. *)
      let root = Prng.create seed in
      let ranges = Shard.ranges ~n:200 ~k:4 in
      let all = Hashtbl.create 64 in
      Array.for_all
        (fun (r : Shard.range) ->
          let s = Prng.split root in
          let units = Sample.without_replacement s ~k:10 ~n:(Shard.size r) in
          List.for_all
            (fun u ->
              let g = r.Shard.lo + u in
              if Hashtbl.mem all g then false
              else begin
                Hashtbl.add all g ();
                true
              end)
            units)
        ranges)

(* ------------------------------------------------------------------ *)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "parallel"
    [
      ( "identity",
        [
          Alcotest.test_case "1-vs-N bit-identity matrix" `Slow
            test_identity_matrix;
          Alcotest.test_case "1-vs-N identity, shared cache" `Slow
            test_identity_cached;
          Alcotest.test_case "sharded fixture, skewed density" `Quick
            test_identity_sharded_skew;
          Alcotest.test_case "TAQP_DOMAINS config default" `Quick
            test_cli_env_default;
        ] );
      ( "shard",
        [
          Alcotest.test_case "ranges partition [0,n)" `Quick test_shard_ranges;
        ] );
      ( "pool",
        [
          Alcotest.test_case "task order and lowest-index raise" `Quick
            test_pool_order_and_errors;
          Alcotest.test_case "domains=1 degenerates" `Quick
            test_pool_single_domain;
          Alcotest.test_case "global pool cached by size" `Quick
            test_pool_global_cache;
        ] );
      (* Alcotest pads the suite column to the longest suite name and
         cuts long case names to fit 80 columns, so this 9-character
         label also keeps the printed name of the long prng case below
         as it was while the (deleted) "estimator" group set the width. *)
      ( "lifecycle",
        [
          Alcotest.test_case "shutdown is idempotent, run then raises"
            `Quick test_pool_shutdown;
          Alcotest.test_case "create rejects domains < 1" `Quick
            test_pool_create_rejects;
        ] );
      ( "prng",
        [
          qc prop_split_deterministic;
          qc prop_split_non_overlapping;
          qc prop_split_draws_disjoint_blocks;
        ] );
    ]
