open Taqp_data
module Clock = Taqp_storage.Clock
module Cost_params = Taqp_storage.Cost_params
module Device = Taqp_storage.Device
module Heap_file = Taqp_storage.Heap_file
module Catalog = Taqp_storage.Catalog
module Io_stats = Taqp_storage.Io_stats

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf eps = Alcotest.check (Alcotest.float eps)

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)

let test_clock_virtual () =
  let c = Clock.create_virtual () in
  checkb "virtual" true (Clock.is_virtual c);
  checkf 1e-12 "starts at 0" 0.0 (Clock.now c);
  Clock.charge c 1.5;
  Clock.charge c 0.25;
  checkf 1e-12 "advances by charges" 1.75 (Clock.now c);
  Alcotest.check_raises "negative" (Invalid_argument "Clock.charge: negative charge")
    (fun () -> Clock.charge c (-1.0))

let test_clock_deadline_abort () =
  let c = Clock.create_virtual () in
  Clock.arm c ~mode:`Abort ~at:1.0;
  Clock.charge c 0.9;
  checkb "not yet expired" false (Clock.expired c);
  (match Clock.charge c 0.5 with
  | () -> Alcotest.fail "expected Deadline_exceeded"
  | exception Clock.Deadline_exceeded { now; deadline } ->
      checkf 1e-12 "interrupt at the deadline" 1.0 now;
      checkf 1e-12 "deadline" 1.0 deadline);
  (* The clock stopped exactly at the deadline, mid-operation. *)
  checkf 1e-12 "clamped" 1.0 (Clock.now c)

let test_clock_deadline_observe () =
  let c = Clock.create_virtual () in
  Clock.arm c ~mode:`Observe ~at:1.0;
  Clock.charge c 5.0;
  checkb "expired but not raised" true (Clock.expired c);
  Alcotest.check
    Alcotest.(option (float 1e-9))
    "remaining negative" (Some (-4.0)) (Clock.remaining c);
  Clock.disarm c;
  checkb "disarmed" false (Clock.expired c)

let test_clock_sleep_until () =
  let c = Clock.create_virtual () in
  Clock.sleep_until c 3.0;
  checkf 1e-12 "advanced" 3.0 (Clock.now c);
  Clock.sleep_until c 1.0;
  checkf 1e-12 "no backwards travel" 3.0 (Clock.now c)

(* A charge that lands exactly on the deadline is NOT an overrun: the
   interrupt only fires when the deadline is crossed. *)
let test_clock_deadline_exact_landing () =
  let c = Clock.create_virtual () in
  Clock.arm c ~mode:`Abort ~at:1.0;
  Clock.charge c 1.0;
  checkf 1e-12 "landed on the deadline" 1.0 (Clock.now c);
  checkb "not expired at the boundary" false (Clock.expired c);
  (* ...but the very next positive charge crosses it. *)
  (match Clock.charge c 1e-9 with
  | () -> Alcotest.fail "expected Deadline_exceeded"
  | exception Clock.Deadline_exceeded { now; _ } ->
      checkf 1e-12 "still clamped" 1.0 now);
  checkf 1e-12 "no time past the deadline" 1.0 (Clock.now c)

(* Observe mode must keep honest books on the overspend: charges keep
   accumulating past the deadline and [remaining] tracks the (negative)
   balance exactly. *)
let test_clock_observe_overspend_accounting () =
  let c = Clock.create_virtual () in
  Clock.arm c ~mode:`Observe ~at:1.0;
  Clock.charge c 0.75;
  Clock.charge c 0.75;
  Clock.charge c 0.5;
  checkf 1e-12 "all charges accumulated" 2.0 (Clock.now c);
  checkb "expired" true (Clock.expired c);
  Alcotest.check
    Alcotest.(option (float 1e-9))
    "overspend = 1.0s" (Some (-1.0)) (Clock.remaining c)

(* sleep_until with an armed Abort deadline: the sleeper is woken at
   the deadline, and the attached tracer records the abort instant
   stamped at exactly the deadline time. *)
let test_clock_sleep_until_abort_traced () =
  let c = Clock.create_virtual () in
  let sink, events = Taqp_obs.Sink.memory () in
  Clock.set_tracer c (Taqp_obs.Tracer.make ~now:(fun () -> Clock.now c) ~sink);
  Clock.charge c 0.5;
  Clock.arm c ~mode:`Abort ~at:2.0;
  (match Clock.sleep_until c 5.0 with
  | () -> Alcotest.fail "expected Deadline_exceeded"
  | exception Clock.Deadline_exceeded { now; deadline } ->
      checkf 1e-12 "woken at the deadline" 2.0 now;
      checkf 1e-12 "deadline" 2.0 deadline);
  checkf 1e-12 "clock stopped at the deadline" 2.0 (Clock.now c);
  let abort_events =
    List.filter
      (fun (e : Taqp_obs.Event.t) -> e.name = "deadline.abort")
      (events ())
  in
  checki "one abort event" 1 (List.length abort_events);
  let e = List.hd abort_events in
  checkf 1e-12 "abort stamped at the deadline" 2.0 e.Taqp_obs.Event.ts;
  Alcotest.(check string) "clock category" "clock" e.Taqp_obs.Event.cat

(* The recovery contract ({!Clock.restore} / {!Clock.restore_deadline}):
   both are silent — no trace events, no deadline checks — and a
   resumed run re-arms at the ORIGINAL absolute deadline recorded in
   the journal, never at [now + quota]: downtime is lost quota, not
   extra time. *)
let test_clock_restore_silent_rearm () =
  let c = Clock.create_virtual () in
  let sink, events = Taqp_obs.Sink.memory () in
  Clock.set_tracer c (Taqp_obs.Tracer.make ~now:(fun () -> Clock.now c) ~sink);
  Clock.restore c ~now:7.5;
  checkf 1e-12 "restored forward" 7.5 (Clock.now c);
  Clock.restore c ~now:3.25;
  checkf 1e-12 "restored backward" 3.25 (Clock.now c);
  Clock.restore_deadline c ~mode:`Abort ~at:4.0;
  checkb "armed at the original absolute instant" true
    (Clock.armed c = Some (`Abort, 4.0));
  checki "restore and restore_deadline emit no events" 0
    (List.length (events ()));
  (* The restored deadline is live: it interrupts exactly like one set
     through [arm]... *)
  (match Clock.charge c 2.0 with
  | () -> Alcotest.fail "expected Deadline_exceeded"
  | exception Clock.Deadline_exceeded { deadline; _ } ->
      checkf 1e-12 "fires at the restored absolute deadline" 4.0 deadline);
  (* ...and the only difference from [arm] is the traced instant. *)
  Clock.arm c ~mode:`Observe ~at:9.0;
  checkb "arm emits deadline.armed" true
    (List.exists
       (fun (e : Taqp_obs.Event.t) -> e.Taqp_obs.Event.name = "deadline.armed")
       (events ()))

(* Re-arming REPLACES the previous deadline — the contract the
   multi-query scheduler leans on when it switches the shared clock
   between jobs at stage boundaries. *)
let test_clock_rearm_replaces () =
  let c = Clock.create_virtual () in
  Clock.arm c ~mode:`Abort ~at:1.0;
  checkb "armed (abort, 1.0)" true (Clock.armed c = Some (`Abort, 1.0));
  (* Another job's later deadline takes over: the old 1.0 deadline must
     not fire. *)
  Clock.arm c ~mode:`Abort ~at:3.0;
  checkb "re-armed (abort, 3.0)" true (Clock.armed c = Some (`Abort, 3.0));
  Clock.charge c 2.0;
  checkf 1e-12 "charge crossed the replaced deadline freely" 2.0 (Clock.now c);
  (* Replacement can also change mode. *)
  Clock.arm c ~mode:`Observe ~at:2.5;
  checkb "mode replaced" true (Clock.armed c = Some (`Observe, 2.5));
  Clock.charge c 1.0;
  checkf 1e-12 "observe mode never interrupts" 3.0 (Clock.now c)

(* A finished job disarms; a later sleep_until must never raise on the
   dead job's behalf, even when the sleep crosses the old deadline. *)
let test_clock_disarm_kills_stale_deadline () =
  let c = Clock.create_virtual () in
  Clock.arm c ~mode:`Abort ~at:1.0;
  Clock.charge c 0.5;
  Clock.disarm c;
  checkb "disarmed" true (Clock.armed c = None);
  Clock.sleep_until c 10.0;
  checkf 1e-12 "slept through the stale deadline" 10.0 (Clock.now c);
  Clock.charge c 1.0;
  checkf 1e-12 "charges unconstrained" 11.0 (Clock.now c)

(* An expired-but-disarmed deadline (job finished after overspending in
   observe mode) must not leak into the next job's run either. *)
let test_clock_rearm_after_expiry () =
  let c = Clock.create_virtual () in
  Clock.arm c ~mode:`Observe ~at:1.0;
  Clock.charge c 2.0;
  checkb "expired" true (Clock.expired c);
  Clock.arm c ~mode:`Abort ~at:5.0;
  checkb "fresh deadline" true (Clock.armed c = Some (`Abort, 5.0));
  checkb "no longer expired" false (Clock.expired c);
  (match Clock.sleep_until c 4.0 with
  | () -> ()
  | exception Clock.Deadline_exceeded _ ->
      Alcotest.fail "in-window sleep must not fire the deadline");
  checkf 1e-12 "slept normally" 4.0 (Clock.now c)

let test_clock_wall () =
  let c = Clock.create_wall () in
  checkb "not virtual" false (Clock.is_virtual c);
  let t0 = Clock.now c in
  Clock.charge c 100.0;
  (* charging a wall clock does not jump time *)
  checkb "wall time unaffected by charge" true (Clock.now c -. t0 < 1.0)

(* ------------------------------------------------------------------ *)
(* Cost params                                                         *)

let test_cost_params () =
  let p = Cost_params.default in
  let doubled = Cost_params.scale 2.0 p in
  checkf 1e-12 "scaled" (2.0 *. p.Cost_params.block_read)
    doubled.Cost_params.block_read;
  checkf 1e-12 "jitter unscaled" p.Cost_params.jitter_sigma
    doubled.Cost_params.jitter_sigma;
  checkf 1e-12 "no_jitter" 0.0 (Cost_params.no_jitter p).Cost_params.jitter_sigma;
  checkb "fast is faster" true
    (Cost_params.fast.Cost_params.block_read < p.Cost_params.block_read)

(* ------------------------------------------------------------------ *)
(* Device                                                              *)

let test_device_charges_exact () =
  let p = Cost_params.no_jitter Cost_params.default in
  let clock = Clock.create_virtual () in
  let d = Device.create ~params:p clock in
  Device.read_block d;
  Device.read_block d;
  Device.check_tuples d ~n:10 ~comparisons:2;
  Device.write_pages d ~n:3;
  let expected =
    (2.0 *. p.Cost_params.block_read)
    +. (10.0
       *. (p.Cost_params.tuple_check_base +. (2.0 *. p.Cost_params.per_comparison))
       )
    +. (3.0 *. p.Cost_params.page_write)
  in
  checkf 1e-9 "exact charges" expected (Clock.now clock);
  let stats = Device.stats d in
  checki "blocks counted" 2 (Io_stats.blocks_read stats);
  checki "tuples counted" 10 (Io_stats.tuples_checked stats);
  checki "pages counted" 3 (Io_stats.pages_written stats)

let test_device_sort_cost () =
  let p = Cost_params.no_jitter Cost_params.default in
  let clock = Clock.create_virtual () in
  let d = Device.create ~params:p clock in
  Device.sort d ~n:1024;
  let expected =
    (p.Cost_params.sort_per_nlogn *. 1024.0 *. 10.0)
    +. (p.Cost_params.sort_per_tuple *. 1024.0)
  in
  checkf 1e-9 "n log n cost" expected (Clock.now clock)

let test_device_stage_overhead_counts_stage () =
  let clock = Clock.create_virtual () in
  let d = Device.create ~params:(Cost_params.no_jitter Cost_params.default) clock in
  Device.stage_overhead d;
  Device.stage_overhead d;
  checki "stages" 2 (Io_stats.stages (Device.stats d))

let test_device_jitter_mean () =
  let p = { Cost_params.default with Cost_params.jitter_sigma = 0.2 } in
  let clock = Clock.create_virtual () in
  let d = Device.create ~params:p ~jitter_rng:(Taqp_rng.Prng.create 3) clock in
  for _ = 1 to 5000 do
    Device.read_block d
  done;
  let per_block = Clock.now clock /. 5000.0 in
  checkb "jittered mean near nominal" true
    (Float.abs (per_block -. p.Cost_params.block_read)
    < 0.05 *. p.Cost_params.block_read)

let test_io_stats_diff () =
  let a = Io_stats.create () in
  for _ = 1 to 10 do
    Io_stats.incr_blocks_read a
  done;
  let b = Io_stats.copy a in
  for _ = 1 to 15 do
    Io_stats.incr_blocks_read b
  done;
  Io_stats.incr_stages b;
  Io_stats.incr_stages b;
  let d = Io_stats.diff b a in
  checki "blocks diff" 15 (Io_stats.blocks_read d);
  checki "stages diff" 2 (Io_stats.stages d);
  checki "copy detached from original" 10 (Io_stats.blocks_read a);
  Io_stats.reset b;
  checki "reset" 0 (Io_stats.blocks_read b)

(* The io.* counters registered by a device's stats and the Io_stats
   accessors must be the same cells — single source of truth. *)
let test_io_stats_metrics_shared () =
  let metrics = Taqp_obs.Metrics.create () in
  let clock = Clock.create_virtual () in
  let d =
    Device.create ~params:(Cost_params.no_jitter Cost_params.default) ~metrics
      clock
  in
  Device.read_block d;
  Device.read_block d;
  Device.read_block d;
  let c = Taqp_obs.Metrics.counter metrics "io.blocks_read" in
  checki "metrics counter sees device reads" 3 (Taqp_obs.Metrics.Counter.value c);
  checki "io_stats agrees" 3 (Io_stats.blocks_read (Device.stats d))

(* ------------------------------------------------------------------ *)
(* Heap file                                                           *)

let schema =
  Schema.make
    [ { Schema.name = "id"; ty = Value.Tint }; { Schema.name = "v"; ty = Value.Tint } ]

let tuples n = List.init n (fun i -> Tuple.of_list [ Value.Int i; Value.Int (i * i) ])

let test_heap_packing () =
  (* 1024-byte blocks, 200-byte tuples -> 5 per block. *)
  let f = Heap_file.create ~schema (tuples 23) in
  checki "tuples" 23 (Heap_file.n_tuples f);
  checki "blocking factor" 5 (Heap_file.blocking_factor f);
  checki "blocks" 5 (Heap_file.n_blocks f);
  checki "full block" 5 (Array.length (Heap_file.block f 0));
  checki "short last block" 3 (Array.length (Heap_file.block f 4));
  checki "pages_for" 3 (Heap_file.pages_for f 11);
  checkb "tuples padded to slot size" true
    (Tuple.byte_size (Heap_file.block f 0).(0) = 200)

let test_heap_order_preserved () =
  let f = Heap_file.create ~schema (tuples 12) in
  let flat = Heap_file.to_list f in
  checki "roundtrip count" 12 (List.length flat);
  List.iteri
    (fun i t ->
      checkb "order" true (Value.equal (Tuple.get t 0) (Value.Int i)))
    flat

let test_heap_fold_iter () =
  let f = Heap_file.create ~schema (tuples 7) in
  let count = ref 0 in
  Heap_file.iter (fun _ -> incr count) f;
  checki "iter visits all" 7 !count;
  let sum =
    Heap_file.fold
      (fun acc t ->
        match Value.to_int (Tuple.get t 0) with Some v -> acc + v | None -> acc)
      0 f
  in
  checki "fold" 21 sum

let test_heap_errors () =
  checkb "arity mismatch" true
    (match Heap_file.create ~schema [ Tuple.of_list [ Value.Int 1 ] ] with
    | _ -> false
    | exception Heap_file.Storage_error _ -> true);
  checkb "type mismatch" true
    (match
       Heap_file.create ~schema
         [ Tuple.of_list [ Value.String "x"; Value.Int 1 ] ]
     with
    | _ -> false
    | exception Heap_file.Storage_error _ -> true);
  checkb "oversized tuple" true
    (match
       Heap_file.create ~tuple_bytes:10 ~schema
         [ Tuple.of_list [ Value.Int 1; Value.Int 2 ] ]
     with
    | _ -> false
    | exception Heap_file.Storage_error _ -> true);
  let f = Heap_file.create ~schema (tuples 5) in
  Alcotest.check_raises "bad block index"
    (Invalid_argument "Heap_file.block: index out of range") (fun () ->
      ignore (Heap_file.block f 99))

let test_heap_read_block_charges () =
  let clock = Clock.create_virtual () in
  let d = Device.create ~params:(Cost_params.no_jitter Cost_params.default) clock in
  let f = Heap_file.create ~schema (tuples 10) in
  ignore (Heap_file.read_block d f 0);
  checki "one read" 1 (Io_stats.blocks_read (Device.stats d));
  checkf 1e-9 "charged" Cost_params.default.Cost_params.block_read (Clock.now clock)

(* Row [b * blocking_factor + j] is block [b]'s [j]th tuple. A column
   exists only while every value of its attribute is an [Int]: a float,
   string or bool attribute has none, and one null in an int attribute
   takes its column away. *)
let test_heap_int_column () =
  let mixed =
    Schema.make
      [
        { Schema.name = "id"; ty = Value.Tint };
        { Schema.name = "f"; ty = Value.Tfloat };
        { Schema.name = "s"; ty = Value.Tstring };
        { Schema.name = "b"; ty = Value.Tbool };
        { Schema.name = "n"; ty = Value.Tint };
      ]
  in
  let n = 23 in
  let values i =
    [
      Value.Int
        (match i with 3 -> min_int | 4 -> max_int | _ -> (i * 7919) - 50);
      Value.Float (float_of_int i);
      Value.String "x";
      Value.Bool (i mod 2 = 0);
      (if i = 17 then Value.Null else Value.Int i);
    ]
  in
  let f =
    Heap_file.create ~tuple_bytes:100 ~schema:mixed
      (List.init n (fun i -> Tuple.of_list (values i)))
  in
  let bf = Heap_file.blocking_factor f in
  match Heap_file.int_column f 0 with
  | None -> Alcotest.fail "an all-int attribute has a column"
  | Some col ->
      checki "one int per tuple" n (Array.length col);
      for b = 0 to Heap_file.n_blocks f - 1 do
        Array.iteri
          (fun j t ->
            checkb "row value" true
              (Value.equal (Tuple.get t 0) (Value.Int col.((b * bf) + j))))
          (Heap_file.block f b)
      done;
      checkb "extremes kept" true (col.(3) = min_int && col.(4) = max_int);
      checkb "the same array on a second call" true
        (match Heap_file.int_column f 0 with
        | Some c -> c == col
        | None -> false);
      List.iter
        (fun (name, i) ->
          checkb (name ^ ": no column") true (Heap_file.int_column f i = None))
        [ ("float", 1); ("string", 2); ("bool", 3); ("int with a null", 4) ];
      Alcotest.check_raises "bad position"
        (Invalid_argument "Heap_file.int_column: attribute out of range")
        (fun () -> ignore (Heap_file.int_column f 5))

(* Engines on several domains may take one relation's column for the
   first time at once: each gets the published array, equal to a build
   on one domain, and nothing raises. *)
let test_heap_int_column_domains () =
  let rows = 20_000 in
  for round = 1 to 5 do
    let f = Heap_file.create ~schema (tuples rows) in
    let go = Atomic.make false in
    let take () =
      while not (Atomic.get go) do
        Domain.cpu_relax ()
      done;
      Heap_file.int_column f 1
    in
    let ds = List.init 2 (fun _ -> Domain.spawn take) in
    Atomic.set go true;
    let cols = List.map Domain.join ds in
    let expect = Array.init rows (fun i -> i * i) in
    List.iter
      (fun col ->
        checkb (Printf.sprintf "round %d: equal to the values" round) true
          (col = Some expect))
      cols;
    checkb (Printf.sprintf "round %d: one published array" round) true
      (match (cols, Heap_file.int_column f 1) with
      | [ Some a; Some b ], Some c -> a == c && b == c
      | _ -> false)
  done

(* ------------------------------------------------------------------ *)
(* Catalog                                                             *)

let test_catalog () =
  let f = Heap_file.create ~schema (tuples 5) in
  let c = Catalog.of_list [ ("r", f) ] in
  checkb "mem" true (Catalog.mem c "r");
  checkb "find" true (Catalog.find c "r" == f);
  checkb "find_opt none" true (Catalog.find_opt c "s" = None);
  checkb "duplicate add raises" true
    (match Catalog.add c "r" f with
    | () -> false
    | exception Heap_file.Storage_error _ -> true);
  Catalog.replace c "r" f;
  Catalog.add c "s" f;
  Alcotest.check Alcotest.(list string) "names sorted" [ "r"; "s" ] (Catalog.names c);
  Catalog.remove c "r";
  checkb "removed" false (Catalog.mem c "r")

(* ------------------------------------------------------------------ *)
(* CSV I/O                                                             *)

module Csv_io = Taqp_storage.Csv_io

let csv_schema =
  Schema.make
    [
      { Schema.name = "id"; ty = Value.Tint };
      { Schema.name = "score"; ty = Value.Tfloat };
      { Schema.name = "note"; ty = Value.Tstring };
      { Schema.name = "flag"; ty = Value.Tbool };
    ]

let csv_tuples =
  [
    Tuple.of_list [ Value.Int 1; Value.Float 1.5; Value.String "plain"; Value.Bool true ];
    Tuple.of_list
      [ Value.Int 2; Value.Float (-0.25); Value.String "with, comma"; Value.Bool false ];
    Tuple.of_list
      [ Value.Int 3; Value.Null; Value.String "quote \" inside"; Value.Null ];
  ]

let tmp_path name = Filename.concat (Filename.get_temp_dir_name ()) name

let test_csv_roundtrip () =
  let file = Heap_file.create ~tuple_bytes:64 ~schema:csv_schema csv_tuples in
  let path = tmp_path "taqp_test_roundtrip.csv" in
  Csv_io.save file path;
  let loaded = Csv_io.load ~tuple_bytes:64 path in
  checki "tuple count" 3 (Heap_file.n_tuples loaded);
  checkb "schema preserved" true (Schema.equal csv_schema (Heap_file.schema loaded));
  List.iter2
    (fun a b -> checkb "tuples equal" true (Tuple.equal a b))
    csv_tuples (Heap_file.to_list loaded);
  Sys.remove path

let test_csv_header_parsing () =
  let s = Csv_io.schema_of_header "a:int,b:string" in
  checki "arity" 2 (Schema.arity s);
  checkb "bad type" true
    (match Csv_io.schema_of_header "a:blob" with
    | _ -> false
    | exception Csv_io.Csv_error _ -> true);
  checkb "missing type" true
    (match Csv_io.schema_of_header "a,b" with
    | _ -> false
    | exception Csv_io.Csv_error _ -> true)

let test_csv_errors () =
  let path = tmp_path "taqp_test_bad.csv" in
  let write s =
    let oc = open_out path in
    output_string oc s;
    close_out oc
  in
  write "a:int\nnot_a_number\n";
  checkb "bad int reports line" true
    (match Csv_io.load path with
    | _ -> false
    | exception Csv_io.Csv_error { line; _ } -> line = 2);
  write "a:int,b:int\n1\n";
  checkb "field count mismatch" true
    (match Csv_io.load path with
    | _ -> false
    | exception Csv_io.Csv_error _ -> true);
  write "";
  checkb "empty file" true
    (match Csv_io.load path with
    | _ -> false
    | exception Csv_io.Csv_error _ -> true);
  Sys.remove path

let test_csv_load_dir () =
  let dir = tmp_path "taqp_test_dir" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let file = Heap_file.create ~tuple_bytes:64 ~schema:csv_schema csv_tuples in
  Csv_io.save file (Filename.concat dir "alpha.csv");
  Csv_io.save file (Filename.concat dir "beta.csv");
  let catalog = Csv_io.load_dir ~tuple_bytes:64 dir in
  Alcotest.check
    Alcotest.(list string)
    "names from filenames" [ "alpha"; "beta" ] (Catalog.names catalog);
  Sys.remove (Filename.concat dir "alpha.csv");
  Sys.remove (Filename.concat dir "beta.csv")

let () =
  Alcotest.run "storage"
    [
      ( "clock",
        [
          Alcotest.test_case "virtual charges" `Quick test_clock_virtual;
          Alcotest.test_case "deadline abort" `Quick test_clock_deadline_abort;
          Alcotest.test_case "deadline observe" `Quick test_clock_deadline_observe;
          Alcotest.test_case "sleep_until" `Quick test_clock_sleep_until;
          Alcotest.test_case "deadline exact landing" `Quick
            test_clock_deadline_exact_landing;
          Alcotest.test_case "observe overspend accounting" `Quick
            test_clock_observe_overspend_accounting;
          Alcotest.test_case "restore is silent, re-arm absolute" `Quick
            test_clock_restore_silent_rearm;
          Alcotest.test_case "re-arm replaces deadline" `Quick
            test_clock_rearm_replaces;
          Alcotest.test_case "disarm kills stale deadline" `Quick
            test_clock_disarm_kills_stale_deadline;
          Alcotest.test_case "re-arm after expiry" `Quick
            test_clock_rearm_after_expiry;
          Alcotest.test_case "sleep_until abort traced" `Quick
            test_clock_sleep_until_abort_traced;
          Alcotest.test_case "wall clock" `Quick test_clock_wall;
        ] );
      ( "cost-params",
        [ Alcotest.test_case "scaling" `Quick test_cost_params ] );
      ( "device",
        [
          Alcotest.test_case "exact charges" `Quick test_device_charges_exact;
          Alcotest.test_case "sort cost" `Quick test_device_sort_cost;
          Alcotest.test_case "stage counting" `Quick
            test_device_stage_overhead_counts_stage;
          Alcotest.test_case "jitter mean" `Slow test_device_jitter_mean;
          Alcotest.test_case "io stats diff" `Quick test_io_stats_diff;
          Alcotest.test_case "io stats shared with metrics" `Quick
            test_io_stats_metrics_shared;
        ] );
      ( "heap-file",
        [
          Alcotest.test_case "packing" `Quick test_heap_packing;
          Alcotest.test_case "order" `Quick test_heap_order_preserved;
          Alcotest.test_case "fold/iter" `Quick test_heap_fold_iter;
          Alcotest.test_case "errors" `Quick test_heap_errors;
          Alcotest.test_case "read_block charges" `Quick test_heap_read_block_charges;
          Alcotest.test_case "int columns" `Quick test_heap_int_column;
          Alcotest.test_case "int column from two domains" `Quick
            test_heap_int_column_domains;
        ] );
      ("catalog", [ Alcotest.test_case "operations" `Quick test_catalog ]);
      ( "csv",
        [
          Alcotest.test_case "roundtrip" `Quick test_csv_roundtrip;
          Alcotest.test_case "header parsing" `Quick test_csv_header_parsing;
          Alcotest.test_case "errors" `Quick test_csv_errors;
          Alcotest.test_case "load_dir" `Quick test_csv_load_dir;
        ] );
    ]
