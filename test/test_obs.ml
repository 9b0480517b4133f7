(* The observability subsystem: JSON kernel, metrics registry, tracer
   semantics, sink formats, and — end to end — the span structure a
   real staged query run emits, plus the guarantee that all of it is
   inert when disabled. *)

module Json = Taqp_obs.Json
module Event = Taqp_obs.Event
module Metrics = Taqp_obs.Metrics
module Sink = Taqp_obs.Sink
module Tracer = Taqp_obs.Tracer
module Config = Taqp_core.Config
module Report = Taqp_core.Report
module Taqp = Taqp_core.Taqp
module Stopping = Taqp_timecontrol.Stopping
module Generator = Taqp_workload.Generator
module Paper_setup = Taqp_workload.Paper_setup

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string
let checkf eps = Alcotest.check (Alcotest.float eps)

(* ------------------------------------------------------------------ *)
(* Json                                                                *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("name", Json.Str "read_block");
        ("ts", Json.Num 1.5);
        ("n", Json.Num 42.0);
        ("ok", Json.Bool true);
        ("none", Json.Null);
        ("xs", Json.List [ Json.Num 1.0; Json.Str "a\"b\n"; Json.Bool false ]);
      ]
  in
  let s = Json.to_string v in
  checkb "round-trips" true (Json.of_string s = v);
  (* integral doubles print without a fractional part *)
  checkb "integer rendering" true
    (String.length s > 0 && Json.to_string (Json.Num 42.0) = "42")

let test_json_parser_errors () =
  let bad s =
    match Json.of_string s with
    | _ -> false
    | exception Json.Parse_error _ -> true
  in
  checkb "empty" true (bad "");
  checkb "trailing garbage" true (bad "{} x");
  checkb "trailing comma" true (bad "[1,]");
  checkb "bare word" true (bad "flase");
  checkb "unterminated string" true (bad "\"abc");
  checkb "valid escapes ok" true
    (Json.of_string "\"a\\u0041\\n\"" = Json.Str "aA\n")

(* Property: print -> parse is the identity over the whole value space
   the printer can emit — including strings full of control characters
   (escaped as \u00XX), quotes and backslashes, and deeply nested
   containers. Non-finite floats are the one deliberate exception: the
   printer rejects them down to [null] (JSON has no NaN/inf), checked
   separately below. *)

let gen_json =
  let open QCheck.Gen in
  (* strings biased toward the troublesome range: control characters,
     the two mandatory escapes, and some multi-byte UTF-8 *)
  let tricky_char =
    frequency
      [
        (4, char_range 'a' 'z');
        (2, map Char.chr (int_range 0 0x1f));
        (1, return '"');
        (1, return '\\');
        (1, return '\xc3');
        (1, return '\xa9');
      ]
  in
  let gen_string = string_size ~gen:tricky_char (int_range 0 12) in
  let gen_num =
    frequency
      [
        (3, map float_of_int (int_range (-1_000_000) 1_000_000));
        (2, float_range (-1e9) 1e9);
        (1, return 0.0);
        (1, return 1e-7);
      ]
  in
  let leaf =
    frequency
      [
        (1, return Json.Null);
        (1, map (fun b -> Json.Bool b) bool);
        (2, map (fun n -> Json.Num n) gen_num);
        (2, map (fun s -> Json.Str s) gen_string);
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then leaf
         else
           frequency
             [
               (3, leaf);
               ( 1,
                 map
                   (fun xs -> Json.List xs)
                   (list_size (int_range 0 4) (self (n / 2))) );
               ( 1,
                 map
                   (fun kvs -> Json.Obj kvs)
                   (list_size (int_range 0 4)
                      (pair gen_string (self (n / 2)))) );
             ])

let prop_json_print_parse_id =
  QCheck.Test.make ~name:"print -> parse is the identity" ~count:500
    (QCheck.make ~print:Json.to_string gen_json)
    (fun v -> Json.of_string (Json.to_string v) = v)

let prop_json_string_escapes =
  QCheck.Test.make ~name:"every byte string round-trips as Str" ~count:500
    QCheck.(string_of_size (QCheck.Gen.int_range 0 64))
    (fun s -> Json.of_string (Json.to_string (Json.Str s)) = Json.Str s)

let test_json_control_chars_and_unicode () =
  (* all 32 control characters escape to something the parser undoes *)
  for c = 0 to 0x1f do
    let s = Printf.sprintf "a%cb" (Char.chr c) in
    checkb
      (Printf.sprintf "control 0x%02x round-trips" c)
      true
      (Json.of_string (Json.to_string (Json.Str s)) = Json.Str s)
  done;
  (* \u escapes decode to UTF-8, including multi-byte code points *)
  checkb "BMP escape" true
    (Json.of_string "\"\\u00e9\"" = Json.Str "\xc3\xa9");
  checkb "CJK escape" true
    (Json.of_string "\"\\u4e2d\"" = Json.Str "\xe4\xb8\xad");
  checkb "escaped controls parse" true
    (Json.of_string "\"\\u0000\\u001f\"" = Json.Str "\x00\x1f")

let test_json_non_finite_rejected () =
  (* the printer refuses to emit NaN/inf (invalid JSON): they collapse
     to null, and the output always re-parses *)
  List.iter
    (fun x ->
      checks "non-finite prints null" "null" (Json.to_string (Json.Num x));
      checkb "embedded stays parseable" true
        (Json.of_string (Json.to_string (Json.List [ Json.Num x ]))
        = Json.List [ Json.Null ]))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  (* and the parser refuses the bare tokens *)
  List.iter
    (fun s ->
      checkb (s ^ " rejected") true
        (match Json.of_string s with
        | _ -> false
        | exception Json.Parse_error _ -> true))
    [ "NaN"; "nan"; "Infinity"; "-Infinity"; "inf" ]

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let test_metrics_counters_gauges () =
  let m = Metrics.create () in
  let c = Metrics.counter m "io.blocks_read" in
  Metrics.Counter.incr c;
  Metrics.Counter.add c 4;
  (* get-or-create converges on the same cell *)
  let c' = Metrics.counter m "io.blocks_read" in
  Metrics.Counter.incr c';
  checki "shared cell" 6 (Metrics.Counter.value c);
  let g = Metrics.gauge m "query.estimate" in
  Metrics.Gauge.set g 880.0;
  checkf 1e-12 "gauge" 880.0 (Metrics.Gauge.value g);
  checkb "kind clash raises" true
    (match Metrics.gauge m "io.blocks_read" with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.check
    Alcotest.(list (pair string int))
    "sorted dump"
    [ ("io.blocks_read", 6) ]
    (Metrics.counters m)

let test_metrics_histogram_quantiles () =
  let h = Metrics.Histogram.make ~buckets:[| 1.0; 2.0; 4.0; 8.0 |] "t" in
  for _ = 1 to 50 do
    Metrics.Histogram.observe h 0.5
  done;
  for _ = 1 to 50 do
    Metrics.Histogram.observe h 3.0
  done;
  checki "count" 100 (Metrics.Histogram.count h);
  checkf 1e-9 "sum" 175.0 (Metrics.Histogram.sum h);
  let p50 = Metrics.Histogram.quantile h 0.5 in
  checkb "p50 in first bucket" true (p50 > 0.0 && p50 <= 1.0);
  let p95 = Metrics.Histogram.quantile h 0.95 in
  checkb "p95 in the (2,4] bucket" true (p95 > 2.0 && p95 <= 4.0);
  (* overflow bucket *)
  Metrics.Histogram.observe h 1e9;
  checkb "overflow counted" true (Metrics.Histogram.count h = 101)

(* ------------------------------------------------------------------ *)
(* Event serialization                                                 *)

let sample_events =
  [
    {
      Event.name = "query";
      cat = "query";
      ts = 0.0;
      phase = Event.Begin;
      args = [ ("quota", Event.Float 10.0) ];
    };
    {
      Event.name = "read_block";
      cat = "storage";
      ts = 0.25;
      phase = Event.Complete 0.015;
      args = [];
    };
    {
      Event.name = "deadline.abort";
      cat = "clock";
      ts = 10.0;
      phase = Event.Instant;
      args = [ ("deadline", Event.Float 10.0) ];
    };
    {
      Event.name = "io.blocks_read";
      cat = "metrics";
      ts = 1.0;
      phase = Event.Counter 180.0;
      args = [];
    };
    {
      Event.name = "query";
      cat = "query";
      ts = 10.0;
      phase = Event.End;
      args = [ ("outcome", Event.String "aborted"); ("ok", Event.Bool false) ];
    };
  ]

(* JSONL arguments collapse Int to Float on the way back; normalize
   for comparison. *)
let norm (e : Event.t) =
  {
    e with
    Event.args =
      List.map
        (fun (k, a) ->
          ( k,
            match a with
            | Event.Int i -> Event.Float (float_of_int i)
            | a -> a ))
        e.args;
  }

let test_event_jsonl_roundtrip () =
  List.iter
    (fun e ->
      match Event.of_json (Json.of_string (Json.to_string (Event.to_json e))) with
      | None -> Alcotest.fail ("no parse: " ^ e.Event.name)
      | Some e' -> checkb ("round-trip " ^ e.Event.name) true (norm e = norm e'))
    sample_events

let test_event_chrome_roundtrip () =
  List.iter
    (fun e ->
      match
        Event.of_chrome_json
          (Json.of_string (Json.to_string (Event.to_chrome_json e)))
      with
      | None -> Alcotest.fail ("no parse: " ^ e.Event.name)
      | Some e' ->
          checks "name" e.Event.name e'.Event.name;
          checks "cat" e.Event.cat e'.Event.cat;
          checkf 1e-9 "ts survives the microsecond conversion" e.Event.ts
            e'.Event.ts;
          checkb "phase" true
            (match (e.Event.phase, e'.Event.phase) with
            | Event.Begin, Event.Begin
            | Event.End, Event.End
            | Event.Instant, Event.Instant ->
                true
            | Event.Complete a, Event.Complete b
            | Event.Counter a, Event.Counter b ->
                Float.abs (a -. b) < 1e-9
            | _ -> false))
    sample_events

(* ------------------------------------------------------------------ *)
(* Tracer                                                              *)

let test_tracer_spans_and_disabled () =
  let sink, events = Sink.memory () in
  let t = ref 0.0 in
  let tr = Tracer.make ~now:(fun () -> !t) ~sink in
  checkb "enabled" true (Tracer.enabled tr);
  let r =
    Tracer.with_span tr ~cat:"stage" "stage-1" (fun () ->
        t := 1.0;
        Tracer.instant tr ~cat:"clock" "tick";
        17)
  in
  checki "with_span returns" 17 r;
  (match events () with
  | [ b; i; e ] ->
      checkb "begin" true (b.Event.phase = Event.Begin && b.Event.ts = 0.0);
      checkb "instant" true (i.Event.phase = Event.Instant);
      checkb "end" true (e.Event.phase = Event.End && e.Event.ts = 1.0)
  | evs -> Alcotest.fail (Printf.sprintf "expected 3 events, got %d" (List.length evs)));
  checkb "disabled tracer is disabled" false (Tracer.enabled Tracer.disabled);
  (* the disabled tracer must be emission-free (its sink is null) *)
  Tracer.span_begin Tracer.disabled "x";
  Tracer.span_end Tracer.disabled "x";
  checki "no new events" 3 (List.length (events ()))

let test_tracer_with_span_aborted () =
  let sink, events = Sink.memory () in
  let tr = Tracer.make ~now:(fun () -> 0.0) ~sink in
  (match
     Tracer.with_span tr ~cat:"stage" "s" (fun () -> failwith "boom")
   with
  | _ -> Alcotest.fail "expected exception"
  | exception Failure _ -> ());
  match events () with
  | [ _; e ] ->
      checkb "end flagged aborted" true
        (List.assoc_opt "aborted" e.Event.args = Some (Event.Bool true))
  | _ -> Alcotest.fail "expected begin+end"

(* ------------------------------------------------------------------ *)
(* Clock deadline interrupts                                           *)

module Clock = Taqp_storage.Clock

let test_sleep_until_expired_deadline_aborts () =
  (* Regression: a sleeper calling in after an armed Abort deadline has
     already passed must take the pending interrupt immediately — even
     when the sleep target itself lies before the deadline (a
     zero-length or backwards sleep), which used to return silently
     without recording [deadline.abort]. *)
  let sink, events = Sink.memory () in
  let clock = Clock.create_virtual () in
  Clock.set_tracer clock (Tracer.make ~now:(fun () -> Clock.now clock) ~sink);
  Clock.charge clock 1.0;
  Clock.arm clock ~mode:`Abort ~at:0.5;
  (match Clock.sleep_until clock 0.4 with
  | () -> Alcotest.fail "expected the pending interrupt to fire"
  | exception Clock.Deadline_exceeded { now; deadline } ->
      checkf 0.0 "raised at the current time" 1.0 now;
      checkf 0.0 "with the armed deadline" 0.5 deadline);
  checkf 0.0 "clock did not move" 1.0 (Clock.now clock);
  match
    List.filter (fun e -> e.Event.name = "deadline.abort") (events ())
  with
  | [ e ] ->
      checkf 0.0 "abort stamped at fire time" 1.0 e.Event.ts;
      checkb "carries the deadline" true
        (List.assoc_opt "deadline" e.Event.args = Some (Event.Float 0.5))
  | es -> Alcotest.failf "expected exactly one deadline.abort, got %d" (List.length es)

(* ------------------------------------------------------------------ *)
(* End-to-end: a real staged run                                       *)

let small_spec =
  { Generator.n_tuples = 400; tuple_bytes = 200; block_bytes = 1024 }

let observe_config =
  {
    Config.default with
    Config.stopping = Stopping.Soft_deadline { grace = 100.0 };
  }

let run_traced ?(quota = 2.0) ~sink wl =
  Taqp.count_within ~config:observe_config ~seed:3 ~sink wl.Paper_setup.catalog
    ~quota wl.Paper_setup.query

(* Chrome export of a 2-join (three-relation) query: parseable JSON
   whose B/E events nest at least 3 deep (query -> stage -> operator),
   with storage-layer X events inside. *)
let test_chrome_export_nesting () =
  let buf = Buffer.create 4096 in
  let wl = Paper_setup.three_way_join ~spec:small_spec ~seed:1 () in
  let r = run_traced ~quota:20.0 ~sink:(Sink.chrome (Sink.to_buffer buf)) wl in
  checkb "ran stages" true (r.Report.stages_completed >= 1);
  let json = Json.of_string (Buffer.contents buf) in
  let items = Option.get (Json.to_list json) in
  checkb "non-empty trace" true (List.length items > 10);
  (* the stream opens with process/thread metadata (ph "M") naming the
     synthetic pid/tid; everything after is a real event *)
  let phase_of item =
    match item with
    | Json.Obj fields -> (
        match List.assoc_opt "ph" fields with
        | Some (Json.Str p) -> p
        | _ -> "?")
    | _ -> "?"
  in
  let metadata, real = List.partition (fun i -> phase_of i = "M") items in
  let meta_name item =
    match item with
    | Json.Obj fields -> (
        match List.assoc_opt "name" fields with
        | Some (Json.Str n) -> n
        | _ -> "?")
    | _ -> "?"
  in
  checki "two metadata events" 2 (List.length metadata);
  Alcotest.check
    Alcotest.(list string)
    "metadata names"
    [ "process_name"; "thread_name" ]
    (List.map meta_name metadata);
  let events = List.filter_map Event.of_chrome_json real in
  checki "every event parses back" (List.length real) (List.length events);
  let depth = ref 0 and max_depth = ref 0 in
  let cats_at_depth = Hashtbl.create 8 in
  List.iter
    (fun (e : Event.t) ->
      match e.Event.phase with
      | Event.Begin ->
          incr depth;
          Hashtbl.replace cats_at_depth !depth e.Event.cat;
          if !depth > !max_depth then max_depth := !depth
      | Event.End -> decr depth
      | Event.Complete _ | Event.Instant | Event.Counter _ -> ())
    events;
  checki "balanced spans" 0 !depth;
  checkb "at least 3 nested span levels" true (!max_depth >= 3);
  checks "level 1 is the query" "query"
    (Option.value ~default:"?" (Hashtbl.find_opt cats_at_depth 1));
  checks "level 2 is a stage" "stage"
    (Option.value ~default:"?" (Hashtbl.find_opt cats_at_depth 2));
  checks "level 3 is an operator" "operator"
    (Option.value ~default:"?" (Hashtbl.find_opt cats_at_depth 3));
  (* the operator layer is a real tree: joins appear below the stage *)
  checkb "join operators present" true
    (List.exists
       (fun (e : Event.t) -> e.Event.cat = "operator" && e.Event.name = "join")
       events);
  checkb "storage spans present" true
    (List.exists
       (fun (e : Event.t) ->
         e.Event.cat = "storage"
         && match e.Event.phase with Event.Complete _ -> true | _ -> false)
       events)

(* The JSONL stream carries exactly the events the tracer emitted. *)
let test_jsonl_stream_matches_memory () =
  let buf = Buffer.create 4096 in
  let mem, events = Sink.memory () in
  let wl = Paper_setup.join ~spec:small_spec ~target_output:2000 ~seed:5 () in
  let _ = run_traced ~sink:(Sink.tee [ Sink.jsonl (Sink.to_buffer buf); mem ]) wl in
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> String.trim l <> "")
  in
  let expected = events () in
  checki "one line per event" (List.length expected) (List.length lines);
  List.iter2
    (fun line e ->
      match Event.of_json (Json.of_string line) with
      | None -> Alcotest.fail "unparseable JSONL line"
      | Some e' -> checkb "line matches event" true (norm e = norm e'))
    lines expected;
  (* span structure is balanced per category too *)
  let opens cat =
    List.length
      (List.filter
         (fun (e : Event.t) -> e.Event.cat = cat && e.Event.phase = Event.Begin)
         expected)
  and closes cat =
    List.length
      (List.filter
         (fun (e : Event.t) -> e.Event.cat = cat && e.Event.phase = Event.End)
         expected)
  in
  List.iter
    (fun cat -> checki ("balanced " ^ cat) (opens cat) (closes cat))
    [ "query"; "stage"; "operator" ]

(* Tracing must be inert: the same run with and without a sink returns
   bit-identical results — same estimate, same clock, same IO. *)
let test_disabled_path_zero_drift () =
  let run sink =
    let wl = Paper_setup.join ~spec:small_spec ~target_output:2000 ~seed:5 () in
    match sink with
    | None ->
        Taqp.count_within ~config:observe_config ~seed:3 wl.Paper_setup.catalog
          ~quota:2.0 wl.Paper_setup.query
    | Some sink -> run_traced ~sink wl
  in
  let plain = run None in
  let traced = run (Some (fst (Sink.memory ()))) in
  checkf 1e-15 "same estimate" plain.Report.estimate traced.Report.estimate;
  checkf 1e-15 "same elapsed" plain.Report.elapsed traced.Report.elapsed;
  checki "same blocks_read" plain.Report.blocks_read traced.Report.blocks_read;
  checki "same stages" plain.Report.stages_completed
    traced.Report.stages_completed;
  checkf 1e-15 "same variance" plain.Report.variance traced.Report.variance

(* A tracer need not read the device's virtual clock: a host-clock
   tracer times host work. Here the tracer reads a counter that ticks
   once per read, so every span it closes must last a whole number of
   ticks, at least one; a begin stamp taken from the virtual clock
   would leave a fraction. The run itself must not notice the foreign
   clock. The journaled loop covers [journal_write] and [checkpoint]. *)
module Device = Taqp_storage.Device
module Cost_params = Taqp_storage.Cost_params
module Executor = Taqp_core.Executor
module Aggregate = Taqp_core.Aggregate
module Query_journal = Taqp_recover.Query_journal
module Checkpoint = Taqp_recover.Checkpoint

let test_spans_use_tracer_clock () =
  let wl = Paper_setup.join ~spec:small_spec ~target_output:2000 ~seed:5 () in
  let run tracer =
    let params = Cost_params.no_jitter Cost_params.default in
    let device = Device.create ~params ?tracer (Clock.create_virtual ()) in
    let h =
      Executor.start ~config:observe_config ~aggregate:Aggregate.Count ~device
        ~catalog:wl.Paper_setup.catalog ~rng:(Taqp_rng.Prng.create 3)
        ~quota:2.0 wl.Paper_setup.query
    in
    let path = Filename.temp_file "taqp_test_obs" ".jrn" in
    let journal =
      Query_journal.create ~path ~device
        {
          Checkpoint.m_query = wl.Paper_setup.query;
          m_aggregate = Aggregate.Count;
          m_config = observe_config;
          m_quota = 2.0;
          m_seed = 3;
          m_params = params;
          m_fault_plan = Taqp_fault.Fault_plan.none;
          m_fault_seed = 3;
        }
    in
    let rec loop () =
      match Executor.step h with
      | `Continue ->
          Query_journal.checkpoint journal h;
          loop ()
      | `Done r -> r
    in
    let r = loop () in
    Query_journal.close journal;
    Sys.remove path;
    r
  in
  let ticks = ref 0 in
  let sink, events = Sink.memory () in
  let tracer =
    Tracer.make ~sink ~now:(fun () ->
        incr ticks;
        float_of_int !ticks)
  in
  let traced = run (Some tracer) in
  let plain = run None in
  checkf 0.0 "same estimate" plain.Report.estimate traced.Report.estimate;
  checkf 0.0 "same elapsed" plain.Report.elapsed traced.Report.elapsed;
  checkf 0.0 "same variance" plain.Report.variance traced.Report.variance;
  checki "same stages" plain.Report.stages_completed
    traced.Report.stages_completed;
  let completes cat =
    List.filter_map
      (fun (e : Event.t) ->
        match e.Event.phase with
        | Event.Complete d when e.Event.cat = cat -> Some (e.Event.name, d)
        | _ -> None)
      (events ())
  in
  List.iter
    (fun (cat, name) ->
      checkb
        (Fmt.str "%s span %s present" cat name)
        true
        (List.exists (fun (n, _) -> n = name) (completes cat)))
    [
      ("storage", "read_block");
      ("storage", "journal_write");
      ("scan", "scan:r1");
      ("recover", "checkpoint");
    ];
  List.iter
    (fun cat ->
      List.iter
        (fun (name, d) ->
          checkb
            (Fmt.str "%s %s lasts whole ticks (%g)" cat name d)
            true
            (Float.is_integer d && d >= 1.0))
        (completes cat))
    [ "storage"; "scan"; "recover" ]

(* The summary sink renders per-stage lines from the span stream. *)
let test_summary_sink () =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  let wl = Paper_setup.selection ~spec:small_spec ~output:100 ~seed:5 () in
  let _ = run_traced ~sink:(Sink.summary ppf) wl in
  Format.pp_print_flush ppf ();
  let out = Buffer.contents buf in
  let contains sub =
    let n = String.length sub and m = String.length out in
    let rec go i = i + n <= m && (String.sub out i n = sub || go (i + 1)) in
    go 0
  in
  checkb "has header" true (contains "trace summary");
  checkb "has stage line" true (contains "stage-1");
  checkb "has storage totals" true (contains "storage");
  checkb "records the armed deadline" true (contains "deadline.armed")

let () =
  Alcotest.run "taqp_obs"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parser errors" `Quick test_json_parser_errors;
          Alcotest.test_case "control chars and unicode" `Quick
            test_json_control_chars_and_unicode;
          Alcotest.test_case "non-finite floats" `Quick
            test_json_non_finite_rejected;
          QCheck_alcotest.to_alcotest prop_json_print_parse_id;
          QCheck_alcotest.to_alcotest prop_json_string_escapes;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters and gauges" `Quick
            test_metrics_counters_gauges;
          Alcotest.test_case "histogram quantiles" `Quick
            test_metrics_histogram_quantiles;
        ] );
      ( "events",
        [
          Alcotest.test_case "jsonl roundtrip" `Quick test_event_jsonl_roundtrip;
          Alcotest.test_case "chrome roundtrip" `Quick
            test_event_chrome_roundtrip;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "spans" `Quick test_tracer_spans_and_disabled;
          Alcotest.test_case "aborted span" `Quick test_tracer_with_span_aborted;
        ] );
      ( "clock",
        [
          Alcotest.test_case "expired deadline aborts sleep" `Quick
            test_sleep_until_expired_deadline_aborts;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "chrome export nesting" `Quick
            test_chrome_export_nesting;
          Alcotest.test_case "jsonl stream" `Quick
            test_jsonl_stream_matches_memory;
          Alcotest.test_case "disabled path zero drift" `Quick
            test_disabled_path_zero_drift;
          Alcotest.test_case "spans use the tracer's clock" `Quick
            test_spans_use_tracer_clock;
          Alcotest.test_case "summary sink" `Quick test_summary_sink;
        ] );
    ]
