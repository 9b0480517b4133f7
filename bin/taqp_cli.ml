(* taqp — time-constrained aggregate query processing from the shell.

     taqp gen --dir data --workload join          # synthesize relations
     taqp query --dir data --quota 2.5 "count(join[r1.key = r2.key](r1, r2))"
     taqp exact --dir data "count(select[sel < 1000](r1))"
     taqp explain --dir data "..."                # terms + cost curve
     taqp serve --dir data --jobs batch.jobs --policy edf --admission
     taqp serve --dir data --listen 7447 --admission --max-queue 8
     taqp submit --port 7447 --jobs batch.jobs --drain *)

open Cmdliner
module Taqp = Taqp_core.Taqp
module Report = Taqp_core.Report
module Config = Taqp_core.Config
module Aggregate = Taqp_core.Aggregate
module Staged = Taqp_core.Staged
module Stopping = Taqp_timecontrol.Stopping
module Strategy = Taqp_timecontrol.Strategy
module Csv_io = Taqp_storage.Csv_io
module Catalog = Taqp_storage.Catalog
module Heap_file = Taqp_storage.Heap_file
module Paper_setup = Taqp_workload.Paper_setup
module Sink = Taqp_obs.Sink
module Metrics = Taqp_obs.Metrics
module Fault_plan = Taqp_fault.Fault_plan
module Executor = Taqp_core.Executor
module Query_journal = Taqp_recover.Query_journal
module Checkpoint = Taqp_recover.Checkpoint
module Sched_journal = Taqp_sched.Sched_journal
module Json = Taqp_obs.Json
module Ledger = Taqp_audit.Ledger
module Meter = Taqp_audit.Meter
module Drift = Taqp_audit.Drift
module Forensics = Taqp_audit.Forensics
module Slo = Taqp_audit.Slo
module Cache = Taqp_cache.Cache

let fail fmt = Fmt.kstr (fun s -> `Error (false, s)) fmt

(* ------------------------------------------------------------------ *)
(* Common arguments                                                    *)

let dir_arg =
  Arg.(
    required
    & opt (some dir) None
    & info [ "d"; "dir" ] ~docv:"DIR" ~doc:"Directory of relation CSV files.")

let query_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"QUERY"
        ~doc:
          "RA query, e.g. 'count(select[sel < 1000](r))'. The count(...) \
           wrapper is optional.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

(* --cache MB|off, shared by query/explain/serve. [None] (off) leaves
   every code path bit-identical to the cache-less engine. *)
let cache_budget_conv =
  let parse s =
    if s = "off" then Ok None
    else
      match float_of_string_opt s with
      | Some mb when mb > 0.0 -> Ok (Some mb)
      | _ -> Error (`Msg "expected a positive megabyte budget or 'off'")
  in
  let print ppf = function
    | None -> Format.pp_print_string ppf "off"
    | Some mb -> Format.fprintf ppf "%g" mb
  in
  Arg.conv (parse, print)

let cache_arg =
  Arg.(
    value
    & opt cache_budget_conv None
    & info [ "cache" ] ~docv:"MB|off"
        ~doc:
          "Shared block & sample cache: a budget in megabytes, or $(b,off) \
           (the default). Queries draw from shared per-relation sample \
           prefixes, so repeated and concurrent queries over hot relations \
           serve each other's blocks and stage summaries at probe price; \
           see docs/CACHING.md. With $(b,off) the run is bit-identical to \
           a cache-less build.")

let make_cache ~seed = Option.map (fun mb -> Cache.create ~budget_mb:mb ~seed ())

(* --domains N, shared by query/serve. Defaults to Config.default's
   value, i.e. the TAQP_DOMAINS env var or 1. Any N yields bit-identical
   estimates, CIs, virtual costs, traces and ledgers — only wall time
   changes (docs/PARALLELISM.md). *)
let domains_arg =
  Arg.(
    value
    & opt int Config.default.Config.domains
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Worker domains (OCaml 5 parallelism) for per-stage sampling \
           compute. The answer — estimate, confidence interval, virtual \
           cost, trace, budget ledger — is bit-identical for every $(docv); \
           only wall-clock time changes. Defaults to $(b,TAQP_DOMAINS) or 1.")

let load_catalog dir = Csv_io.load_dir dir

let parse_query q =
  match Taqp.parse q with
  | e -> Ok e
  | exception Taqp_relational.Parser.Parse_error { position; message } ->
      Error (Fmt.str "parse error at offset %d: %s" position message)

(* The journaled twin of [Taqp.aggregate_within]: the same rng-stream
   discipline (the sampling stream is split for jitter before anything
   else draws), but driven through the explicit executor loop so a
   checkpoint is appended at every stage boundary. The journal-free
   query path still calls [Taqp.aggregate_within] itself, so runs
   without --journal are bit-identical to previous releases. *)
let run_journaled ~config ~seed ?sink ?metrics ~fault_plan ?fault_seed ?cache
    ~aggregate ~catalog ~quota ~path expr =
  let params = Taqp_storage.Cost_params.default in
  let rng = Taqp_rng.Prng.create seed in
  let clock = Taqp_storage.Clock.create_virtual () in
  let tracer =
    Option.map
      (fun sink ->
        Taqp_obs.Tracer.make
          ~now:(fun () -> Taqp_storage.Clock.now clock)
          ~sink)
      sink
  in
  let fault_seed = Option.value fault_seed ~default:seed in
  let faults =
    match fault_plan with
    | None -> None
    | Some plan when Fault_plan.is_none plan -> None
    | Some plan -> Some (Taqp_fault.Injector.create ~seed:fault_seed plan)
  in
  let device =
    Taqp_storage.Device.create ~params ~jitter_rng:(Taqp_rng.Prng.split rng)
      ?metrics ?tracer ?faults clock
  in
  let journal =
    Query_journal.create ~path ~device
      {
        Checkpoint.m_query = expr;
        m_aggregate = aggregate;
        m_config = config;
        m_quota = quota;
        m_seed = seed;
        m_params = params;
        m_fault_plan = Option.value fault_plan ~default:Fault_plan.none;
        m_fault_seed = fault_seed;
      }
  in
  (match (cache, metrics) with
  | Some c, Some m -> Cache.bind_metrics c m
  | _ -> ());
  match
    let h =
      Executor.start ~config ~aggregate ?cache ~device ~catalog ~rng ~quota
        expr
    in
    Query_journal.checkpoint journal h;
    let rec loop () =
      match Executor.step h with
      | `Continue ->
          Query_journal.checkpoint journal h;
          loop ()
      | `Done r -> r
    in
    loop ()
  with
  | report ->
      Query_journal.close journal;
      (match (cache, tracer) with
      | Some c, Some t -> Cache.emit_counters c t
      | _ -> ());
      Option.iter Taqp_obs.Tracer.close tracer;
      report
  | exception e ->
      (* A [Crashed] fault is a simulated kill: every journal record is
         already flushed, exactly as a real crash would leave the file.
         Only the descriptor needs closing before the caller reports. *)
      (try Query_journal.close journal with _ -> ());
      raise e

(* ------------------------------------------------------------------ *)
(* gen                                                                 *)

let gen_cmd =
  let workload_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("selection", `Selection);
               ("join", `Join);
               ("intersection", `Intersection);
               ("projection", `Projection);
               ("select-join", `Select_join);
               ("union", `Union);
             ])
          `Selection
      & info [ "w"; "workload" ] ~docv:"KIND"
          ~doc:
            "Workload kind: $(b,selection), $(b,join), $(b,intersection), \
             $(b,projection), $(b,select-join) or $(b,union).")
  in
  let out_dir_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "d"; "dir" ] ~docv:"DIR" ~doc:"Output directory (created).")
  in
  let tuples_arg =
    Arg.(
      value & opt int 10_000
      & info [ "tuples" ] ~docv:"N" ~doc:"Tuples per relation.")
  in
  let run workload dir tuples seed =
    let spec = { Taqp_workload.Generator.paper_spec with n_tuples = tuples } in
    let wl =
      match workload with
      | `Selection -> Paper_setup.selection ~spec ~seed ()
      | `Join -> Paper_setup.join ~spec ~seed ()
      | `Intersection -> Paper_setup.intersection ~spec ~seed ()
      | `Projection -> Paper_setup.projection ~spec ~seed ()
      | `Select_join -> Paper_setup.select_join ~spec ~seed ()
      | `Union -> Paper_setup.union_of_selects ~spec ~seed ()
    in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    List.iter
      (fun name ->
        let path = Filename.concat dir (name ^ ".csv") in
        Csv_io.save (Catalog.find wl.Paper_setup.catalog name) path;
        Fmt.pr "wrote %s@." path)
      (Catalog.names wl.Paper_setup.catalog);
    Fmt.pr "workload: %s@." wl.Paper_setup.description;
    Fmt.pr "query:    count(%a)@." Taqp_relational.Ra.pp wl.Paper_setup.query;
    Fmt.pr "exact:    %d@." wl.Paper_setup.exact;
    `Ok ()
  in
  let term =
    Term.(ret (const run $ workload_arg $ out_dir_arg $ tuples_arg $ seed_arg))
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a synthetic workload as CSV relations.")
    term

(* ------------------------------------------------------------------ *)
(* query                                                               *)

let query_cmd =
  let quota_arg =
    Arg.(
      required
      & opt (some float) None
      & info [ "q"; "quota" ] ~docv:"SECONDS"
          ~doc:"Time quota in (simulated) seconds.")
  in
  let aggregate_arg =
    Arg.(
      value & opt string "count"
      & info [ "a"; "aggregate" ] ~docv:"AGG"
          ~doc:"Aggregate: $(b,count), $(b,sum(attr)) or $(b,avg(attr)).")
  in
  let d_beta_arg =
    Arg.(
      value & opt float 1.645
      & info [ "d-beta" ] ~docv:"D"
          ~doc:"Per-operator risk deviate of the One-at-a-Time strategy.")
  in
  let strategy_arg =
    Arg.(
      value
      & opt (enum [ ("one-at-a-time", `O); ("single-interval", `S); ("heuristic", `H) ]) `O
      & info [ "strategy" ] ~docv:"NAME" ~doc:"Time-control strategy.")
  in
  let observe_arg =
    Arg.(
      value & flag
      & info [ "observe" ]
          ~doc:
            "ERAM's measurement mode: let the final stage finish and report \
             the overspend instead of aborting at the deadline.")
  in
  let physical_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("sort", Config.Sort_merge);
               ("hash", Config.Hash);
               ("adaptive", Config.Adaptive);
             ])
          Config.Sort_merge
      & info [ "physical" ] ~docv:"PATH"
          ~doc:
            "Physical path for equi-key joins/intersections: $(b,sort) \
             (sorted-file pairing merges, the paper's plan), $(b,hash) \
             (retained per-side hash indexes, probed only with each stage's \
             delta), or $(b,adaptive) (per operator per stage, whichever \
             the fitted cost model predicts cheaper). The estimate is \
             identical either way; only the evaluation cost changes.")
  in
  let trace_arg =
    Arg.(
      value & flag
      & info [ "t"; "trace" ]
          ~doc:
            "Print an end-of-run trace summary (per-stage lines and \
             per-layer time totals, derived from the span stream).")
  in
  let trace_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Write the full event trace to $(docv).")
  in
  let trace_format_arg =
    Arg.(
      value
      & opt (enum [ ("jsonl", `Jsonl); ("chrome", `Chrome) ]) `Jsonl
      & info [ "trace-format" ] ~docv:"FORMAT"
          ~doc:
            "Trace file format: $(b,jsonl) (one event per line) or \
             $(b,chrome) (a chrome://tracing / Perfetto-loadable \
             trace_event array).")
  in
  let metrics_arg =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Print the metrics registry (io.* counters, stage histograms).")
  in
  let groups_arg =
    Arg.(
      value & opt int 0
      & info [ "groups" ] ~docv:"N"
          ~doc:
            "For projection queries, also print the N largest estimated              group counts.")
  in
  let error_bound_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "error-bound" ] ~docv:"PCT"
          ~doc:
            "Also stop when the 95% interval is within PCT percent of the \
             estimate (error-constrained evaluation).")
  in
  let faults_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"SCENARIO"
          ~doc:
            (Fmt.str
               "Inject storage faults: a preset (%s) or a DSL rule list such \
                as 'read_error:p=0.05;latency:p=0.1,factor=4;retries=5' — \
                see docs/ROBUSTNESS.md. The run stays deterministic given \
                $(b,--fault-seed); recoverable faults cost retries and \
                backoff on the virtual clock, unrecoverable ones end the run \
                in a degraded partial report."
               (String.concat ", " Fault_plan.preset_names)))
  in
  let fault_seed_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "fault-seed" ] ~docv:"N"
          ~doc:
            "Seed of the fault injector's own random stream (default: \
             $(b,--seed)). Changing it re-rolls the faults without changing \
             which tuples are sampled.")
  in
  let journal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Write a crash-safe stage journal to $(docv): one checkpoint \
             per stage boundary, each write charged to the virtual clock. \
             A killed run is resumed with $(b,taqp resume); see \
             docs/RECOVERY.md.")
  in
  let run dir query quota aggregate d_beta strategy physical domains observe
      trace trace_out trace_format metrics groups error_bound faults
      fault_seed journal cache_mb seed =
    if domains < 1 then fail "--domains must be >= 1"
    else
    match parse_query query with
    | Error e -> fail "%s" e
    | Ok expr -> (
        match
          match faults with
          | None -> Ok None
          | Some s -> Result.map Option.some (Fault_plan.of_string s)
        with
        | Error m -> fail "bad --faults scenario: %s" m
        | Ok faults -> (
        match Aggregate.parse aggregate with
        | exception Invalid_argument m -> fail "%s" m
        | aggregate -> (
            let catalog = load_catalog dir in
            let strategy =
              match strategy with
              | `O -> Strategy.one_at_a_time ~d_beta ()
              | `S -> Strategy.single_interval ~d_alpha:d_beta ()
              | `H -> Strategy.heuristic ~split:0.5
            in
            let deadline =
              if observe then Stopping.Soft_deadline { grace = 1e9 }
              else Stopping.Hard_deadline
            in
            let stopping =
              match error_bound with
              | None -> deadline
              | Some pct ->
                  Stopping.All
                    [
                      deadline;
                      Stopping.Error_bound { relative = pct /. 100.0; level = 0.95 };
                    ]
            in
            let config =
              { Config.default with Config.strategy; stopping; physical; domains }
            in
            (* Assemble the event sinks: a file stream (JSONL or Chrome
               trace_event) and/or the stdout summary. The sinks are
               closed by [aggregate_within] before the report comes
               back, so the summary prints first and file buffers are
               complete; we only close the channel afterwards. *)
            let out_channel = ref None in
            match
              Option.map
                (fun file ->
                  try Ok (open_out file) with Sys_error m -> Error m)
                trace_out
            with
            | Some (Error m) -> fail "cannot open trace file: %s" m
            | opened ->
            let file_sink =
              match opened with
              | None -> []
              | Some (Ok oc) ->
                  out_channel := Some oc;
                  [
                    (match trace_format with
                    | `Jsonl -> Sink.jsonl (Sink.to_channel oc)
                    | `Chrome -> Sink.chrome (Sink.to_channel oc));
                  ]
              | Some (Error _) -> assert false
            in
            let summary_sink =
              if trace then [ Sink.summary Fmt.stdout ] else []
            in
            let sink =
              match file_sink @ summary_sink with
              | [] -> None
              | [ s ] -> Some s
              | sinks -> Some (Sink.tee sinks)
            in
            let registry = if metrics then Some (Metrics.create ()) else None in
            let cache = make_cache ~seed cache_mb in
            let close_file () = Option.iter close_out !out_channel in
            match
              match journal with
              | None ->
                  Taqp.aggregate_within ~config ~seed ?sink ?metrics:registry
                    ?faults ?fault_seed ?cache ~aggregate catalog ~quota expr
              | Some path ->
                  run_journaled ~config ~seed ?sink ?metrics:registry
                    ~fault_plan:faults ?fault_seed ?cache ~aggregate ~catalog
                    ~quota ~path expr
            with
            | report ->
                close_file ();
                Fmt.pr "%a@." Report.pp report;
                Option.iter (fun m -> Fmt.pr "%a@." Metrics.pp m) registry;
                if groups > 0 then begin
                  match report.Report.groups with
                  | [] -> Fmt.pr "(no group estimates: not a plain projection)@."
                  | gs ->
                      Fmt.pr "largest estimated groups:@.";
                      List.iteri
                        (fun i (label, est) ->
                          if i < groups then Fmt.pr "  %-24s %10.0f@." label est)
                        gs
                end;
                `Ok ()
            | exception Staged.Compile_error m ->
                close_file ();
                fail "%s" m
            | exception Taqp_relational.Ra.Type_error m ->
                close_file ();
                fail "type error: %s" m
            | exception Taqp_fault.Injector.Crashed { op; at } ->
                close_file ();
                let hint =
                  match journal with
                  | Some p ->
                      Fmt.str " — resume with: taqp resume --dir %s --journal %s"
                        dir p
                  | None -> ""
                in
                fail "crash fault killed the run during %s at t=%.3f%s" op at
                  hint)))
  in
  let term =
    Term.(
      ret
        (const run $ dir_arg $ query_arg $ quota_arg $ aggregate_arg
       $ d_beta_arg $ strategy_arg $ physical_arg $ domains_arg $ observe_arg
       $ trace_arg $ trace_out_arg $ trace_format_arg $ metrics_arg
       $ groups_arg $ error_bound_arg $ faults_arg $ fault_seed_arg
       $ journal_arg $ cache_arg $ seed_arg))
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Estimate an aggregate within a time quota (simulated device).")
    term

(* ------------------------------------------------------------------ *)
(* resume                                                              *)

let resume_cmd =
  let journal_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:"Stage journal written by $(b,taqp query --journal).")
  in
  let downtime_arg =
    Arg.(
      value & opt float 0.0
      & info [ "downtime" ] ~docv:"SECONDS"
          ~doc:
            "Virtual seconds lost between the last checkpoint and the \
             restart. 0 resumes boundary-exact — bit-identical to the \
             uninterrupted run; anything larger burns quota against the \
             original absolute deadline and forces a degraded, widened \
             report.")
  in
  let continue_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "continue" ] ~docv:"FILE"
          ~doc:
            "Keep checkpointing the resumed run into a fresh continuation \
             journal (same per-boundary clock charge as the original run, \
             so a journaled-and-resumed run stays bit-identical to a \
             journaled uninterrupted one). The first post-resume boundary \
             opens the new journal's coverage; a crash before it is still \
             recoverable from the original journal.")
  in
  let trace_arg =
    Arg.(
      value & flag
      & info [ "t"; "trace" ] ~doc:"Print an end-of-run trace summary.")
  in
  let trace_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write the resumed run's event trace to $(docv) — the exact \
             continuation of the crashed run's stream.")
  in
  let trace_format_arg =
    Arg.(
      value
      & opt (enum [ ("jsonl", `Jsonl); ("chrome", `Chrome) ]) `Jsonl
      & info [ "trace-format" ] ~docv:"FORMAT"
          ~doc:"Trace file format: $(b,jsonl) or $(b,chrome).")
  in
  let metrics_arg =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Print the metrics registry (recover.* counters included).")
  in
  let run dir journal continue_to downtime trace trace_out trace_format metrics
      =
    if downtime < 0.0 then fail "--downtime must be >= 0"
    else if continue_to = Some journal then
      fail "--continue cannot overwrite the journal being recovered"
    else
      match Query_journal.load journal with
      | Error m -> fail "%s" m
      | Ok loaded -> (
          let catalog = load_catalog dir in
          let out_channel = ref None in
          match
            Option.map
              (fun file -> try Ok (open_out file) with Sys_error m -> Error m)
              trace_out
          with
          | Some (Error m) -> fail "cannot open trace file: %s" m
          | opened ->
              let file_sink =
                match opened with
                | None -> []
                | Some (Ok oc) ->
                    out_channel := Some oc;
                    [
                      (match trace_format with
                      | `Jsonl -> Sink.jsonl (Sink.to_channel oc)
                      | `Chrome -> Sink.chrome (Sink.to_channel oc));
                    ]
                | Some (Error _) -> assert false
              in
              let summary_sink =
                if trace then [ Sink.summary Fmt.stdout ] else []
              in
              let sink =
                match file_sink @ summary_sink with
                | [] -> None
                | [ s ] -> Some s
                | sinks -> Some (Sink.tee sinks)
              in
              let registry =
                if metrics then Some (Metrics.create ()) else None
              in
              let close_file () = Option.iter close_out !out_channel in
              let now =
                if downtime = 0.0 then None
                else
                  match List.rev loaded.Query_journal.l_checkpoints with
                  | [] -> None
                  | last :: _ -> Some (last.Checkpoint.c_at +. downtime)
              in
              Option.iter
                (fun t -> Fmt.epr "note: journal %s (tail discarded)@." t)
                loaded.Query_journal.l_torn;
              match
                Query_journal.resume_last ?sink ?metrics:registry ?now ~catalog
                  loaded
              with
              | Error m ->
                  close_file ();
                  fail "%s" m
              | Ok (device, h) -> (
                  let continuation =
                    Option.map
                      (fun path ->
                        Query_journal.create ~path ~device
                          loaded.Query_journal.l_meta)
                      continue_to
                  in
                  let close_continuation () =
                    Option.iter Query_journal.close continuation
                  in
                  match
                    let rec loop () =
                      match Executor.step h with
                      | `Continue ->
                          Option.iter
                            (fun j -> Query_journal.checkpoint j h)
                            continuation;
                          loop ()
                      | `Done r -> r
                    in
                    loop ()
                  with
                  | report ->
                      close_continuation ();
                      Taqp_obs.Tracer.close (Taqp_storage.Device.tracer device);
                      close_file ();
                      Fmt.pr "%a@." Report.pp report;
                      Option.iter (fun m -> Fmt.pr "%a@." Metrics.pp m) registry;
                      `Ok ()
                  | exception Taqp_relational.Ra.Type_error m ->
                      close_continuation ();
                      close_file ();
                      fail "type error: %s" m))
  in
  let term =
    Term.(
      ret
        (const run $ dir_arg $ journal_arg $ continue_arg $ downtime_arg
       $ trace_arg $ trace_out_arg $ trace_format_arg $ metrics_arg))
  in
  Cmd.v
    (Cmd.info "resume"
       ~doc:
         "Resume a killed time-constrained query from its stage journal: \
          re-armed at the original absolute deadline, the downtime lost, \
          nothing replayed.")
    term

(* ------------------------------------------------------------------ *)
(* exact                                                               *)

let exact_cmd =
  let aggregate_arg =
    Arg.(
      value & opt string "count"
      & info [ "a"; "aggregate" ] ~docv:"AGG" ~doc:"Aggregate to compute.")
  in
  let run dir query aggregate =
    match parse_query query with
    | Error e -> fail "%s" e
    | Ok expr -> (
        match Aggregate.parse aggregate with
        | exception Invalid_argument m -> fail "%s" m
        | aggregate -> (
            let catalog = load_catalog dir in
            let clock = Taqp_storage.Clock.create_virtual () in
            let device = Taqp_storage.Device.create clock in
            match Taqp.aggregate_exact ~device catalog ~aggregate expr with
            | v ->
                Fmt.pr "%a = %g@." Aggregate.pp aggregate v;
                Fmt.pr
                  "(an unconstrained evaluation would cost %.1f simulated \
                   seconds on the default device)@."
                  (Taqp_storage.Clock.now clock);
                `Ok ()
            | exception Taqp_relational.Ra.Type_error m -> fail "type error: %s" m))
  in
  let term = Term.(ret (const run $ dir_arg $ query_arg $ aggregate_arg)) in
  Cmd.v
    (Cmd.info "exact" ~doc:"Evaluate the aggregate exactly (ground truth).")
    term

(* ------------------------------------------------------------------ *)
(* explain                                                             *)

(* The static half of explain: compiled terms and the untrained cost
   curve, unchanged from previous releases. *)
let explain_static catalog expr =
  match Taqp_estimators.Inclusion_exclusion.rewrite expr with
  | terms ->
      Fmt.pr "relations:@.";
      List.iter
        (fun name ->
          let f = Catalog.find catalog name in
          Fmt.pr "  %-12s %6d tuples  %5d blocks  schema %a@." name
            (Heap_file.n_tuples f) (Heap_file.n_blocks f)
            Taqp_data.Schema.pp (Heap_file.schema f))
        (Catalog.names catalog);
      Fmt.pr "result schema: %a@." Taqp_data.Schema.pp
        (Taqp_relational.Ra.infer_catalog catalog expr);
      Fmt.pr "inclusion-exclusion terms (%d):@." (List.length terms);
      List.iter
        (fun (sign, t) ->
          Fmt.pr "  %c %a@."
            (if sign > 0 then '+' else '-')
            Taqp_relational.Ra.pp t)
        terms;
      let cm = Taqp_timecost.Cost_model.create () in
      let staged =
        Staged.compile ~catalog ~config:Config.default
          ~rng:(Taqp_rng.Prng.create 1) ~cost_model:cm expr
      in
      Fmt.pr "predicted first-stage cost (untrained cost model):@.";
      let price = Staged.pricer staged ~mode:Staged.Plain in
      List.iter
        (fun f -> Fmt.pr "  f = %-6g -> %8.2f s@." f (price f))
        [ 0.001; 0.01; 0.05; 0.1; 0.5 ];
      `Ok ()
  | exception Taqp_estimators.Inclusion_exclusion.Unsupported m -> fail "%s" m
  | exception Taqp_relational.Ra.Type_error m -> fail "type error: %s" m

(* The audited half: actually run the query with a budget ledger on the
   device's spend listener and a drift monitor on the executor's cost
   observations, then account for every virtual second. Same rng-stream
   discipline as [Taqp.aggregate_within] (both hooks are observational),
   so the report matches a plain [taqp query] run bit for bit. *)
let run_audited ~config ~seed ~fault_plan ~fault_seed ?cache ~catalog ~quota
    expr =
  let params = Taqp_storage.Cost_params.default in
  let rng = Taqp_rng.Prng.create seed in
  let clock = Taqp_storage.Clock.create_virtual () in
  let fault_seed = Option.value fault_seed ~default:seed in
  let faults =
    match fault_plan with
    | None -> None
    | Some plan when Fault_plan.is_none plan -> None
    | Some plan -> Some (Taqp_fault.Injector.create ~seed:fault_seed plan)
  in
  let device =
    Taqp_storage.Device.create ~params ~jitter_rng:(Taqp_rng.Prng.split rng)
      ?faults clock
  in
  let ledger = Ledger.create () in
  Taqp_storage.Device.set_spend_listener device (Some (Ledger.on_spend ledger));
  let drift = Drift.create () in
  let h =
    Executor.start ~config ~aggregate:Aggregate.Count ?cache ~device ~catalog
      ~rng ~quota expr
  in
  Executor.on_cost_observation h (Drift.observer drift);
  let rec loop () =
    match Executor.step h with `Continue -> loop () | `Done r -> r
  in
  let report = loop () in
  (report, ledger, drift)

let explain_audited ~config ~seed ~fault_plan ~fault_seed ?cache ~catalog
    ~quota ~json query expr =
  match
    run_audited ~config ~seed ~fault_plan ~fault_seed ?cache ~catalog ~quota
      expr
  with
  | exception Staged.Compile_error m -> fail "%s" m
  | exception Taqp_relational.Ra.Type_error m -> fail "type error: %s" m
  | exception Taqp_fault.Injector.Crashed { op; at } ->
      fail "crash fault killed the run during %s at t=%.3f" op at
  | report, ledger, drift ->
      let reconciliation = Ledger.reconcile ~quota ledger in
      let drift_report = Drift.report drift in
      if json then
        print_endline
          (Json.to_string
             (Json.Obj
                [
                  ("query", Json.Str query);
                  ("quota", Json.Num quota);
                  ("seed", Json.Num (float_of_int seed));
                  ( "outcome",
                    Json.Str (Report.outcome_name report.Report.outcome) );
                  ("estimate", Json.Num report.Report.estimate);
                  ("elapsed", Json.Num report.Report.elapsed);
                  ("degraded", Json.Bool report.Report.degraded);
                  ("fault_time", Json.Num report.Report.fault_time);
                  ("ledger", Ledger.reconciliation_json reconciliation);
                  ("drift", Drift.report_json drift_report);
                  ( "cache",
                    match cache with
                    | None -> Json.Null
                    | Some c -> Cache.stats_json c );
                ]))
      else begin
        Fmt.pr "%a@." Report.pp report;
        Fmt.pr "@.budget ledger (every virtual second, attributed):@.";
        Fmt.pr "%a@." Ledger.pp_reconciliation reconciliation;
        Option.iter
          (fun c ->
            let s = Cache.stats c in
            Fmt.pr "@.cache: %d hits, %d misses (ratio %.2f), %d evictions, \
                    %d bytes@."
              s.Cache.hits s.Cache.misses (Cache.hit_ratio c)
              s.Cache.evictions s.Cache.bytes)
          cache;
        Fmt.pr "@.cost-model drift:@.%a@." Drift.pp_report drift_report
      end;
      `Ok ()

let explain_workload ~policy ~admission ~fault_plan ~fault_seed ?cache ~catalog
    ~json jobs_file =
  let lines = In_channel.with_open_text jobs_file In_channel.input_lines in
  match Taqp_sched.Job.of_lines ~catalog lines with
  | Error m -> fail "%s: %s" jobs_file m
  | Ok [] -> fail "%s: no jobs" jobs_file
  | Ok jobs -> (
      let faults =
        Option.map
          (fun plan -> Taqp_fault.Injector.create ~seed:fault_seed plan)
          fault_plan
      in
      let meter = Meter.create () in
      let drift = Drift.create () in
      match
        Taqp_sched.Scheduler.run ~policy ?admission ?faults
          ~on_device:(Meter.attach meter)
          ~account:(Meter.set_account meter)
          ~on_dispatch:(fun _ h ->
            Executor.on_cost_observation h (Drift.observer drift))
          ?cache jobs
      with
      | exception Taqp_relational.Ra.Type_error m -> fail "type error: %s" m
      | exception Staged.Compile_error m -> fail "%s" m
      | exception Taqp_fault.Injector.Crashed { op; at } ->
          fail "crash fault killed the workload during %s at t=%.3f" op at
      | result ->
          let reports = result.Taqp_sched.Scheduler.reports in
          (* Advisory forensics evidence for cache-on runs: the seconds
             of this job's sample IO the cache's observed hit ratio
             says a warmer cache would have served at probe price. *)
          let miss_inflation_of (jr : Taqp_sched.Scheduler.job_report) =
            match cache with
            | None -> 0.0
            | Some c ->
                let id = jr.Taqp_sched.Scheduler.job.Taqp_sched.Job.id in
                if List.mem id (Meter.job_ids meter) then
                  let p = Taqp_storage.Cost_params.default in
                  Ledger.spend (Meter.ledger meter id) Ledger.Sample_io
                  *. Cache.hit_ratio c
                  *. (1.0
                     -. p.Taqp_storage.Cost_params.cache_probe
                        /. p.Taqp_storage.Cost_params.block_read)
                else 0.0
          in
          let classify jr =
            Forensics.classify ~cache_miss_inflation:(miss_inflation_of jr) jr
          in
          let verdicts = List.filter_map classify reports in
          let breakdown = Forensics.breakdown verdicts in
          let reconciliation_of (jr : Taqp_sched.Scheduler.job_report) =
            let id = jr.Taqp_sched.Scheduler.job.Taqp_sched.Job.id in
            if List.mem id (Meter.job_ids meter) then
              Some
                (Ledger.reconcile ?quota:jr.Taqp_sched.Scheduler.quota
                   (Meter.ledger meter id))
            else None
          in
          let drift_report = Drift.report drift in
          if json then
            print_endline
              (Json.to_string
                 (Json.Obj
                    [
                      ( "jobs",
                        Json.List
                          (List.map
                             (fun jr ->
                               let base =
                                 match
                                   Taqp_sched.Scheduler.job_report_json jr
                                 with
                                 | Json.Obj fields -> fields
                                 | j -> [ ("report", j) ]
                               in
                               Json.Obj
                                 (base
                                 @ [
                                     ( "cause",
                                       match classify jr with
                                       | None -> Json.Null
                                       | Some v -> Forensics.verdict_json v );
                                     ( "ledger",
                                       match reconciliation_of jr with
                                       | None -> Json.Null
                                       | Some r ->
                                           Ledger.reconciliation_json r );
                                   ]))
                             reports) );
                      ("forensics", Forensics.breakdown_json breakdown);
                      ("drift", Drift.report_json drift_report);
                      ( "summary",
                        Taqp_sched.Scheduler.summary_json
                          result.Taqp_sched.Scheduler.summary );
                    ]))
          else begin
            List.iter
              (fun (jr : Taqp_sched.Scheduler.job_report) ->
                let late = jr.Taqp_sched.Scheduler.lateness in
                match classify jr with
                | Some v ->
                    Fmt.pr "%-16s %-16s late=%6.2fs  %a@."
                      jr.Taqp_sched.Scheduler.job.Taqp_sched.Job.label
                      (Taqp_sched.Scheduler.outcome_name jr)
                      late Forensics.pp_verdict v
                | None ->
                    Fmt.pr "%-16s %-16s %s@."
                      jr.Taqp_sched.Scheduler.job.Taqp_sched.Job.label
                      (Taqp_sched.Scheduler.outcome_name jr)
                      (if jr.Taqp_sched.Scheduler.admitted then "met deadline"
                       else "not admitted"))
              reports;
            Fmt.pr "@.forensics: %d missed@." breakdown.Forensics.b_missed;
            List.iter
              (fun (c, n) ->
                if n > 0 then
                  Fmt.pr "  %-24s %d@." (Forensics.cause_name c) n)
              breakdown.Forensics.b_by_cause;
            let inexact =
              List.filter
                (fun jr ->
                  match reconciliation_of jr with
                  | Some r -> not r.Ledger.r_exact
                  | None -> false)
                reports
            in
            (if inexact = [] then
               Fmt.pr
                 "@.budget ledgers: all %d metered jobs reconcile bit-exactly@."
                 (List.length (Meter.job_ids meter))
             else
               List.iter
                 (fun (jr : Taqp_sched.Scheduler.job_report) ->
                   Fmt.pr "@.LEDGER NOT EXACT for %s@."
                     jr.Taqp_sched.Scheduler.job.Taqp_sched.Job.label)
                 inexact);
            Fmt.pr "@.cost-model drift:@.%a@." Drift.pp_report drift_report;
            Fmt.pr "@.%a@." Taqp_sched.Scheduler.pp_summary
              result.Taqp_sched.Scheduler.summary
          end;
          `Ok ())

let explain_cmd =
  let query_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"QUERY"
          ~doc:
            "RA query, e.g. 'count(select[sel < 1000](r))'. Required unless \
             $(b,--jobs) is given.")
  in
  let quota_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "q"; "quota" ] ~docv:"SECONDS"
          ~doc:
            "Audit an actual run: evaluate the query within this quota with \
             a budget ledger attached, then print where every virtual \
             second went and how the cost model is drifting.")
  in
  let physical_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("sort", Config.Sort_merge);
               ("hash", Config.Hash);
               ("adaptive", Config.Adaptive);
             ])
          Config.Sort_merge
      & info [ "physical" ] ~docv:"PATH"
          ~doc:"Physical path for the audited run: $(b,sort), $(b,hash) or \
                $(b,adaptive).")
  in
  let observe_arg =
    Arg.(
      value & flag
      & info [ "observe" ]
          ~doc:
            "Audit in ERAM's measurement mode: let the final stage finish \
             and account the overspend instead of aborting at the deadline.")
  in
  let faults_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"SCENARIO"
          ~doc:
            "Inject storage faults into the audited run (preset or DSL, see \
             docs/ROBUSTNESS.md); the ledger attributes their cost to the \
             fault category.")
  in
  let fault_seed_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "fault-seed" ] ~docv:"N"
          ~doc:"Seed of the fault injector's random stream (default: \
                $(b,--seed)).")
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "j"; "jobs" ] ~docv:"FILE"
          ~doc:
            "Miss forensics over a whole workload: run the job file through \
             the scheduler with per-job budget ledgers and name a root \
             cause for every missed deadline (same file format as \
             $(b,taqp serve)).")
  in
  let policy_arg =
    Arg.(
      value
      & opt
          (enum
             (List.map (fun p -> (Taqp_sched.Policy.name p, p))
                Taqp_sched.Policy.all))
          Taqp_sched.Policy.Edf
      & info [ "policy" ] ~docv:"NAME"
          ~doc:"With $(b,--jobs): scheduling policy.")
  in
  let admission_arg =
    Arg.(
      value & flag
      & info [ "admission" ]
          ~doc:"With $(b,--jobs): admission control on arrivals.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the audit as one JSON object instead of prose.")
  in
  let run dir query quota physical observe faults fault_seed jobs policy
      admission json cache_mb seed =
    match
      match faults with
      | None -> Ok None
      | Some s -> Result.map Option.some (Fault_plan.of_string s)
    with
    | Error m -> fail "bad --faults scenario: %s" m
    | Ok fault_plan -> (
        let catalog = load_catalog dir in
        let admission =
          if admission then Some (Taqp_sched.Admission.make ()) else None
        in
        let cache = make_cache ~seed cache_mb in
        match (jobs, query, quota) with
        | Some jobs_file, None, _ ->
            let fault_seed = Option.value fault_seed ~default:seed in
            explain_workload ~policy ~admission ~fault_plan ~fault_seed ?cache
              ~catalog ~json jobs_file
        | Some _, Some _, _ -> fail "--jobs and a QUERY are exclusive"
        | None, None, _ -> fail "a QUERY (or --jobs FILE) is required"
        | None, Some q, Some quota -> (
            match parse_query q with
            | Error e -> fail "%s" e
            | Ok expr ->
                let stopping =
                  if observe then Stopping.Soft_deadline { grace = 1e9 }
                  else Stopping.Hard_deadline
                in
                let config =
                  {
                    Config.default with
                    Config.stopping;
                    physical;
                    trace = true;
                  }
                in
                explain_audited ~config ~seed ~fault_plan ~fault_seed ?cache
                  ~catalog ~quota ~json q expr)
        | None, Some q, None -> (
            match parse_query q with
            | Error e -> fail "%s" e
            | Ok expr -> explain_static catalog expr))
  in
  let term =
    Term.(
      ret
        (const run $ dir_arg $ query_arg $ quota_arg $ physical_arg
       $ observe_arg $ faults_arg $ fault_seed_arg $ jobs_arg $ policy_arg
       $ admission_arg $ json_arg $ cache_arg $ seed_arg))
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Explain a query (compiled terms, cost curve) — or, with \
          $(b,--quota) / $(b,--jobs), audit where the time went: budget \
          ledger, cost-model drift and per-miss root causes.")
    term

(* ------------------------------------------------------------------ *)
(* serve                                                               *)

(* The serving core shared by the batch and socket doors: one
   self-contained JSON line per job — journaled terminal lines first,
   then this run's reports — and the workload summary, so stdout is a
   JSONL stream a pipeline can consume with the same shape whichever
   door the jobs came through. Ends with the exit-code rule: nonzero
   iff an admitted job missed its hard deadline — rejected jobs were
   refused up front and do not fail the batch (docs/SERVING.md). *)
let serve_report ~slo ~slo_window ~cache ~registry ?(extra = []) ~journaled
    ~reports summary =
  List.iter
    (fun d ->
      print_endline
        (Taqp_obs.Json.to_string (Taqp_sched.Scheduler.done_record_json d)))
    journaled;
  List.iter
    (fun r ->
      print_endline
        (Taqp_obs.Json.to_string (Taqp_sched.Scheduler.job_report_json r)))
    reports;
  (* SLO monitor: every admitted terminal job, replayed in completion
     order through the rolling window *)
  let slo_fields =
    match slo with
    | None -> []
    | Some target ->
        let monitor =
          Slo.create ~window:slo_window ~target_miss_rate:target ()
        in
        let terminal =
          List.map
            (fun (d : Sched_journal.done_record) ->
              ( d.Sched_journal.d_finished_at,
                d.Sched_journal.d_admitted,
                d.Sched_journal.d_missed,
                d.Sched_journal.d_lateness ))
            journaled
          @ List.filter_map
              (fun (r : Taqp_sched.Scheduler.job_report) ->
                match r.Taqp_sched.Scheduler.outcome with
                | Taqp_sched.Scheduler.Rejected _ -> None
                | _ ->
                    Some
                      ( r.Taqp_sched.Scheduler.finished_at,
                        r.Taqp_sched.Scheduler.admitted,
                        r.Taqp_sched.Scheduler.missed,
                        r.Taqp_sched.Scheduler.lateness ))
              reports
        in
        List.iter
          (fun (_, admitted, missed, lateness) ->
            if admitted then Slo.observe monitor ~missed ~lateness)
          (List.sort
             (fun (a, _, _, _) (b, _, _, _) -> Float.compare a b)
             terminal);
        Fmt.epr "%a@." Slo.pp monitor;
        [ ("slo", Slo.to_json monitor) ]
  in
  let cache_fields =
    match cache with
    | None -> []
    | Some c -> [ ("cache", Cache.stats_json c) ]
  in
  print_endline
    (Taqp_obs.Json.to_string
       (Taqp_obs.Json.Obj
          (("summary", Taqp_sched.Scheduler.summary_json summary)
          :: (slo_fields @ cache_fields @ extra))));
  Fmt.epr "%a@." Taqp_sched.Scheduler.pp_summary summary;
  Option.iter (fun m -> Fmt.epr "%a@." Metrics.pp m) registry;
  if
    List.exists
      (fun (d : Sched_journal.done_record) ->
        d.Sched_journal.d_admitted && d.Sched_journal.d_missed)
      journaled
    || List.exists
         (fun (r : Taqp_sched.Scheduler.job_report) ->
           r.Taqp_sched.Scheduler.admitted && r.Taqp_sched.Scheduler.missed)
         reports
  then exit 1
  else `Ok ()

let serve_cmd =
  let jobs_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "j"; "jobs" ] ~docv:"FILE"
          ~doc:
            "Job file, one job per line: 'arrival | deadline | query [| \
             key=value,...]' with options priority=INT, seed=INT, \
             label=STRING and min_rhw=FLOAT. Blank lines and # comments \
             are skipped. $(b,-) reads the job stream from stdin. \
             Required in batch mode; excluded by $(b,--listen).")
  in
  let policy_arg =
    Arg.(
      value
      & opt
          (enum
             (List.map (fun p -> (Taqp_sched.Policy.name p, p))
                Taqp_sched.Policy.all))
          Taqp_sched.Policy.Edf
      & info [ "policy" ] ~docv:"NAME"
          ~doc:
            "Scheduling policy: $(b,fifo), $(b,edf), $(b,llf) or $(b,wfq).")
  in
  let admission_arg =
    Arg.(
      value & flag
      & info [ "admission" ]
          ~doc:
            "Price each arrival with the executor's cost nodes and reject \
             (or degrade) jobs whose slack cannot cover their minimum \
             viable stage.")
  in
  let max_queue_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-queue" ] ~docv:"N"
          ~doc:"With $(b,--admission): reject beyond N live jobs.")
  in
  let headroom_arg =
    Arg.(
      value & opt float 1.0
      & info [ "headroom" ] ~docv:"FACTOR"
          ~doc:
            "With $(b,--admission): demand FACTOR x the priced requirement \
             (>= 1).")
  in
  let metrics_arg =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Print the metrics registry (sched.* counters) to stderr.")
  in
  let faults_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"SCENARIO"
          ~doc:
            "Inject storage faults into the shared device (preset or DSL, \
             see docs/ROBUSTNESS.md). A faulted job degrades through the \
             executor's containment; the queue keeps draining.")
  in
  let fault_seed_arg =
    Arg.(
      value & opt int 42
      & info [ "fault-seed" ] ~docv:"N"
          ~doc:"Seed of the fault injector's random stream.")
  in
  let journal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Write-ahead journal every admission decision, step and \
             terminal accounting line to $(docv), each write charged to \
             the shared clock. A killed serve is recovered with \
             $(b,--recover); see docs/RECOVERY.md.")
  in
  let recover_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "recover" ] ~docv:"FILE"
          ~doc:
            "Recover a killed serve from its journal: jobs whose terminal \
             record survived are reported from the journal, every other \
             job is re-run with whatever slack its absolute deadline still \
             leaves after $(b,--downtime). Run against the same job file.")
  in
  let downtime_arg =
    Arg.(
      value & opt float 0.0
      & info [ "downtime" ] ~docv:"SECONDS"
          ~doc:
            "With $(b,--recover): virtual seconds between the crash and \
             the restart. Deadlines that passed during the outage expire \
             at dispatch instead of wasting budget.")
  in
  let slo_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "slo" ] ~docv:"TARGET"
          ~doc:
            "Monitor the workload against a miss-rate SLO: TARGET in [0,1] \
             is the tolerated miss rate over the rolling window of the \
             most recent admitted jobs. Prints the burn rate (observed \
             miss rate over target — above 1.0 the error budget is \
             burning) to stderr and adds an $(b,slo) object to the \
             summary JSON line. 0 is a hard SLO: any miss is infinite \
             burn.")
  in
  let slo_window_arg =
    Arg.(
      value & opt int 20
      & info [ "slo-window" ] ~docv:"N"
          ~doc:"With $(b,--slo): rolling window size in jobs.")
  in
  let listen_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "listen" ] ~docv:"PORT"
          ~doc:
            "Socket mode: bind the TAQPNET1 front door to \
             127.0.0.1:$(docv) (0 picks an ephemeral port, printed to \
             stderr) and take jobs over the wire instead of from a file \
             (submit them with $(b,taqp submit)). The per-job JSON lines, \
             summary object, SLO monitor and exit codes are identical to \
             batch mode; see docs/SERVING.md.")
  in
  let gate_arg =
    Arg.(
      value
      & opt (enum [ ("eager", `Eager); ("drain", `Drain) ]) `Eager
      & info [ "gate" ] ~docv:"MODE"
          ~doc:
            "With $(b,--listen): $(b,eager) steps the scheduler whenever \
             it has work (real serving); $(b,drain) freezes the virtual \
             clock until a client sends DRAIN, so a whole arrival \
             schedule queues first and the run is bit-identical to the \
             same jobs through batch mode.")
  in
  let max_pending_arg =
    Arg.(
      value & opt int 4096
      & info [ "max-pending" ] ~docv:"N"
          ~doc:
            "With $(b,--listen): refuse SUBMITs at the door beyond \
             $(docv) not-yet-terminal jobs (the memory bound; refusals \
             carry a priced retry_after).")
  in
  let quota_capacity_arg =
    Arg.(
      value & opt float 64.0
      & info [ "quota-capacity" ] ~docv:"TOKENS"
          ~doc:
            "With $(b,--listen): per-connection token-bucket burst \
             capacity — one token per SUBMIT, buckets start full.")
  in
  let quota_refill_arg =
    Arg.(
      value & opt float 4.0
      & info [ "quota-refill" ] ~docv:"RATE"
          ~doc:
            "With $(b,--listen): token-bucket refill, in tokens per \
             virtual second on the server's clock.")
  in
  let run dir jobs_file policy admission max_queue headroom metrics faults
      fault_seed journal recover downtime slo slo_window cache_mb domains
      listen gate max_pending quota_capacity quota_refill =
    if domains < 1 then fail "--domains must be >= 1"
    else
    match
      match faults with
      | None -> Ok None
      | Some s -> Result.map Option.some (Fault_plan.of_string s)
    with
    | Error m -> fail "bad --faults scenario: %s" m
    | Ok fault_plan -> (
        match
          if admission then
            match Taqp_sched.Admission.make ?max_queue ~headroom () with
            | a -> Ok (Some a)
            | exception Invalid_argument m -> Error m
          else Ok None
        with
        | Error m -> fail "%s" m
        | Ok admission -> (
            if downtime < 0.0 then fail "--downtime must be >= 0"
            else if
              match slo with Some t -> t < 0.0 || t > 1.0 | None -> false
            then fail "--slo target must be in [0,1]"
            else if slo <> None && slo_window < 1 then
              fail "--slo-window must be >= 1"
            else if journal <> None && journal = recover then
              fail "--journal and --recover cannot name the same file"
            else if listen <> None && jobs_file <> None then
              fail
                "--jobs and --listen are mutually exclusive: socket jobs \
                 arrive over the wire ('taqp submit')"
            else if listen = None && jobs_file = None then
              fail "--jobs is required (or --listen PORT for the socket door)"
            else if max_pending < 1 then fail "--max-pending must be >= 1"
            else if quota_capacity <= 0.0 then
              fail "--quota-capacity must be > 0"
            else if quota_refill < 0.0 then fail "--quota-refill must be >= 0"
            else
            let catalog = load_catalog dir in
            let registry =
              if metrics then Some (Metrics.create ()) else None
            in
            let cache = make_cache ~seed:0 cache_mb in
            let faults =
              Option.map
                (fun plan -> Taqp_fault.Injector.create ~seed:fault_seed plan)
                fault_plan
            in
            match listen with
            | Some port -> (
                (* The socket door: same scheduler, same accounting,
                   same output shape — jobs arrive as wire frames and
                   the admission verdicts go back as priced REJECTs. *)
                match
                  match recover with
                  | None -> Ok None
                  | Some rpath -> (
                      match Sched_journal.load rpath with
                      | Error m -> Error m
                      | Ok { Sched_journal.records = []; _ } ->
                          Error (rpath ^ ": journal is empty")
                      | Ok { Sched_journal.records; torn } ->
                          Option.iter
                            (fun t ->
                              Fmt.epr "note: journal %s (tail discarded)@." t)
                            torn;
                          Ok (Some records))
                with
                | Error m -> fail "%s" m
                | Ok records -> (
                    (* A recovered serve never re-creates its own
                       killer: pending Crash rules are disabled,
                       everything else keeps firing. *)
                    if records <> None then
                      Option.iter Taqp_fault.Injector.disable_crashes faults;
                    let config = { Config.default with Config.domains } in
                    match
                      Taqp_net.Server.create ~policy ?admission
                        ?metrics:registry ?faults ?cache ~gate ~max_pending
                        ~quota_capacity ~quota_refill ?journal_path:journal
                        ?recover:records ~downtime ~catalog ~config ~port ()
                    with
                    | exception Unix.Unix_error (e, _, _) ->
                        fail "cannot listen on 127.0.0.1:%d: %s" port
                          (Unix.error_message e)
                    | exception Sys_error m -> fail "cannot open journal: %s" m
                    | server -> (
                        Fmt.epr "taqp: listening on 127.0.0.1:%d (%s gate)@."
                          (Taqp_net.Server.port server)
                          (match gate with
                          | `Eager -> "eager"
                          | `Drain -> "drain");
                        match Taqp_net.Server.run server with
                        | exception Taqp_fault.Injector.Crashed { op; at } ->
                            Taqp_net.Server.shutdown server;
                            let hint =
                              match journal with
                              | Some p ->
                                  Fmt.str
                                    " — recover with: taqp serve --dir %s \
                                     --listen %d --recover %s"
                                    dir port p
                              | None -> ""
                            in
                            fail
                              "crash fault killed the server during %s at \
                               t=%.3f%s"
                              op at hint
                        | stats ->
                            let n i = Json.Num (float_of_int i) in
                            serve_report ~slo ~slo_window ~cache ~registry
                              ~extra:
                                [ ( "net",
                                    Json.Obj
                                      [
                                        ( "max_live",
                                          n stats.Taqp_net.Server.max_live );
                                        ( "door_rejects",
                                          n stats.Taqp_net.Server.door_rejects
                                        );
                                      ] );
                                ]
                              ~journaled:stats.Taqp_net.Server.journaled
                              ~reports:
                                stats.Taqp_net.Server.result
                                  .Taqp_sched.Scheduler.reports
                              stats.Taqp_net.Server.summary)))
            | None -> (
                let src = Option.get jobs_file in
                let src_name = if src = "-" then "stdin" else src in
                match
                  if src = "-" then Taqp_sched.Job.of_channel ~catalog stdin
                  else
                    In_channel.with_open_text src
                      (Taqp_sched.Job.of_channel ~catalog)
                with
                | exception Sys_error m -> fail "%s" m
                | Error m -> fail "%s: %s" src_name m
                | Ok [] -> fail "%s: no jobs" src_name
                | Ok jobs -> (
                let jobs =
                  List.map
                    (fun (j : Taqp_sched.Job.t) ->
                      { j with config = { j.config with domains } })
                    jobs
                in
                match Option.map Taqp_recover.Journal.create journal with
                | exception Sys_error m -> fail "cannot open journal: %s" m
                | jwriter -> (
                let close_journal () =
                  Option.iter Taqp_recover.Journal.close jwriter
                in
                match recover with
                | None -> (
                    match
                      Taqp_sched.Scheduler.run ~policy ?admission
                        ?metrics:registry ?faults ?journal:jwriter ?cache jobs
                    with
                    | exception Taqp_relational.Ra.Type_error m ->
                        close_journal ();
                        fail "type error: %s" m
                    | exception Staged.Compile_error m ->
                        close_journal ();
                        fail "%s" m
                    | exception Taqp_fault.Injector.Crashed { op; at } ->
                        close_journal ();
                        let hint =
                          match journal with
                          | Some p ->
                              Fmt.str
                                " — recover with: taqp serve --dir %s --jobs \
                                 %s --recover %s"
                                dir src p
                          | None -> ""
                        in
                        fail
                          "crash fault killed the workload during %s at \
                           t=%.3f%s"
                          op at hint
                    | result ->
                        close_journal ();
                        serve_report ~slo ~slo_window ~cache ~registry
                          ~journaled:[]
                          ~reports:result.Taqp_sched.Scheduler.reports
                          result.Taqp_sched.Scheduler.summary)
                | Some rpath -> (
                    match Sched_journal.load rpath with
                    | Error m ->
                        close_journal ();
                        fail "%s" m
                    | Ok { Sched_journal.records = []; _ } ->
                        close_journal ();
                        fail "%s: journal is empty" rpath
                    | Ok { Sched_journal.records; torn } -> (
                        Option.iter
                          (fun t ->
                            Fmt.epr "note: journal %s (tail discarded)@." t)
                          torn;
                        (* A recovered serve never re-creates its own
                           killer: pending Crash rules are disabled,
                           everything else keeps firing. *)
                        Option.iter Taqp_fault.Injector.disable_crashes
                          faults;
                        match
                          Taqp_sched.Scheduler.recover ~policy ?admission
                            ?metrics:registry ?faults ?journal:jwriter ?cache
                            ~downtime ~records jobs
                        with
                        | exception Taqp_relational.Ra.Type_error m ->
                            close_journal ();
                            fail "type error: %s" m
                        | exception Staged.Compile_error m ->
                            close_journal ();
                            fail "%s" m
                        | recovery ->
                            close_journal ();
                            serve_report ~slo ~slo_window ~cache ~registry
                              ~journaled:
                                recovery.Taqp_sched.Scheduler.r_journaled
                              ~reports:
                                recovery.Taqp_sched.Scheduler.r_run
                                  .Taqp_sched.Scheduler.reports
                              recovery.Taqp_sched.Scheduler.r_summary)))))))
  in
  let term =
    Term.(
      ret
        (const run $ dir_arg $ jobs_arg $ policy_arg $ admission_arg
       $ max_queue_arg $ headroom_arg $ metrics_arg $ faults_arg
       $ fault_seed_arg $ journal_arg $ recover_arg $ downtime_arg $ slo_arg
       $ slo_window_arg $ cache_arg $ domains_arg $ listen_arg $ gate_arg
       $ max_pending_arg $ quota_capacity_arg $ quota_refill_arg))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run deadline-constrained jobs through the multi-query scheduler — \
          from a job file ($(b,--jobs), $(b,-) for stdin) or over a socket \
          ($(b,--listen)) — one JSON line per job; exits nonzero iff an \
          admitted job missed its deadline (docs/SERVING.md).")
    term

(* ------------------------------------------------------------------ *)
(* submit                                                              *)

let submit_cmd =
  let port_arg =
    Arg.(
      required
      & opt (some int) None
      & info [ "p"; "port" ] ~docv:"PORT"
          ~doc:"TCP port of a $(b,taqp serve --listen) server (loopback).")
  in
  let jobs_arg =
    Arg.(
      value & opt string "-"
      & info [ "j"; "jobs" ] ~docv:"FILE"
          ~doc:
            "Job file with the same line grammar as $(b,serve --jobs); \
             arrival and deadline are offsets from the server's virtual \
             now. $(b,-) (the default) reads stdin.")
  in
  let drain_flag =
    Arg.(
      value & flag
      & info [ "drain" ]
          ~doc:
            "After submitting, send DRAIN: the server stops admitting, \
             executes its whole backlog, broadcasts the final summary \
             (printed as the last JSON line) and shuts down. The only way \
             to get results out of a $(b,--gate drain) server.")
  in
  let no_wait_flag =
    Arg.(
      value & flag
      & info [ "no-wait" ]
          ~doc:
            "Exit right after the door's QUEUED/REJECTED verdicts without \
             waiting for terminal records. The exit code then only \
             reflects the door.")
  in
  let connect_timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "connect-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Bound the TCP connect (wall seconds) and retry a refused or \
             timed-out dial a few times with backoff — for racing a server \
             or balancer that is still binding its port. Default: a single \
             blocking connect.")
  in
  let run port connect_timeout jobs_file do_drain no_wait =
    match
      if jobs_file = "-" then In_channel.input_lines stdin
      else In_channel.with_open_text jobs_file In_channel.input_lines
    with
    | exception Sys_error m -> fail "%s" m
    | raw_lines -> (
        let lines =
          List.filter
            (fun l ->
              let l = String.trim l in
              l <> "" && l.[0] <> '#')
            raw_lines
        in
        if lines = [] then fail "%s: no job lines" jobs_file
        else
          match
            match connect_timeout with
            | None -> Taqp_net.Client.connect ~port ()
            | Some _ ->
                Taqp_net.Client.connect_retry ?connect_timeout ~port ()
          with
          | exception Unix.Unix_error (e, _, _) ->
              fail "cannot connect to 127.0.0.1:%d: %s" port
                (Unix.error_message e)
          | exception Taqp_net.Client.Timed_out phase ->
              fail "connect to 127.0.0.1:%d timed out (%s)" port phase
          | exception Taqp_net.Client.Protocol_error m ->
              fail "handshake failed: %s" m
          | client -> (
              let event kind fields =
                print_endline
                  (Json.to_string
                     (Json.Obj (("event", Json.Str kind) :: fields)))
              in
              let finished = Hashtbl.create 16 in
              let refused = Hashtbl.create 4 in
              let harvest () =
                List.iter
                  (function
                    | Taqp_net.Client.Finished d ->
                        Hashtbl.replace finished d.Sched_journal.d_id d
                    | Taqp_net.Client.Refused { job_id; reason; retry_after }
                      ->
                        if not (Hashtbl.mem refused job_id) then (
                          Hashtbl.replace refused job_id ();
                          event "rejected"
                            [
                              ("id", Json.Num (float_of_int job_id));
                              ("reason", Json.Str reason);
                              ("retry_after", Json.Num retry_after);
                            ]))
                  (Taqp_net.Client.pushes client)
              in
              let terminal id =
                Hashtbl.mem finished id || Hashtbl.mem refused id
              in
              (* The whole exchange runs under one handler: the server
                 can hang up at any frame (a crash fault propagates the
                 moment the engine steps into it, even before a QUEUED
                 reply flushes). Door verdicts already printed stay
                 printed — partial progress is evidence. *)
              match
                let queued =
                  List.filter_map
                    (fun line ->
                      match Taqp_net.Client.submit client line with
                      | `Queued (id, arrival, deadline) ->
                          event "queued"
                            [
                              ("id", Json.Num (float_of_int id));
                              ("arrival", Json.Num arrival);
                              ("deadline", Json.Num deadline);
                            ];
                          Some id
                      | `Rejected (reason, retry_after) ->
                          event "door_rejected"
                            [
                              ("reason", Json.Str reason);
                              ("retry_after", Json.Num retry_after);
                            ];
                          None)
                    lines
                in
                if no_wait then `No_wait
                else
                  (* Wait for every queued job's terminal record: the
                     server pushes them to the owning connection; a
                     FETCH-poll covers records that raced the pushes. *)
                  let summary =
                    if do_drain then Some (Taqp_net.Client.drain client)
                    else None
                  in
                  harvest ();
                  let rec poll_rest = function
                    | [] -> ()
                    | id :: rest when terminal id -> poll_rest rest
                    | id :: rest -> (
                        match Taqp_net.Client.fetch client ~job_id:id with
                        | `Result d ->
                            Hashtbl.replace finished id d;
                            harvest ();
                            poll_rest rest
                        | `Pending _ ->
                            Unix.sleepf 0.05;
                            harvest ();
                            poll_rest (id :: rest))
                  in
                  if summary = None then poll_rest queued;
                  harvest ();
                  `Done (queued, summary)
              with
              | exception Taqp_net.Client.Server_closed ->
                  (try Taqp_net.Client.close client with _ -> ());
                  fail
                    "server hung up before every job was terminal (crash \
                     fault? recover it and FETCH the survivors)"
              | exception Taqp_net.Client.Protocol_error m ->
                  (try Taqp_net.Client.close client with _ -> ());
                  fail "protocol error: %s" m
              | `No_wait ->
                  Taqp_net.Client.close client;
                  `Ok ()
              | `Done (queued, summary) ->
                  List.iter
                    (fun id ->
                      match Hashtbl.find_opt finished id with
                      | Some d ->
                          print_endline
                            (Json.to_string
                               (Taqp_sched.Scheduler.done_record_json d))
                      | None -> ())
                    queued;
                  Option.iter
                    (fun s ->
                      print_endline
                        (Json.to_string
                           (Json.Obj
                              [
                                ( "summary",
                                  Taqp_sched.Scheduler.summary_json s );
                              ])))
                    summary;
                  Taqp_net.Client.close client;
                  (* Same rule as serve: nonzero iff an admitted job
                     missed its hard deadline. *)
                  if
                    Hashtbl.fold
                      (fun _ (d : Sched_journal.done_record) acc ->
                        acc
                        || (d.Sched_journal.d_admitted
                           && d.Sched_journal.d_missed))
                      finished false
                  then exit 1
                  else `Ok ()))
  in
  let term =
    Term.(
      ret
        (const run $ port_arg $ connect_timeout_arg $ jobs_arg $ drain_flag
       $ no_wait_flag))
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit job lines to a running $(b,taqp serve --listen) server and \
          await their terminal records (one JSON line per event/record; \
          exits nonzero iff an admitted job missed its deadline). \
          $(b,--drain) additionally executes a drain-gated server's backlog \
          and prints the final summary.")
    term

(* ------------------------------------------------------------------ *)
(* balance                                                             *)

let balance_cmd =
  let listen_arg =
    Arg.(
      required
      & opt (some int) None
      & info [ "listen" ] ~docv:"PORT"
          ~doc:"Loopback TCP port to serve clients on (0 = ephemeral).")
  in
  let backends_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "backends" ] ~docv:"SPEC"
          ~doc:
            "Comma-separated backend list: $(b,PORT) or \
             $(b,PORT=JOURNAL), e.g. \
             $(b,7601=/tmp/b1.jrn,7602=/tmp/b2.jrn). Each names a running \
             $(b,taqp serve --listen) process; a journal path enables \
             replay and job migration when that backend dies.")
  in
  let no_failover_flag =
    Arg.(
      value & flag
      & info [ "no-failover" ]
          ~doc:
            "Do not migrate a dead backend's unfinished journaled jobs to \
             survivors; write each off as a $(b,lost) terminal instead \
             (the control arm of the failover experiment).")
  in
  let downtime_arg =
    Arg.(
      value & opt float 0.0
      & info [ "downtime" ] ~docv:"SECONDS"
          ~doc:
            "Virtual seconds charged against a migrated job's remaining \
             slack — the failure-detection-plus-restart cost the paper's \
             time constraints must absorb.")
  in
  let parse_backends spec =
    String.split_on_char ',' spec
    |> List.filter_map (fun s ->
           let s = String.trim s in
           if s = "" then None
           else
             match String.index_opt s '=' with
             | None -> (
                 match int_of_string_opt s with
                 | Some p -> Some { Taqp_net.Balancer.Proxy.bs_port = p; bs_journal = None }
                 | None -> failwith ("bad backend port: " ^ s))
             | Some i -> (
                 let port = String.sub s 0 i in
                 let path = String.sub s (i + 1) (String.length s - i - 1) in
                 match int_of_string_opt (String.trim port) with
                 | Some p ->
                     Some
                       {
                         Taqp_net.Balancer.Proxy.bs_port = p;
                         bs_journal = Some (String.trim path);
                       }
                 | None -> failwith ("bad backend port: " ^ s)))
  in
  let run port backends_spec no_failover downtime =
    match parse_backends backends_spec with
    | exception Failure m -> fail "%s" m
    | [] -> fail "no backends in %S" backends_spec
    | backends -> (
        match
          Taqp_net.Balancer.Proxy.create ~failover:(not no_failover) ~downtime
            ~port ~backends ()
        with
        | exception Unix.Unix_error (e, _, ctx) ->
            fail "cannot start balancer: %s (%s)" (Unix.error_message e) ctx
        | proxy ->
            Fmt.epr "balancing 127.0.0.1:%d over %d backends@."
              (Taqp_net.Balancer.Proxy.port proxy)
              (List.length backends);
            let stats = Taqp_net.Balancer.Proxy.run proxy in
            List.iter
              (fun d ->
                print_endline
                  (Json.to_string (Taqp_sched.Scheduler.done_record_json d)))
              stats.Taqp_net.Balancer.Proxy.p_records;
            let n x = Json.Num (float_of_int x) in
            print_endline
              (Json.to_string
                 (Json.Obj
                    [
                      ( "summary",
                        Taqp_sched.Scheduler.summary_json
                          stats.Taqp_net.Balancer.Proxy.p_summary );
                      ( "balance",
                        Json.Obj
                          [
                            ("submitted", n stats.Taqp_net.Balancer.Proxy.p_submitted);
                            ( "door_rejects",
                              n stats.Taqp_net.Balancer.Proxy.p_door_rejects );
                            ("deaths", n stats.Taqp_net.Balancer.Proxy.p_deaths);
                            ("migrated", n stats.Taqp_net.Balancer.Proxy.p_migrated);
                            ("replayed", n stats.Taqp_net.Balancer.Proxy.p_replayed);
                            ("lost", n stats.Taqp_net.Balancer.Proxy.p_lost);
                          ] );
                    ]));
            (* Same verdict rule as serve/submit: nonzero iff an
               admitted job missed its hard deadline. *)
            if
              List.exists
                (fun (d : Sched_journal.done_record) ->
                  d.Sched_journal.d_admitted && d.Sched_journal.d_missed)
                stats.Taqp_net.Balancer.Proxy.p_records
            then exit 1
            else `Ok ())
  in
  let term =
    Term.(
      ret
        (const run $ listen_arg $ backends_arg $ no_failover_flag
       $ downtime_arg))
  in
  Cmd.v
    (Cmd.info "balance"
       ~doc:
         "Front several $(b,taqp serve --listen) backends with the \
          replicated serving tier: least-priced-backlog routing, \
          health-checked circuit breakers, and journal-backed failover \
          that migrates a dead backend's unfinished jobs to survivors \
          (docs/HA.md). Serves until a client drains the tier; prints one \
          JSON line per terminal record plus the cross-backend summary; \
          exits nonzero iff an admitted job missed its deadline.")
    term

(* ------------------------------------------------------------------ *)

let () =
  let doc = "time-constrained aggregate query processing (SIGMOD 1989)" in
  let info = Cmd.info "taqp" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            gen_cmd;
            query_cmd;
            resume_cmd;
            exact_cmd;
            explain_cmd;
            serve_cmd;
            submit_cmd;
            balance_cmd;
          ]))
