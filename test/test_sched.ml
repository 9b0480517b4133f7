(* taqp_sched: the multi-query deadline scheduler.

   The load-bearing property is seed-compatibility: one job pushed
   through the scheduler — under ANY policy — must produce a report
   bit-identical to a direct Taqp.count_within with the same seed and
   quota, because the scheduler reproduces count_within's rng-stream
   discipline on a jitter-free device and Executor.run is itself the
   start/step loop. Everything else (policies, admission, preemption)
   is tested on top of that anchor. *)

module Taqp = Taqp_core.Taqp
module Report = Taqp_core.Report
module Config = Taqp_core.Config
module Io_stats = Taqp_storage.Io_stats
module Cost_params = Taqp_storage.Cost_params
module Confidence = Taqp_stats.Confidence
module Paper_setup = Taqp_workload.Paper_setup
module Fault_plan = Taqp_fault.Fault_plan
module Injector = Taqp_fault.Injector
module Json = Taqp_obs.Json
module Job = Taqp_sched.Job
module Policy = Taqp_sched.Policy
module Admission = Taqp_sched.Admission
module Scheduler = Taqp_sched.Scheduler

let checkb = Fixtures.checkb
let checki = Fixtures.checki
let checks = Alcotest.check Alcotest.string

let report_fingerprint (r : Report.t) =
  Fmt.str "%a|%.17g|%.17g|%.17g|%.17g|%d|%a" Report.pp r r.Report.estimate
    r.Report.variance r.Report.confidence.Confidence.half_width
    r.Report.elapsed
    (List.length r.Report.trace)
    Io_stats.pp r.Report.io

let selection =
  lazy (Paper_setup.selection ~spec:(Fixtures.spec ~n_tuples:500 ()) ~seed:5 ())

let join = lazy (Paper_setup.join ~spec:(Fixtures.spec ()) ~seed:6 ())

let intersection =
  lazy (Paper_setup.intersection ~spec:(Fixtures.spec ()) ~overlap:120 ~seed:7 ())

let workloads =
  lazy
    [
      ("selection", Lazy.force selection, 1.5);
      ("join", Lazy.force join, 2.0);
      ("intersection", Lazy.force intersection, 2.0);
    ]

let no_jitter = Cost_params.no_jitter Cost_params.default

(* ------------------------------------------------------------------ *)
(* Single job through the scheduler == direct count_within             *)

let test_solo_job_bit_identity () =
  List.iter
    (fun (name, (wl : Paper_setup.t), quota) ->
      let direct =
        Taqp.count_within ~params:no_jitter ~seed:3 wl.Paper_setup.catalog
          ~quota wl.Paper_setup.query
      in
      List.iter
        (fun policy ->
          let job =
            Job.make ~seed:3 ~id:0 ~catalog:wl.Paper_setup.catalog
              ~arrival:0.0 ~deadline:quota wl.Paper_setup.query
          in
          let result = Scheduler.run ~policy [ job ] in
          match result.Scheduler.reports with
          | [ r ] ->
              let report =
                match Scheduler.completed_report r with
                | Some rep -> rep
                | None -> Alcotest.fail "job did not complete"
              in
              checks
                (Fmt.str "%s under %s == count_within" name
                   (Policy.name policy))
                (report_fingerprint direct)
                (report_fingerprint report)
          | rs -> Alcotest.failf "expected 1 report, got %d" (List.length rs))
        Policy.all)
    (Lazy.force workloads)

(* Report times are relative to the handle's start, so a late arrival
   on an idle device changes nothing. *)
let test_solo_job_nonzero_arrival () =
  let wl = Lazy.force selection in
  let direct =
    Taqp.count_within ~params:no_jitter ~seed:9 wl.Paper_setup.catalog
      ~quota:1.5 wl.Paper_setup.query
  in
  let job =
    Job.make ~seed:9 ~id:0 ~catalog:wl.Paper_setup.catalog ~arrival:42.0
      ~deadline:43.5 wl.Paper_setup.query
  in
  let result = Scheduler.run [ job ] in
  match result.Scheduler.reports with
  | [ r ] ->
      let rep = Option.get (Scheduler.completed_report r) in
      (* The handle starts at clock 42, so elapsed is a subtraction of
         large absolute instants — identical to float ulps, not bits.
         Everything else (sampling, estimate, CI, io) is exact. *)
      let no_elapsed (x : Report.t) =
        Fmt.str "%a|%.17g|%.17g|%.17g|%d|%a" Report.pp x x.Report.estimate
          x.Report.variance x.Report.confidence.Confidence.half_width
          (List.length x.Report.trace)
          Io_stats.pp x.Report.io
      in
      checks "same report at arrival 42" (no_elapsed direct) (no_elapsed rep);
      Fixtures.checkf_eps 1e-9 "same elapsed" direct.Report.elapsed
        rep.Report.elapsed;
      Fixtures.checkf "started at arrival" 42.0
        (Option.get r.Scheduler.started_at)
  | _ -> Alcotest.fail "expected 1 report"

(* ------------------------------------------------------------------ *)
(* Determinism: same jobs + seeds -> identical runs                    *)

let contended_jobs ?(n = 9) () =
  List.init n (fun i ->
      let _, (wl : Paper_setup.t), _ =
        List.nth (Lazy.force workloads) (i mod 3)
      in
      let arrival = 0.3 *. float_of_int i in
      let slack = [| 1.2; 3.0; 8.0 |].(i mod 3) in
      Job.make ~seed:(100 + i) ~priority:(1 + (i mod 2))
        ~label:(Fmt.str "c%d" i) ~id:i ~catalog:wl.Paper_setup.catalog
        ~arrival ~deadline:(arrival +. slack) wl.Paper_setup.query)

let run_fingerprints ~policy ?admission jobs =
  let result = Scheduler.run ~policy ?admission jobs in
  let per_job =
    List.map
      (fun r ->
        Fmt.str "%s:%s:%b:%b:%s" r.Scheduler.job.Job.label
          (Scheduler.outcome_name r) r.Scheduler.admitted r.Scheduler.missed
          (match Scheduler.completed_report r with
          | Some rep -> report_fingerprint rep
          | None -> "-"))
      result.Scheduler.reports
  in
  (result, String.concat "\n" per_job)

let test_two_runs_identical () =
  List.iter
    (fun policy ->
      let jobs = contended_jobs () in
      let r1, f1 = run_fingerprints ~policy jobs in
      let r2, f2 = run_fingerprints ~policy jobs in
      checks (Fmt.str "reports identical under %s" (Policy.name policy)) f1 f2;
      checks "summaries identical"
        (Json.to_string (Scheduler.summary_json r1.Scheduler.summary))
        (Json.to_string (Scheduler.summary_json r2.Scheduler.summary)))
    Policy.all

let test_two_runs_identical_with_admission () =
  let jobs = contended_jobs () in
  let adm = Admission.default in
  let _, f1 = run_fingerprints ~policy:Policy.Edf ~admission:adm jobs in
  let _, f2 = run_fingerprints ~policy:Policy.Edf ~admission:adm jobs in
  checks "admission runs identical" f1 f2

(* ------------------------------------------------------------------ *)
(* Admission edges                                                     *)

let eval_admission ?(t = Admission.default) ?(now = 0.0) ?(backlog = 0.0)
    ?(queue_len = 0) job =
  let _, device = Fixtures.quiet_device () in
  Admission.evaluate t
    ~staged:(lazy (Admission.compile_for_pricing ~job ()))
    ~device ~now ~backlog ~queue_len job

let mk_job ?min_confidence ~deadline () =
  let wl = Lazy.force selection in
  Job.make ?min_confidence ~seed:1 ~id:0 ~catalog:wl.Paper_setup.catalog
    ~arrival:0.0 ~deadline wl.Paper_setup.query

let test_admission_zero_slack () =
  (* Evaluated after its deadline already passed: rejected before it
     costs the device anything. *)
  match eval_admission ~now:5.0 (mk_job ~deadline:4.0 ()) with
  | Admission.Reject Admission.Zero_slack -> ()
  | d -> Alcotest.failf "expected zero-slack, got %s" (Admission.decision_name d)

let test_admission_below_min_stage_cost () =
  (* A deadline tighter than planning + one minimum-fraction stage. *)
  match eval_admission (mk_job ~deadline:1e-4 ()) with
  | Admission.Reject (Admission.Infeasible { needed; available }) ->
      checkb "needed > available" true (needed > available)
  | d -> Alcotest.failf "expected infeasible, got %s" (Admission.decision_name d)

let test_admission_backlog_counts () =
  (* The same deadline is feasible alone but not behind queued work. *)
  let job = mk_job ~deadline:2.0 () in
  (match eval_admission job with
  | Admission.Accept _ -> ()
  | d -> Alcotest.failf "expected accept, got %s" (Admission.decision_name d));
  match eval_admission ~backlog:1.999 job with
  | Admission.Reject (Admission.Infeasible _) -> ()
  | d -> Alcotest.failf "expected infeasible, got %s" (Admission.decision_name d)

let test_admission_queue_full () =
  let t = Admission.make ~max_queue:2 () in
  match eval_admission ~t ~queue_len:2 (mk_job ~deadline:10.0 ()) with
  | Admission.Reject (Admission.Queue_full { limit }) -> checki "limit" 2 limit
  | d -> Alcotest.failf "expected queue-full, got %s" (Admission.decision_name d)

let test_admission_degrade () =
  (* An extreme confidence ask clamps to a full-table stage, so any
     deadline strictly between the minimum viable price and the full
     price must degrade: admitted, but only with the quota that
     fits. The deadline is derived from the pricing API itself so the
     edge holds whatever the cost model says. *)
  let module Staged = Taqp_core.Staged in
  let module Executor = Taqp_core.Executor in
  let wl = Lazy.force selection in
  (* Admission's proportion math needs a selectivity prior below 1:
     with the default prior (1.0) a COUNT proportion is already exact
     and any confidence ask prices to the minimum stage. *)
  let query = Taqp.parse "count(select[sel < 25](r))" in
  let config =
    {
      Config.default with
      Config.initial_selectivities =
        { Config.no_initial_overrides with Config.select = Some 0.05 };
    }
  in
  let mk_job ?min_confidence ~deadline () =
    Job.make ?min_confidence ~config ~seed:1 ~id:0
      ~catalog:wl.Paper_setup.catalog ~arrival:0.0 ~deadline query
  in
  let probe = mk_job ~deadline:1.0 () in
  let _, device = Fixtures.quiet_device () in
  let staged = Admission.compile_for_pricing ~job:probe () in
  let config = probe.Job.config in
  let min_c = Admission.price_min_stage ~device staged ~config in
  let full =
    min_c
    -. Staged.predicted_cost staged ~f:Executor.min_fraction ~mode:Staged.Plain
    +. Staged.predicted_cost staged ~f:1.0 ~mode:Staged.Plain
  in
  checkb "full stage prices above the minimum" true (full > min_c);
  match
    eval_admission
      (mk_job ~min_confidence:0.001 ~deadline:((min_c +. full) /. 2.0) ())
  with
  | Admission.Degrade { quota; wanted } ->
      checkb "quota below ask" true (quota < wanted);
      checkb "quota positive" true (quota > 0.0)
  | d -> Alcotest.failf "expected degrade, got %s" (Admission.decision_name d)

let test_admission_accept_grants_full_slack () =
  match eval_admission (mk_job ~deadline:50.0 ()) with
  | Admission.Accept { quota } -> Fixtures.checkf "quota = slack" 50.0 quota
  | d -> Alcotest.failf "expected accept, got %s" (Admission.decision_name d)

(* ------------------------------------------------------------------ *)
(* Scheduler-level outcomes                                            *)

let test_rejected_job_is_not_missed () =
  let wl = Lazy.force selection in
  let hopeless =
    Job.make ~seed:2 ~id:0 ~catalog:wl.Paper_setup.catalog ~arrival:0.0
      ~deadline:1e-4 wl.Paper_setup.query
  in
  let result = Scheduler.run ~admission:Admission.default [ hopeless ] in
  match result.Scheduler.reports with
  | [ r ] ->
      checkb "not admitted" false r.Scheduler.admitted;
      checkb "not missed" false r.Scheduler.missed;
      checki "summary rejected" 1 result.Scheduler.summary.Scheduler.rejected;
      checki "summary missed" 0 result.Scheduler.summary.Scheduler.missed
  | _ -> Alcotest.fail "expected 1 report"

let test_unadmitted_queue_rot_expires () =
  (* Without admission, FIFO runs a long job first; the short-slack
     job behind it expires in queue — counted missed, and the queue
     still drains. *)
  let wl_long = Lazy.force join and wl_short = Lazy.force selection in
  let jobs =
    [
      Job.make ~seed:1 ~label:"long" ~id:0
        ~catalog:wl_long.Paper_setup.catalog ~arrival:0.0 ~deadline:20.0
        wl_long.Paper_setup.query;
      Job.make ~seed:2 ~label:"short" ~id:1
        ~catalog:wl_short.Paper_setup.catalog ~arrival:0.1 ~deadline:0.2
        wl_short.Paper_setup.query;
    ]
  in
  let result = Scheduler.run ~policy:Policy.Fifo jobs in
  let by_label l =
    List.find (fun r -> r.Scheduler.job.Job.label = l) result.Scheduler.reports
  in
  (match (by_label "short").Scheduler.outcome with
  | Scheduler.Expired -> ()
  | _ -> Alcotest.fail "short job should expire in queue");
  checkb "short missed" true (by_label "short").Scheduler.missed;
  checkb "long completed" true
    (Scheduler.completed_report (by_label "long") <> None)

let test_edf_not_worse_than_fifo () =
  let jobs = contended_jobs ~n:12 () in
  let fifo = Scheduler.run ~policy:Policy.Fifo jobs in
  let edf = Scheduler.run ~policy:Policy.Edf jobs in
  checkb "contention produces misses under fifo" true
    (fifo.Scheduler.summary.Scheduler.missed > 0);
  checkb "edf misses <= fifo misses" true
    (edf.Scheduler.summary.Scheduler.missed
    <= fifo.Scheduler.summary.Scheduler.missed)

let test_faulted_job_does_not_stall_queue () =
  (* A certain unrecoverable fault hits the first read of every job:
     each degrades through the executor's containment to a Faulted
     report, the loop keeps draining, and the clean summary shape
     survives. *)
  let faults =
    Injector.create ~seed:11 (Option.get (Fault_plan.preset "unrecoverable"))
  in
  let wl = Lazy.force selection in
  let jobs =
    (* Generous slacks: nothing expires, every job gets far enough to
       touch storage and take the certain fault. *)
    List.init 4 (fun i ->
        let arrival = 0.2 *. float_of_int i in
        Job.make ~seed:(50 + i) ~label:(Fmt.str "f%d" i) ~id:i
          ~catalog:wl.Paper_setup.catalog ~arrival ~deadline:(arrival +. 30.0)
          wl.Paper_setup.query)
  in
  let result = Scheduler.run ~policy:Policy.Edf ~faults jobs in
  checki "all jobs reported" 4 (List.length result.Scheduler.reports);
  checki "queue drained" 4 result.Scheduler.summary.Scheduler.completed;
  List.iter
    (fun r ->
      match Scheduler.completed_report r with
      | Some rep ->
          checkb "faulted outcome" true (rep.Report.outcome = Report.Faulted)
      | None -> Alcotest.fail "job should complete (degraded)")
    result.Scheduler.reports

let test_preemption_only_across_jobs () =
  (* A solo job can never be preempted, whatever the policy. *)
  let wl = Lazy.force join in
  let job =
    Job.make ~seed:4 ~id:0 ~catalog:wl.Paper_setup.catalog ~arrival:0.0
      ~deadline:3.0 wl.Paper_setup.query
  in
  List.iter
    (fun policy ->
      let result = Scheduler.run ~policy [ job ] in
      checki
        (Fmt.str "no preemptions under %s" (Policy.name policy))
        0 result.Scheduler.summary.Scheduler.preemptions)
    Policy.all

(* ------------------------------------------------------------------ *)
(* Policy selection                                                    *)

let cand ~key ~seq ~deadline ~laxity ~service ~weight =
  { Policy.key; seq; deadline; laxity = Lazy.from_val laxity; service; weight }

let test_policy_selection () =
  let a = cand ~key:1 ~seq:1 ~deadline:9.0 ~laxity:2.0 ~service:4.0 ~weight:1.0
  and b = cand ~key:2 ~seq:2 ~deadline:5.0 ~laxity:3.0 ~service:1.0 ~weight:1.0
  and c =
    cand ~key:3 ~seq:3 ~deadline:7.0 ~laxity:1.0 ~service:3.0 ~weight:4.0
  in
  let pick p = (Policy.select p [ a; b; c ]).Policy.key in
  checki "fifo picks admission order" 1 (pick Policy.Fifo);
  checki "edf picks earliest deadline" 2 (pick Policy.Edf);
  checki "llf picks least laxity" 3 (pick Policy.Least_laxity);
  checki "wfq picks least service per weight" 3 (pick Policy.Weighted_fair);
  (* Ties break toward earlier admission. *)
  let b' = { b with Policy.deadline = 9.0 } in
  checki "edf tie -> lower seq" 1 (Policy.select Policy.Edf [ b'; a ]).Policy.key

(* ------------------------------------------------------------------ *)
(* Job files                                                           *)

let test_job_file_parsing () =
  let wl = Lazy.force selection in
  let catalog = wl.Paper_setup.catalog in
  let lines =
    [
      "# comment";
      "";
      "0.0 | 8.0 | count(select[sel < 100](r)) | priority=2,seed=5,label=x";
      "1.5 | 3.5 | select[sel < 50](r) | min_rhw=0.1";
    ]
  in
  match Job.of_lines ~catalog lines with
  | Error m -> Alcotest.failf "parse failed: %s" m
  | Ok jobs -> (
      checki "two jobs" 2 (List.length jobs);
      match jobs with
      | [ j0; j1 ] ->
          checks "label" "x" j0.Job.label;
          checki "priority" 2 j0.Job.priority;
          checki "seed" 5 j0.Job.seed;
          checki "ids in order" 1 j1.Job.id;
          Fixtures.checkf "arrival" 1.5 j1.Job.arrival;
          checkb "min_rhw parsed" true (j1.Job.min_confidence = Some 0.1)
      | _ -> Alcotest.fail "expected exactly two jobs")

let test_job_file_errors () =
  let wl = Lazy.force selection in
  let catalog = wl.Paper_setup.catalog in
  let bad l =
    match Job.of_lines ~catalog [ l ] with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "line %S should not parse" l
  in
  bad "nonsense";
  bad "0.0 | 8.0 | count(select[sel < 100](r)) | priority=zero";
  bad "5.0 | 4.0 | count(select[sel < 100](r))";
  (* deadline before arrival *)
  bad "0.0 | 8.0 | count(select[sel <<< 100](r))"

(* Each malformed-line shape reports the offending field by name and
   value, and [of_lines] prefixes the 1-based line number — never a
   bare [Failure]. *)
let test_job_file_error_shapes () =
  let wl = Lazy.force selection in
  let catalog = wl.Paper_setup.catalog in
  let err l =
    match Job.of_line ~catalog ~id:0 l with
    | Error m -> m
    | Ok _ -> Alcotest.failf "line %S should not parse" l
  in
  let q = "count(select[sel < 100](r))" in
  checks "bad arrival names field and value" "bad arrival \"x\""
    (err ("x | 8.0 | " ^ q));
  checks "bad deadline names field and value" "bad deadline \"soon\""
    (err ("0.0 | soon | " ^ q));
  checks "bad priority names field and value" "bad priority \"zero\""
    (err ("0.0 | 8.0 | " ^ q ^ " | priority=zero"));
  checks "priority below one rejected" "bad priority \"0\""
    (err ("0.0 | 8.0 | " ^ q ^ " | priority=0"));
  checks "bad seed names field and value" "bad seed \"s\""
    (err ("0.0 | 8.0 | " ^ q ^ " | seed=s"));
  checks "bad min_rhw names field and value" "bad min_rhw \"-1\""
    (err ("0.0 | 8.0 | " ^ q ^ " | min_rhw=-1"));
  checks "unknown option named" "unknown option \"quux\""
    (err ("0.0 | 8.0 | " ^ q ^ " | quux=1"));
  checks "non key=value option shown verbatim" "option \"fast\" is not key=value"
    (err ("0.0 | 8.0 | " ^ q ^ " | fast"));
  checks "field-count shape error"
    "expected 'arrival | deadline | query [| options]' (3 or 4 fields)"
    (err "nonsense");
  checkb "query parse error carries offset" true
    (let m = err "0.0 | 8.0 | count(select[sel <<< 100](r))" in
     String.length m >= 27
     && String.sub m 0 27 = "query parse error at offset");
  checks "deadline before arrival surfaces Job.make's message"
    "Job.make: deadline before arrival"
    (err ("5.0 | 4.0 | " ^ q));
  (* of_lines: the 1-based line number of the offending raw line —
     comments and blanks count as lines but never shift job ids. *)
  (match
     Job.of_lines ~catalog
       [ "# header"; ""; "0.0 | 8.0 | " ^ q; "x | 9.0 | " ^ q ]
   with
  | Error m -> checks "line number prefixed" "line 4: bad arrival \"x\"" m
  | Ok _ -> Alcotest.fail "expected a parse error")

let test_job_make_validation () =
  let wl = Lazy.force selection in
  let catalog = wl.Paper_setup.catalog in
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid (fun () ->
      Job.make ~id:0 ~catalog ~arrival:(-1.0) ~deadline:1.0
        wl.Paper_setup.query);
  expect_invalid (fun () ->
      Job.make ~id:0 ~catalog ~arrival:2.0 ~deadline:2.0 wl.Paper_setup.query);
  expect_invalid (fun () ->
      Job.make ~priority:0 ~id:0 ~catalog ~arrival:0.0 ~deadline:1.0
        wl.Paper_setup.query);
  expect_invalid (fun () ->
      Job.make ~min_confidence:0.0 ~id:0 ~catalog ~arrival:0.0 ~deadline:1.0
        wl.Paper_setup.query)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "taqp_sched"
    [
      ( "bit-identity",
        [
          Alcotest.test_case "solo job == count_within, all policies" `Slow
            test_solo_job_bit_identity;
          Alcotest.test_case "solo job, nonzero arrival" `Quick
            test_solo_job_nonzero_arrival;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "two runs identical, all policies" `Slow
            test_two_runs_identical;
          Alcotest.test_case "two runs identical with admission" `Quick
            test_two_runs_identical_with_admission;
        ] );
      ( "admission",
        [
          Alcotest.test_case "zero slack rejects" `Quick
            test_admission_zero_slack;
          Alcotest.test_case "deadline below min stage cost rejects" `Quick
            test_admission_below_min_stage_cost;
          Alcotest.test_case "backlog counts against slack" `Quick
            test_admission_backlog_counts;
          Alcotest.test_case "queue full rejects" `Quick
            test_admission_queue_full;
          Alcotest.test_case "unaffordable confidence degrades" `Quick
            test_admission_degrade;
          Alcotest.test_case "accept grants full slack" `Quick
            test_admission_accept_grants_full_slack;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "rejected job is not a miss" `Quick
            test_rejected_job_is_not_missed;
          Alcotest.test_case "queued-out job expires, queue drains" `Quick
            test_unadmitted_queue_rot_expires;
          Alcotest.test_case "edf misses <= fifo misses" `Slow
            test_edf_not_worse_than_fifo;
          Alcotest.test_case "faulted jobs do not stall the queue" `Quick
            test_faulted_job_does_not_stall_queue;
          Alcotest.test_case "solo job never preempted" `Slow
            test_preemption_only_across_jobs;
        ] );
      ( "policy",
        [ Alcotest.test_case "selection per policy" `Quick test_policy_selection ] );
      ( "job-files",
        [
          Alcotest.test_case "parse options" `Quick test_job_file_parsing;
          Alcotest.test_case "reject malformed lines" `Quick
            test_job_file_errors;
          Alcotest.test_case "error shapes name field and line" `Quick
            test_job_file_error_shapes;
          Alcotest.test_case "make validates" `Quick test_job_make_validation;
        ] );
    ]
