module Clock = Taqp_storage.Clock
module Device = Taqp_storage.Device
module Io_stats = Taqp_storage.Io_stats
module Injector = Taqp_fault.Injector
module Tracer = Taqp_obs.Tracer
module Event = Taqp_obs.Event
module Metrics = Taqp_obs.Metrics
module Count_estimator = Taqp_estimators.Count_estimator
module Cost_model = Taqp_timecost.Cost_model
module Formulas = Taqp_timecost.Formulas
module Strategy = Taqp_timecontrol.Strategy
module Stopping = Taqp_timecontrol.Stopping
module Sample_size = Taqp_timecontrol.Sample_size

let src = Logs.Src.create "taqp.executor" ~doc:"time-constrained executor"

module Log = (val Logs.src_log src : Logs.LOG)

(* Sample-size determination is not free: the prototype counts it as
   per-stage overhead. Each bisection probe costs one QCOST evaluation,
   priced relative to the device's fixed per-stage overhead (planning
   runs on the same machine as the query). *)
let probe_cost device =
  0.01 *. (Device.params device).Taqp_storage.Cost_params.stage_overhead

let planning_cost device ~max_iterations =
  probe_cost device *. float_of_int (max_iterations + 2)

type loop_state = {
  mutable useful_time : float;  (** completed, in-quota stage time *)
  mutable stages_attempted : int;
  mutable stages_completed : int;
  mutable trace_rev : Report.stage list;
  mutable recent_estimates : float list;
  mutable last_good : Count_estimator.t option;
  mutable useful_blocks : int;
  residuals : Taqp_stats.Summary.t;
      (** relative stage-cost prediction errors (actual/predicted - 1);
          late stage budgets are shrunk by twice their spread so that
          cost-model noise — which the selectivity-based d_beta margin
          cannot see — does not tip a marginal final stage over the
          quota *)
}

let f_floor = 1e-9
let min_fraction = f_floor

let determine_fraction staged device ~strategy ~budget ~eps ~max_iterations =
  (* Planning is paid for up front, at its worst case, so the budget
     handed to the bisection is exactly the time that will remain when
     the stage starts (no hidden safety margin). *)
  let planning = planning_cost device ~max_iterations in
  Device.planning device planning;
  let budget = budget -. planning in
  if budget <= 0.0 then Sample_size.Budget_too_small { f_min_cost = infinity }
  else
    (* Each strategy's pricers are resolved once here and applied per
       probe; none outlives this call. *)
    match (strategy : Strategy.t) with
    | Strategy.One_at_a_time { d_beta; zero_beta } ->
        Sample_size.bisect
          ~cost_at:
            (Staged.pricer staged ~mode:(Staged.Inflated { d_beta; zero_beta }))
          ~budget ~f_min:f_floor ~f_max:1.0 ~eps ~max_iterations ()
    | Strategy.Single_interval { d_alpha; zero_beta = _ } ->
        (* sqrt(Var(QCOST)) by the delta method, cross-operator
           covariances approximated as 0 — see DESIGN.md *)
        Sample_size.with_deviation
          ~mean_at:(Staged.pricer staged ~mode:Staged.Plain)
          ~std_at:(Staged.qcost_std staged) ~d_alpha ~budget ~f_min:f_floor
          ~f_max:1.0 ~eps ~max_iterations ()
    | Strategy.Heuristic { split } -> (
        let cost_at = Staged.pricer staged ~mode:Staged.Plain in
        let run budget =
          Sample_size.bisect ~cost_at ~budget ~f_min:f_floor ~f_max:1.0 ~eps
            ~max_iterations ()
        in
        match run (split *. budget) with
        | Sample_size.Budget_too_small _ ->
            (* The geometric slice is too thin; fall back to the whole
               remaining budget before giving up. *)
            run budget
        | outcome -> outcome)

let finalize ~staged ~state ~quota ~start ~clock ~io_before ~device
    ~faults_before ~fault_time_before ~forced_degraded ~outcome
    ~(config : Config.t) =
  let elapsed = Clock.now clock -. start in
  let estimate =
    match (state.last_good, Staged.current_estimate staged) with
    | Some e, _ -> e
    | None, Some e -> e
    | None, None ->
        Count_estimator.of_sample ~hits:0.0 ~points:1.0
          ~total_points:(Float.max 1.0 (Staged.total_points staged))
  in
  let overspend =
    match outcome with
    | Report.Overspent -> Float.max 0.0 (elapsed -. quota)
    | Report.Finished | Report.Quota_exhausted | Report.Aborted_mid_stage
    | Report.Exact | Report.Faulted ->
        0.0
  in
  let waste = Float.max 0.0 (Float.max quota elapsed -. state.useful_time -. overspend) in
  let utilization = if quota > 0.0 then state.useful_time /. quota else 0.0 in
  let io = Io_stats.diff (Io_stats.copy (Device.stats device)) io_before in
  let degraded =
    forced_degraded
    ||
    match outcome with
    | Report.Aborted_mid_stage | Report.Faulted -> true
    | Report.Finished | Report.Quota_exhausted | Report.Overspent
    | Report.Exact ->
        false
  in
  let confidence =
    let base = Count_estimator.confidence ~level:config.confidence_level estimate in
    if not degraded then base
    else begin
      (* A degraded answer is the last good estimate, so its sampling
         interval understates the real uncertainty: widen it by how
         much of the quota the run could not turn into useful stages
         (bounded at 2x — see docs/ROBUSTNESS.md). *)
      let factor =
        Report.widening_factor ~quota ~useful_time:state.useful_time
      in
      { base with Taqp_stats.Confidence.half_width = base.half_width *. factor }
    end
  in
  let faults =
    if faults_before = 0 then Device.fault_log device
    else List.filteri (fun i _ -> i >= faults_before) (Device.fault_log device)
  in
  {
    Report.estimate = estimate.Count_estimator.estimate;
    variance = estimate.Count_estimator.variance;
    confidence;
    exact = estimate.Count_estimator.is_exact && state.stages_completed > 0;
    outcome;
    quota;
    elapsed;
    useful_time = state.useful_time;
    overspend;
    waste;
    utilization;
    stages_completed = state.stages_completed;
    stage_aborted =
      (match outcome with
      | Report.Aborted_mid_stage | Report.Overspent | Report.Faulted -> true
      | Report.Finished | Report.Quota_exhausted | Report.Exact -> false);
    degraded;
    faults;
    fault_time = Device.fault_time device -. fault_time_before;
    blocks_read = Io_stats.blocks_read io;
    useful_blocks = state.useful_blocks;
    io;
    trace = List.rev state.trace_rev;
    groups =
      (match Staged.group_estimates staged with
      | None -> []
      | Some gs ->
          List.map
            (fun (tuple, est) ->
              (Fmt.str "%a" Taqp_data.Tuple.pp tuple, est))
            gs);
  }

(* ------------------------------------------------------------------ *)
(* The resumable handle                                                 *)

type handle = {
  staged : Staged.t;
  cost_model : Cost_model.t;
  device : Device.t;
  clock : Clock.t;
  tracer : Tracer.t;
  config : Config.t;
  expr : Taqp_relational.Ra.t;  (** the compiled query, kept for {!snapshot} *)
  aggregate : Aggregate.t;
  quota : float;
  start : float;  (** clock reading when the handle was created *)
  deadline_at : float;  (** absolute: [start +. quota] *)
  deadline_mode : Clock.deadline_mode;
  io_before : Io_stats.t;
  faults_before : int;
  fault_time_before : float;
  state : loop_state;
  stage_predicted_h : Metrics.Histogram.t;
  stage_actual_h : Metrics.Histogram.t;
  overspend_h : Metrics.Histogram.t;
  mutable forced_degraded : bool;
      (** set on a dirty resume (crash landed mid-stage): the report
          must carry [degraded] whatever its outcome, because quota was
          burned without a checkpoint to show for it *)
  mutable result : Report.t option;
}

let start ?(config = Config.default) ?(aggregate = Aggregate.Count) ?cache
    ~device ~catalog ~rng ~quota expr =
  if quota <= 0.0 then invalid_arg "Executor.start: non-positive quota";
  Config.validate config;
  let cost_model =
    Cost_model.create ~adaptive:config.adaptive_cost
      ~initial_scale:config.initial_cost_scale ()
  in
  let staged =
    Staged.compile ~aggregate ?cache ~catalog ~config ~rng ~cost_model expr
  in
  let clock = Device.clock device in
  let tracer = Device.tracer device in
  let metrics = Device.metrics device in
  (* Histograms live in the device's registry whether or not a tracer
     is attached: observing them never touches the clock, so they are
     behavior-neutral. *)
  let stage_predicted_h = Metrics.histogram metrics "stage.predicted_cost" in
  let stage_actual_h = Metrics.histogram metrics "stage.actual_cost" in
  let overspend_h = Metrics.histogram metrics "query.overspend" in
  let start = Clock.now clock in
  let io_before = Io_stats.copy (Device.stats device) in
  let faults_before = List.length (Device.fault_log device) in
  let fault_time_before = Device.fault_time device in
  let deadline_mode = Stopping.deadline_mode config.stopping in
  if Tracer.enabled tracer then
    Tracer.span_begin tracer ~cat:"query" "query"
      ~args:[ ("quota", Event.Float quota) ];
  Clock.arm clock ~mode:deadline_mode ~at:(start +. quota);
  {
    staged;
    cost_model;
    device;
    clock;
    tracer;
    config;
    expr;
    aggregate;
    quota;
    start;
    deadline_at = start +. quota;
    deadline_mode;
    io_before;
    faults_before;
    fault_time_before;
    state =
      {
        useful_time = 0.0;
        stages_attempted = 0;
        stages_completed = 0;
        trace_rev = [];
        recent_estimates = [];
        last_good = None;
        useful_blocks = 0;
        residuals = Taqp_stats.Summary.create ();
      };
    stage_predicted_h;
    stage_actual_h;
    overspend_h;
    forced_degraded = false;
    result = None;
  }

let report h = h.result
let finished h = h.result <> None
let quota h = h.quota

let on_cost_observation h f = Cost_model.set_observer h.cost_model f
let started_at h = h.start
let deadline_at h = h.deadline_at
let remaining h = h.deadline_at -. Clock.now h.clock

let min_stage_cost h =
  planning_cost h.device ~max_iterations:h.config.Config.max_bisect_iterations
  +. Staged.predicted_cost h.staged ~f:f_floor ~mode:Staged.Plain

let status h =
  let state = h.state and config = h.config in
  let rel_half_width =
    Option.bind state.last_good (fun e ->
        Taqp_stats.Confidence.relative_half_width
          (Count_estimator.confidence ~level:config.confidence_level e))
  in
  {
    Stopping.elapsed = Clock.now h.clock -. h.start;
    quota = h.quota;
    stages = state.stages_completed;
    estimate =
      (match state.last_good with
      | Some e -> e.Count_estimator.estimate
      | None -> 0.0);
    rel_half_width;
    recent_estimates = state.recent_estimates;
  }

(* Finalizing disarms the clock: the handle's deadline must never
   outlive it, or a scheduler sleeping to the next arrival would be
   interrupted on behalf of a job that already has its report. *)
let finish_with h outcome =
  Clock.disarm h.clock;
  let report =
    finalize ~staged:h.staged ~state:h.state ~quota:h.quota ~start:h.start
      ~clock:h.clock ~io_before:h.io_before ~device:h.device
      ~faults_before:h.faults_before ~fault_time_before:h.fault_time_before
      ~forced_degraded:h.forced_degraded ~outcome ~config:h.config
  in
  Metrics.Histogram.observe h.overspend_h report.Report.overspend;
  if Tracer.enabled h.tracer then begin
    Tracer.instant h.tracer ~cat:"query" "stop"
      ~args:[ ("reason", Event.String (Report.outcome_name outcome)) ];
    Tracer.span_end h.tracer ~cat:"query" "query"
      ~args:
        [
          ("outcome", Event.String (Report.outcome_name outcome));
          ("estimate", Event.Float report.Report.estimate);
          ("elapsed", Event.Float report.Report.elapsed);
          ("stages", Event.Int report.Report.stages_completed);
          ("blocks_read", Event.Int report.Report.blocks_read);
        ]
  end;
  h.result <- Some report;
  report

let step h =
  match h.result with
  | Some r -> `Done r
  | None ->
  let staged = h.staged and state = h.state and config = h.config in
  let clock = h.clock and device = h.device and tracer = h.tracer in
  let cost_model = h.cost_model and quota = h.quota and start = h.start in
  (* Re-arm only when another job's deadline (or none) is in place, so
     a solo run — where the deadline armed at [start] is still the
     handle's own — emits exactly the trace it did before handles
     existed. *)
  if Clock.armed clock <> Some (h.deadline_mode, h.deadline_at) then
    Clock.arm clock ~mode:h.deadline_mode ~at:h.deadline_at;
  let stage_predicted_h = h.stage_predicted_h
  and stage_actual_h = h.stage_actual_h
  and fault_time_before = h.fault_time_before in
  let finish outcome = `Done (finish_with h outcome) in
  let rec step_once () =
    if Staged.exhausted staged then finish Report.Exact
    else if state.stages_completed > 0 && Stopping.should_stop config.stopping (status h)
    then finish Report.Finished
    else begin
      let elapsed = Clock.now clock -. start in
      let remaining = quota -. elapsed in
      if
        remaining
        <= planning_cost device
             ~max_iterations:config.max_bisect_iterations
      then finish Report.Quota_exhausted
      else begin
        (* Budget shrinkage has two independent factors: the residual
           spread (cost-model noise) and, when a fault injector is
           installed, fault headroom — twice the larger of the plan's
           expected load and the inflation observed so far, so that a
           spike landing on the committed stage does not immediately
           overspend (see docs/ROBUSTNESS.md). Without an injector the
           factor is exactly 1 and the arithmetic is unchanged. *)
        let fault_headroom =
          match Device.fault_injector device with
          | None -> 1.0
          | Some inj ->
              let planned =
                Taqp_fault.Fault_plan.expected_load
                  ~charge_cost:
                    (Device.params device).Taqp_storage.Cost_params.block_read
                  (Injector.plan inj)
              in
              let injected = Device.fault_time device -. fault_time_before in
              let busy = Float.max 1e-9 (elapsed -. injected) in
              1.0 +. (2.0 *. Float.max planned (injected /. busy))
        in
        let budget =
          let shrink =
            (if Taqp_stats.Summary.count state.residuals >= 2 then
               1.0 +. (2.0 *. Taqp_stats.Summary.stddev state.residuals)
             else 1.0)
            *. fault_headroom
          in
          if shrink = 1.0 then remaining else remaining /. shrink
        in
        let eps = Float.max 1e-6 (config.bisect_eps_frac *. budget) in
        match
          determine_fraction staged device ~strategy:config.strategy ~budget
            ~eps
            ~max_iterations:config.max_bisect_iterations
        with
        | exception Clock.Deadline_exceeded _ ->
            (* The remaining sliver did not even cover the planning
               work; the timer fired while sizing the stage. *)
            finish Report.Quota_exhausted
        | Sample_size.Budget_too_small { f_min_cost } ->
            Log.debug (fun m ->
                m "stopping: minimal stage needs %.3fs, %.3fs left" f_min_cost
                  remaining);
            finish Report.Quota_exhausted
        | (Sample_size.Fraction _ | Sample_size.Take_everything _) as outcome ->
            let f, predicted =
              match outcome with
              | Sample_size.Take_everything { predicted } -> (1.0, predicted)
              | Sample_size.Fraction { f; predicted; _ } -> (f, predicted)
              | Sample_size.Budget_too_small _ -> assert false
            in
            let predicted_end = Clock.now clock -. start +. predicted in
            if
              not
                (Stopping.allows_stage config.stopping ~predicted_end ~quota)
            then finish Report.Quota_exhausted
            else run_one_stage ~f ~predicted
      end
    end
  and run_one_stage ~f ~predicted =
    let stage_start = Clock.now clock -. start in
    state.stages_attempted <- state.stages_attempted + 1;
    let stage_name = Printf.sprintf "stage-%d" state.stages_attempted in
    Metrics.Histogram.observe stage_predicted_h predicted;
    if Tracer.enabled tracer then
      Tracer.span_begin tracer ~cat:"stage" stage_name
        ~args:
          [
            ("index", Event.Int state.stages_attempted);
            ("fraction", Event.Float f);
            ("predicted", Event.Float predicted);
          ];
    (* The stage span's End event carries the full predicted-vs-actual
       record plus the stopping-criterion decision taken for it; the
       summary sink renders its per-stage lines from exactly this. *)
    let end_stage ~decision ?estimate () =
      if Tracer.enabled tracer then begin
        let actual = Clock.now clock -. start -. stage_start in
        let args =
          [
            ("index", Event.Int state.stages_attempted);
            ("fraction", Event.Float f);
            ("predicted", Event.Float predicted);
            ("actual", Event.Float actual);
            ("decision", Event.String decision);
          ]
        in
        let args =
          match estimate with
          | None -> args
          | Some e -> args @ [ ("estimate", Event.Float e) ]
        in
        Tracer.span_end tracer ~cat:"stage" stage_name ~args
      end
    in
    match
      Device.stage_overhead device;
      Staged.run_stage staged ~device ~f
    with
    | exception Clock.Deadline_exceeded _ ->
        Log.debug (fun m -> m "stage %d aborted by deadline" state.stages_attempted);
        Metrics.Histogram.observe stage_actual_h
          (Clock.now clock -. start -. stage_start);
        end_stage ~decision:"aborted" ();
        finish Report.Aborted_mid_stage
    | exception Injector.Unrecoverable { op; attempts; _ } ->
        Log.warn (fun m ->
            m "stage %d killed by unrecoverable %s fault after %d attempts"
              state.stages_attempted op attempts);
        Metrics.Histogram.observe stage_actual_h
          (Clock.now clock -. start -. stage_start);
        end_stage ~decision:"faulted" ();
        finish Report.Faulted
    | None ->
        end_stage ~decision:"exhausted" ();
        finish Report.Exact
    | Some result ->
        let stage_end = Clock.now clock -. start in
        let stage_time = stage_end -. stage_start in
        Metrics.Histogram.observe stage_actual_h stage_time;
        let overhead_observed =
          Float.max 0.0
            (stage_time -. result.Staged.nodes_elapsed
           -. result.Staged.scans_elapsed)
        in
        Cost_model.observe_step cost_model ~id:(Staged.overhead_id staged)
          ~step:Formulas.Step_fixed Formulas.zero_measures
          ~seconds:(Device.measure device overhead_observed);
        let estimate = result.Staged.estimate in
        let stage_record =
          {
            Report.index = state.stages_attempted;
            fraction = f;
            new_blocks = result.Staged.new_units;
            predicted_cost = predicted;
            actual_cost = stage_time;
            started_at = stage_start;
            finished_at = stage_end;
            estimate = estimate.Count_estimator.estimate;
            variance = estimate.Count_estimator.variance;
            ops = result.Staged.op_snapshots;
          }
        in
        if config.trace then state.trace_rev <- stage_record :: state.trace_rev;
        if stage_end > quota then begin
          (* Observe mode let the stage finish past the quota: the
             paper counts its whole time as wasted and reports the
             overshoot as ovsp. *)
          end_stage ~decision:"overspent"
            ~estimate:estimate.Count_estimator.estimate ();
          if state.last_good = None then state.last_good <- Some estimate;
          finish Report.Overspent
        end
        else begin
          end_stage ~decision:"completed"
            ~estimate:estimate.Count_estimator.estimate ();
          state.useful_time <- state.useful_time +. stage_time;
          state.stages_completed <- state.stages_completed + 1;
          state.useful_blocks <-
            state.useful_blocks
            + List.fold_left
                (fun acc (_, k) -> acc + k)
                0 result.Staged.new_units;
          if predicted > 0.0 then
            Taqp_stats.Summary.add state.residuals ((stage_time /. predicted) -. 1.0);
          state.last_good <- Some estimate;
          state.recent_estimates <-
            estimate.Count_estimator.estimate :: state.recent_estimates;
          `Continue
        end
  in
  step_once ()

let run ?config ?aggregate ?cache ~device ~catalog ~rng ~quota expr =
  let h =
    try start ?config ?aggregate ?cache ~device ~catalog ~rng ~quota expr
    with Invalid_argument m when m = "Executor.start: non-positive quota" ->
      invalid_arg "Executor.run: non-positive quota"
  in
  let rec go () = match step h with `Done r -> r | `Continue -> go () in
  go ()

let finish h =
  match h.result with
  | Some r -> r
  | None -> finish_with h Report.Quota_exhausted

(* ------------------------------------------------------------------ *)
(* Checkpointing                                                        *)

type snapshot = {
  snap_query : Taqp_relational.Ra.t;
  snap_aggregate : Aggregate.t;
  snap_config : Config.t;
  snap_quota : float;
  snap_start : float;
  snap_staged : Staged.snapshot;
  snap_cost_model : Cost_model.dump;
  snap_useful_time : float;
  snap_stages_attempted : int;
  snap_stages_completed : int;
  snap_trace_rev : Report.stage list;
  snap_recent_estimates : float list;
  snap_last_good : Count_estimator.t option;
  snap_useful_blocks : int;
  snap_residuals : Taqp_stats.Summary.dump;
  snap_io_before : int list;
  snap_faults_before : int;
  snap_fault_time_before : float;
  snap_forced_degraded : bool;
}

let snapshot h =
  if h.result <> None then
    invalid_arg "Executor.snapshot: handle already finalized";
  {
    snap_query = h.expr;
    snap_aggregate = h.aggregate;
    snap_config = h.config;
    snap_quota = h.quota;
    snap_start = h.start;
    snap_staged = Staged.snapshot h.staged;
    snap_cost_model = Cost_model.dump h.cost_model;
    snap_useful_time = h.state.useful_time;
    snap_stages_attempted = h.state.stages_attempted;
    snap_stages_completed = h.state.stages_completed;
    snap_trace_rev = h.state.trace_rev;
    snap_recent_estimates = h.state.recent_estimates;
    snap_last_good = h.state.last_good;
    snap_useful_blocks = h.state.useful_blocks;
    snap_residuals = Taqp_stats.Summary.dump h.state.residuals;
    snap_io_before = Io_stats.values h.io_before;
    snap_faults_before = h.faults_before;
    snap_fault_time_before = h.fault_time_before;
    snap_forced_degraded = h.forced_degraded;
  }

let resume ~device ~catalog ?selectivity_oracle ?cache ?(dirty = false) snap =
  let config =
    match selectivity_oracle with
    | None -> snap.snap_config
    | Some _ -> { snap.snap_config with Config.selectivity_oracle }
  in
  let cost_model =
    Cost_model.create ~adaptive:config.Config.adaptive_cost
      ~initial_scale:config.Config.initial_cost_scale ()
  in
  (* The compile-time rng only seeds fresh per-scan sample streams, and
     [Staged.restore] overwrites every stream position from the
     snapshot, so a dummy generator is fine: nothing it produced
     survives the restore. *)
  let rng = Taqp_rng.Prng.create 0 in
  let staged =
    Staged.compile ~aggregate:snap.snap_aggregate ?cache ~catalog ~config ~rng
      ~cost_model snap.snap_query
  in
  Staged.restore staged snap.snap_staged;
  Cost_model.restore cost_model snap.snap_cost_model;
  let clock = Device.clock device in
  let tracer = Device.tracer device in
  let metrics = Device.metrics device in
  let stage_predicted_h = Metrics.histogram metrics "stage.predicted_cost" in
  let stage_actual_h = Metrics.histogram metrics "stage.actual_cost" in
  let overspend_h = Metrics.histogram metrics "query.overspend" in
  let io_before = Io_stats.create () in
  Io_stats.restore io_before snap.snap_io_before;
  let residuals = Taqp_stats.Summary.create () in
  Taqp_stats.Summary.restore residuals snap.snap_residuals;
  let deadline_mode = Stopping.deadline_mode config.Config.stopping in
  let deadline_at = snap.snap_start +. snap.snap_quota in
  (* Re-arm the ORIGINAL absolute deadline, silently: no
     [deadline.armed] instant and no fresh query span, so the resumed
     trace stream continues exactly where the crashed one stopped.
     Any gap between the checkpoint and the device clock's current
     reading (crash downtime, mid-stage progress that was lost) is
     quota already burned — the deadline does not move. *)
  Clock.restore_deadline clock ~mode:deadline_mode ~at:deadline_at;
  {
    staged;
    cost_model;
    device;
    clock;
    tracer;
    config;
    expr = snap.snap_query;
    aggregate = snap.snap_aggregate;
    quota = snap.snap_quota;
    start = snap.snap_start;
    deadline_at;
    deadline_mode;
    io_before;
    faults_before = snap.snap_faults_before;
    fault_time_before = snap.snap_fault_time_before;
    state =
      {
        useful_time = snap.snap_useful_time;
        stages_attempted = snap.snap_stages_attempted;
        stages_completed = snap.snap_stages_completed;
        trace_rev = snap.snap_trace_rev;
        recent_estimates = snap.snap_recent_estimates;
        last_good = snap.snap_last_good;
        useful_blocks = snap.snap_useful_blocks;
        residuals;
      };
    stage_predicted_h;
    stage_actual_h;
    overspend_h;
    forced_degraded = dirty || snap.snap_forced_degraded;
    result = None;
  }
