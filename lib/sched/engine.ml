(* The scheduler's incremental core: the exact event loop
   [Scheduler.run] always ran, re-cut as an explicit state machine —
   [create] builds the clock/device/admission state, [step] performs
   one loop iteration (admit due arrivals, then either sleep to the
   next arrival or give the policy's pick one executor stage), and
   [finish] closes the books into the batch result.

   [Scheduler.run] is now [create] + [drain] + [finish], so the batch
   path and the socket server ([Taqp_net.Server]) share one scheduler
   by construction: every operation — metric increments, journal
   writes, device charges, rng creation — happens in the same order as
   the historical closed loop, which is what keeps the solo-job
   bit-identity anchor (test_sched) true of both entry points. *)

module Report = Taqp_core.Report
module Executor = Taqp_core.Executor
module Clock = Taqp_storage.Clock
module Device = Taqp_storage.Device
module Cost_params = Taqp_storage.Cost_params
module Metrics = Taqp_obs.Metrics
module Tracer = Taqp_obs.Tracer
module Event = Taqp_obs.Event
module Prng = Taqp_rng.Prng

let src = Logs.Src.create "taqp.sched" ~doc:"multi-query deadline scheduler"

module Log = (val Logs.src_log src : Logs.LOG)

type outcome =
  | Completed of Report.t
  | Rejected of Admission.reason
  | Expired

type job_report = {
  job : Job.t;
  outcome : outcome;
  admitted : bool;
  degraded : bool;
  quota : float option;
  started_at : float option;
  finished_at : float;
  queue_wait : float;
  lateness : float;
  missed : bool;
  steps : int;
  preemptions : int;
  service : float;
}

type summary = {
  submitted : int;
  admitted : int;
  degraded : int;
  rejected : int;
  expired : int;
  completed : int;
  missed : int;
  miss_rate : float;
  lateness_p50 : float;
  lateness_p99 : float;
  lateness_p999 : float;
  max_lateness : float;
  mean_queue_wait : float;
  makespan : float;
  busy_time : float;
  preemptions : int;
}

type result = {
  policy : Policy.t;
  admission_on : bool;
  reports : job_report list;
  summary : summary;
}

(* One admitted, unfinished job. [l_reserved] is its priced minimum
   viable run — the backlog unit admission subtracts from later jobs'
   slack, decayed by the service already delivered. *)
type live = {
  l_job : Job.t;
  l_seq : int;
  l_granted : float;
  l_degraded : bool;
  l_reserved : float;
  mutable l_handle : Executor.handle option;
  mutable l_started : float option;
  mutable l_service : float;
  mutable l_steps : int;
  mutable l_preempt : int;
}

type t = {
  policy : Policy.t;
  admission : Admission.t option;
  clock : Clock.t;
  device : Device.t;
  journal : Taqp_recover.Journal.writer option;
  on_dispatch : (Job.t -> Executor.handle -> unit) option;
  on_report : (job_report -> unit) option;
  account : int option -> unit;
  cache : Taqp_cache.Cache.t option;
  tracer : Tracer.t;
  c_submitted : Metrics.Counter.t;
  c_admitted : Metrics.Counter.t;
  c_degraded : Metrics.Counter.t;
  c_rejected : Metrics.Counter.t;
  c_expired : Metrics.Counter.t;
  c_completed : Metrics.Counter.t;
  c_missed : Metrics.Counter.t;
  c_preempt : Metrics.Counter.t;
  h_lateness : Metrics.Histogram.t;
  h_wait : Metrics.Histogram.t;
  mutable pending : Job.t list;  (* sorted by (arrival, id) *)
  mutable live : live list;
  mutable reports : job_report list;
  mutable seq : int;
  mutable last_run : int option;
  mutable finished : bool;
}

let percentile sorted q =
  match sorted with
  | [||] -> 0.0
  | a ->
      let n = Array.length a in
      let i = int_of_float (Float.round (q *. float_of_int (n - 1))) in
      a.(Int.max 0 (Int.min (n - 1) i))

(* An admitted job "missed" when its transaction got no in-deadline
   answer: it finished past the deadline (observe-mode overspend), its
   deadline passed while it was still queued, or its slack was spent
   before a single stage completed — a report with neither an exact
   answer nor one finished sampling stage carries no estimate the
   transaction could act on. *)
let report_missed ~(job : Job.t) ~finished_at = function
  | Completed r ->
      finished_at > job.Job.deadline +. 1e-9
      || (r.Report.stages_completed = 0 && not r.Report.exact)
  | Expired -> true
  | Rejected _ -> false

let outcome_tag = function
  | Completed r -> Report.outcome_name r.Report.outcome
  | Expired -> "expired"
  | Rejected _ -> "rejected"

let to_done_record (r : job_report) : Sched_journal.done_record =
  {
    d_id = r.job.Job.id;
    d_label = r.job.Job.label;
    d_outcome = outcome_tag r.outcome;
    d_admitted = r.admitted;
    d_degraded = r.degraded;
    d_missed = r.missed;
    d_lateness = r.lateness;
    d_queue_wait = r.queue_wait;
    d_finished_at = r.finished_at;
    d_service = r.service;
    d_steps = r.steps;
    d_preemptions = r.preemptions;
    d_estimate =
      (match r.outcome with
      | Completed rep -> Some rep.Report.estimate
      | Expired | Rejected _ -> None);
    d_now = r.finished_at;
  }

let create ?(policy = Policy.Edf) ?admission
    ?(params = Cost_params.no_jitter Cost_params.default) ?metrics ?tracer
    ?faults ?journal ?start_at ?on_device ?on_dispatch ?account:account_hook
    ?cache ?on_report jobs =
  let clock = Clock.create_virtual () in
  (* Recovery re-runs start where the crashed workload's clock stopped
     plus the downtime: arrivals the restart missed are admitted at
     once and jobs whose deadlines passed meanwhile expire on their
     first dispatch — downtime is lost time, never replayed time. *)
  Option.iter (fun at -> Clock.restore clock ~now:at) start_at;
  let device = Device.create ~params ?metrics ?tracer ?faults clock in
  (match (cache, metrics) with
  | Some c, Some m -> Taqp_cache.Cache.bind_metrics c m
  | _ -> ());
  (* Audit hooks. [on_device] lets an observer attach a spend listener
     to the scheduler's internal device; [account] tells it which job
     the next charges belong to ([None] = scheduler overhead);
     [on_dispatch] hands over each job's executor handle at dispatch so
     a drift monitor can register on its cost model. All three are
     strictly observational. *)
  Option.iter (fun f -> f device) on_device;
  let account owner =
    match account_hook with None -> () | Some f -> f owner
  in
  let metrics = Device.metrics device in
  {
    policy;
    admission;
    clock;
    device;
    journal;
    on_dispatch;
    on_report;
    account;
    cache;
    tracer = Device.tracer device;
    c_submitted = Metrics.counter metrics "sched.submitted";
    c_admitted = Metrics.counter metrics "sched.admitted";
    c_degraded = Metrics.counter metrics "sched.degraded";
    c_rejected = Metrics.counter metrics "sched.rejected";
    c_expired = Metrics.counter metrics "sched.expired";
    c_completed = Metrics.counter metrics "sched.completed";
    c_missed = Metrics.counter metrics "sched.missed";
    c_preempt = Metrics.counter metrics "sched.preemptions";
    h_lateness = Metrics.histogram metrics "sched.lateness";
    h_wait = Metrics.histogram metrics "sched.queue_wait";
    pending =
      List.stable_sort
        (fun a b -> compare (a.Job.arrival, a.Job.id) (b.Job.arrival, b.Job.id))
        jobs;
    live = [];
    reports = [];
    seq = 0;
    last_run = None;
    finished = false;
  }

let now t = Clock.now t.clock
let device t = t.device
let live_count t = List.length t.live
let pending_count t = List.length t.pending

let next_arrival t =
  match t.pending with [] -> None | j :: _ -> Some j.Job.arrival

let backlog t =
  List.fold_left
    (fun acc l -> acc +. Float.max 0.0 (l.l_reserved -. l.l_service))
    0.0 t.live

(* Journal writes are charged to the shared clock like any other IO
   (so journaling is visible to every job's quota), but never raise:
   if a deadline fires during the charge the clock pins there and the
   record is still written — losing the record would be strictly
   worse for recovery than losing the sliver of time. Without
   [journal] nothing is charged and the run is bit-identical to the
   journal-free scheduler. *)
let jwrite t record =
  match t.journal with
  | None -> ()
  | Some w ->
      let payload = Sched_journal.encode record in
      (try
         Device.journal_write t.device
           ~bytes:(String.length payload + Taqp_recover.Journal.frame_overhead)
       with Clock.Deadline_exceeded _ -> ());
      Taqp_recover.Journal.append w payload

let instant t name (job : Job.t) args =
  if Tracer.enabled t.tracer then
    Tracer.instant t.tracer ~cat:"sched" name
      ~args:(("job", Event.String job.Job.label) :: args)

let push_report t r =
  t.reports <- r :: t.reports;
  match t.on_report with None -> () | Some f -> f r

let finish_live t lj outcome =
  t.live <- List.filter (fun l -> l != lj) t.live;
  (match t.last_run with
  | Some s when s = lj.l_seq -> t.last_run <- None
  | _ -> ());
  let now = Clock.now t.clock in
  let missed = report_missed ~job:lj.l_job ~finished_at:now outcome in
  let lateness = now -. lj.l_job.Job.deadline in
  if missed then Metrics.Counter.incr t.c_missed;
  Metrics.Histogram.observe t.h_lateness (Float.max 0.0 lateness);
  (match outcome with
  | Completed r ->
      Metrics.Counter.incr t.c_completed;
      instant t "sched.complete" lj.l_job
        [
          ("outcome", Event.String (Report.outcome_name r.Report.outcome));
          ("lateness", Event.Float lateness);
        ]
  | Expired ->
      Metrics.Counter.incr t.c_expired;
      instant t "sched.expire" lj.l_job []
  | Rejected _ -> assert false);
  let report =
    {
      job = lj.l_job;
      outcome;
      admitted = true;
      degraded = lj.l_degraded;
      quota = Option.map Executor.quota lj.l_handle;
      started_at = lj.l_started;
      finished_at = now;
      queue_wait =
        (match lj.l_started with
        | Some s -> s -. lj.l_job.Job.arrival
        | None -> now -. lj.l_job.Job.arrival);
      lateness;
      missed;
      steps = lj.l_steps;
      preemptions = lj.l_preempt;
      service = lj.l_service;
    }
  in
  jwrite t (Sched_journal.Done (to_done_record report));
  push_report t report

let admit_arrivals t now =
  let rec go () =
    match t.pending with
    | j :: rest when j.Job.arrival <= now ->
        t.pending <- rest;
        Metrics.Counter.incr t.c_submitted;
        (* One pricing compilation serves admission and the reserve:
           nothing between them touches the cache or the device. *)
        let staged =
          lazy (Admission.compile_for_pricing ?cache:t.cache ~job:j ())
        in
        let decision =
          match t.admission with
          | None -> Admission.Accept { quota = Job.slack j ~now }
          | Some a ->
              Admission.evaluate a ~staged ~device:t.device ~now
                ~backlog:(backlog t)
                ~queue_len:(List.length t.live)
                j
        in
        (match decision with
        | Admission.Reject reason ->
            Metrics.Counter.incr t.c_rejected;
            instant t "sched.reject" j
              [ ("reason", Event.String (Admission.reason_name reason)) ];
            Log.debug (fun m ->
                m "%s rejected: %a" j.Job.label Admission.pp_reason reason);
            let report =
              {
                job = j;
                outcome = Rejected reason;
                admitted = false;
                degraded = false;
                quota = None;
                started_at = None;
                finished_at = now;
                queue_wait = 0.0;
                lateness = 0.0;
                missed = false;
                steps = 0;
                preemptions = 0;
                service = 0.0;
              }
            in
            jwrite t (Sched_journal.Done (to_done_record report));
            push_report t report
        | Admission.Accept { quota } | Admission.Degrade { quota; _ } ->
            let degraded =
              match decision with Admission.Degrade _ -> true | _ -> false
            in
            Metrics.Counter.incr t.c_admitted;
            if degraded then Metrics.Counter.incr t.c_degraded;
            instant t "sched.admit" j
              [
                ("quota", Event.Float quota);
                ("degraded", Event.String (string_of_bool degraded));
              ];
            jwrite t
              (Sched_journal.Admitted
                 {
                   a_id = j.Job.id;
                   a_label = j.Job.label;
                   a_granted = quota;
                   a_degraded = degraded;
                   a_now = now;
                 });
            let reserved =
              Admission.price_min_stage ~device:t.device (Lazy.force staged)
                ~config:j.Job.config
            in
            t.seq <- t.seq + 1;
            t.live <-
              t.live
              @ [
                  {
                    l_job = j;
                    l_seq = t.seq;
                    l_granted = quota;
                    l_degraded = degraded;
                    l_reserved = reserved;
                    l_handle = None;
                    l_started = None;
                    l_service = 0.0;
                    l_steps = 0;
                    l_preempt = 0;
                  };
                ]);
        go ()
    | _ -> ()
  in
  go ()

(* Laxity prices a plan: it stays unforced unless the policy reads it.
   Pricing is pure, so when (or whether) it runs changes no charge. *)
let candidates t now =
  List.map
    (fun l ->
      let next_cost () =
        match l.l_handle with
        | Some h -> Executor.min_stage_cost h
        | None -> l.l_reserved
      in
      {
        Policy.key = l.l_seq;
        seq = l.l_seq;
        deadline = l.l_job.Job.deadline;
        laxity = lazy (l.l_job.Job.deadline -. now -. next_cost ());
        service = l.l_service;
        weight = float_of_int l.l_job.Job.priority;
      })
    t.live

let step_job t lj handle =
  t.account (Some lj.l_job.Job.id);
  (match t.last_run with
  | Some s when s <> lj.l_seq -> (
      match List.find_opt (fun l -> l.l_seq = s) t.live with
      | Some prev ->
          prev.l_preempt <- prev.l_preempt + 1;
          Metrics.Counter.incr t.c_preempt;
          instant t "sched.preempt" prev.l_job []
      | None -> ())
  | _ -> ());
  let t0 = Clock.now t.clock in
  let step = Executor.step handle in
  lj.l_service <- lj.l_service +. (Clock.now t.clock -. t0);
  lj.l_steps <- lj.l_steps + 1;
  t.last_run <- Some lj.l_seq;
  match step with
  | `Continue ->
      jwrite t
        (Sched_journal.Progress
           {
             p_id = lj.l_job.Job.id;
             p_steps = lj.l_steps;
             p_now = Clock.now t.clock;
           })
  | `Done report -> finish_live t lj (Completed report)

let step t =
  if t.finished then invalid_arg "Engine.step: engine already finished";
  let now = Clock.now t.clock in
  (* Admission pricing and its journal writes are scheduler overhead,
     never any one job's spend. *)
  t.account None;
  admit_arrivals t now;
  match (t.live, t.pending) with
  | [], [] -> `Idle
  | [], next :: _ ->
      (* Idle: every finalized handle disarmed its deadline, so this
         sleep can never be interrupted on a dead job's behalf. *)
      Clock.sleep_until t.clock next.Job.arrival;
      `Progress
  | _ :: _, _ -> (
      let c = Policy.select t.policy (candidates t now) in
      let lj = List.find (fun l -> l.l_seq = c.Policy.key) t.live in
      (match lj.l_handle with
      | Some handle -> step_job t lj handle
      | None ->
          let quota = Float.min lj.l_granted (Job.slack lj.l_job ~now) in
          if quota <= 0.0 then
            (* Its deadline passed while it waited: it never starts —
               and never stalls the jobs behind it. *)
            finish_live t lj Expired
          else begin
            (* Mirror Taqp.count_within's stream discipline — create
               the job rng, split off (and discard) the jitter
               stream — so a solo job's report is bit-identical to a
               direct count_within at the same seed and quota. *)
            let rng = Prng.create lj.l_job.Job.seed in
            ignore (Prng.split rng);
            t.account (Some lj.l_job.Job.id);
            let handle =
              Executor.start ~config:lj.l_job.Job.config
                ~aggregate:lj.l_job.Job.aggregate ?cache:t.cache
                ~device:t.device ~catalog:lj.l_job.Job.catalog ~rng ~quota
                lj.l_job.Job.query
            in
            (match t.on_dispatch with
            | None -> ()
            | Some f -> f lj.l_job handle);
            lj.l_handle <- Some handle;
            lj.l_started <- Some now;
            Metrics.Histogram.observe t.h_wait (now -. lj.l_job.Job.arrival);
            instant t "sched.dispatch" lj.l_job [ ("quota", Event.Float quota) ];
            step_job t lj handle
          end);
      `Progress)

let rec drain t = match step t with `Idle -> () | `Progress -> drain t

let submit t job =
  if t.finished then invalid_arg "Engine.submit: engine already finished";
  let key (j : Job.t) = (j.Job.arrival, j.Job.id) in
  let rec ins = function
    | [] -> [ job ]
    | j :: rest as l -> if key job < key j then job :: l else j :: ins rest
  in
  t.pending <- ins t.pending

let cancel t ~id =
  if t.finished then invalid_arg "Engine.cancel: engine already finished";
  match List.partition (fun (j : Job.t) -> j.Job.id = id) t.pending with
  | _ :: _, rest ->
      t.pending <- rest;
      `Cancelled_pending
  | [], _ -> (
      match List.find_opt (fun l -> l.l_job.Job.id = id) t.live with
      | Some lj ->
          finish_live t lj Expired;
          `Killed_live
      | None -> `Unknown)

let finish t =
  if t.finished then invalid_arg "Engine.finish: engine already finished";
  t.finished <- true;
  t.account None;
  Option.iter (fun c -> Taqp_cache.Cache.emit_counters c t.tracer) t.cache;
  let reports =
    List.stable_sort (fun a b -> compare a.job.Job.id b.job.Job.id) t.reports
  in
  let count f = List.length (List.filter f reports) in
  let admitted_reports =
    List.filter (fun (r : job_report) -> r.admitted) reports
  in
  let late =
    List.map (fun r -> Float.max 0.0 r.lateness) admitted_reports
    |> List.sort compare |> Array.of_list
  in
  let waits = List.map (fun r -> r.queue_wait) admitted_reports in
  let summary =
    {
      submitted = List.length reports;
      admitted = List.length admitted_reports;
      degraded = count (fun (r : job_report) -> r.degraded);
      rejected =
        count (fun r -> match r.outcome with Rejected _ -> true | _ -> false);
      expired =
        count (fun r -> match r.outcome with Expired -> true | _ -> false);
      completed =
        count (fun r -> match r.outcome with Completed _ -> true | _ -> false);
      missed = count (fun (r : job_report) -> r.missed);
      miss_rate =
        (if reports = [] then 0.0
         else
           float_of_int (count (fun (r : job_report) -> r.missed))
           /. float_of_int (List.length reports));
      lateness_p50 = percentile late 0.50;
      lateness_p99 = percentile late 0.99;
      lateness_p999 = percentile late 0.999;
      max_lateness = (if late = [||] then 0.0 else late.(Array.length late - 1));
      mean_queue_wait =
        (match waits with
        | [] -> 0.0
        | ws -> List.fold_left ( +. ) 0.0 ws /. float_of_int (List.length ws));
      makespan = Clock.now t.clock;
      busy_time =
        List.fold_left
          (fun acc (r : job_report) -> acc +. r.service)
          0.0 reports;
      preemptions =
        List.fold_left
          (fun acc (r : job_report) -> acc + r.preemptions)
          0 reports;
    }
  in
  { policy = t.policy; admission_on = t.admission <> None; reports; summary }
