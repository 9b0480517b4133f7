(* The network front door: one process, one {!Loop} select loop,
   one scheduler engine. Socket readiness and {!Taqp_sched.Engine.step}
   calls interleave on the same thread, so every job admitted over the
   wire competes on the single virtual device exactly as a batch job
   would — admission control *is* the backpressure, and overload
   surfaces as priced REJECT frames, never as unbounded queueing.

   Three doors can refuse a SUBMIT before the engine ever sees it
   (each a [Rejected { job_id = None; _ }] on the submitting
   connection): the server is draining, the connection's token bucket
   is empty, or the total pending+live depth hit [--max-pending] (a
   memory bound, deliberately far above the engine's own
   [--max-queue]). Everything else is parsed, journaled as a
   {!Sched_journal.Submitted} record, and submitted; the engine's
   admission controller rules at the job's virtual arrival, and its
   verdict is pushed as RESULT or a priced REJECT.

   Gating. [`Eager] (real serving) steps the engine whenever it has
   work. [`Drain] withholds every step until a DRAIN frame arrives, so
   a harness can first queue an entire arrival schedule (the clock
   frozen at its restore point) and then let the run execute — which
   makes a socket-driven workload bit-identical to the same job list
   pushed through [Scheduler.run], real sockets notwithstanding.

   Recovery. With [recover] records from a crashed server's journal,
   terminal jobs are answered straight from their journaled [Done]
   records (byte-identical RESULT frames — the wire embeds the
   journal's own codec) and the un-finished remainder is re-parsed
   from its [Submitted] lines and re-admitted at crash time plus
   downtime, stepping immediately ([`Drain] gating does not hold a
   recovered backlog hostage). *)

module Engine = Taqp_sched.Engine
module Scheduler = Taqp_sched.Scheduler
module Job = Taqp_sched.Job
module Admission = Taqp_sched.Admission
module Policy = Taqp_sched.Policy
module Sched_journal = Taqp_sched.Sched_journal
module Journal = Taqp_recover.Journal

let src = Logs.Src.create "taqp.net" ~doc:"socket front door"

module Log = (val Logs.src_log src : Logs.LOG)

type gate = [ `Eager | `Drain ]

type t = {
  loop : Token_bucket.t Loop.t;  (* per-connection SUBMIT quota *)
  engine : Engine.t;
  catalog : Taqp_storage.Catalog.t;
  config : Taqp_core.Config.t;
  journal : Journal.writer option;
  gate : gate;
  max_pending : int;
  quota_capacity : float;
  quota_refill : float;
  headroom : float;
  terminal : (int, Sched_journal.done_record) Hashtbl.t;
  owner : (int, int) Hashtbl.t;  (* job id -> conn id *)
  journaled : Sched_journal.done_record list;  (* pre-crash completions *)
  crash_time : float;
  mutable next_id : int;
  mutable gate_open : bool;
  mutable draining : bool;
  mutable engine_idle : bool;
  mutable door_rejects : int;
  mutable max_live : int;
}

type stats = {
  result : Engine.result;
  summary : Engine.summary;
      (* merged with pre-crash journal records when recovering *)
  journaled : Sched_journal.done_record list;
  max_live : int;
  door_rejects : int;
}

let jrecord t record =
  match t.journal with
  | None -> ()
  | Some w -> Journal.append w (Sched_journal.encode record)

(* Terminal pushes: the engine's report hook. The record lands in the
   terminal table (FETCH serves it forever after) and, when the
   submitting connection is still around, goes out as RESULT — or as a
   priced REJECT when the admission controller refused the job at its
   virtual arrival. *)
let handle_report t (r : Engine.job_report) =
  let d = Engine.to_done_record r in
  Hashtbl.replace t.terminal d.Sched_journal.d_id d;
  let msg =
    match r.Engine.outcome with
    | Engine.Rejected reason ->
        let retry_after =
          Backpressure.admission ~reason
            ~backlog:(Engine.backlog t.engine)
            ~queue_len:(Engine.live_count t.engine)
            ~headroom:t.headroom
        in
        Wire.Rejected
          {
            job_id = Some d.Sched_journal.d_id;
            reason = Admission.reason_name reason;
            retry_after;
          }
    | Engine.Completed _ | Engine.Expired -> Wire.Result d
  in
  match Hashtbl.find_opt t.owner d.Sched_journal.d_id with
  | None -> ()
  | Some cid -> Loop.send_to t.loop cid msg

let create ?policy ?admission ?params ?metrics ?tracer ?faults ?cache
    ?on_report ?(gate = (`Eager : gate)) ?(max_pending = 4096)
    ?(quota_capacity = 64.0) ?(quota_refill = 4.0) ?journal_path
    ?(recover = []) ?(downtime = 0.0) ~catalog ~config ~port () =
  let headroom =
    match admission with None -> 1.0 | Some a -> a.Admission.headroom
  in
  (* Rebuild state from a crashed server's journal: terminal records
     answer reconnecting clients verbatim; unfinished Submitted lines
     become the re-admitted backlog (absolute times — downtime expires
     what it expires). *)
  let journaled =
    List.filter_map
      (function Sched_journal.Done d -> Some d | _ -> None)
      recover
  in
  let crash_time =
    List.fold_left
      (fun acc r -> Float.max acc (Sched_journal.now_of r))
      0.0 recover
  in
  let finished_ids =
    List.map (fun (d : Sched_journal.done_record) -> d.Sched_journal.d_id)
      journaled
  in
  let backlog_jobs =
    List.filter_map
      (function
        | Sched_journal.Submitted s
          when not (List.mem s.Sched_journal.s_id finished_ids) -> (
            match
              Job.of_line ~catalog ~config ~id:s.Sched_journal.s_id
                s.Sched_journal.s_line
            with
            | Ok (Some job) -> Some job
            | Ok None | Error _ ->
                Log.warn (fun m ->
                    m "recovery: unparseable journaled job %d, dropped"
                      s.Sched_journal.s_id);
                None)
        | _ -> None)
      recover
  in
  let max_seen =
    List.fold_left
      (fun acc r ->
        match r with
        | Sched_journal.Submitted s -> Int.max acc s.Sched_journal.s_id
        | Sched_journal.Done d -> Int.max acc d.Sched_journal.d_id
        | Sched_journal.Admitted a -> Int.max acc a.a_id
        | Sched_journal.Progress p -> Int.max acc p.p_id)
      (-1) recover
  in
  let recovering = recover <> [] in
  let journal = Option.map Journal.create journal_path in
  (* Re-journal the crashed run's carried-over records into the fresh
     journal so a second crash still knows about them. *)
  (match journal with
  | Some w when recovering ->
      List.iter
        (fun r ->
          match r with
          | Sched_journal.Submitted _ | Sched_journal.Done _ ->
              Journal.append w (Sched_journal.encode r)
          | Sched_journal.Admitted _ | Sched_journal.Progress _ -> ())
        recover
  | _ -> ());
  let self = ref None in
  let on_report r =
    (match !self with Some t -> handle_report t r | None -> ());
    match on_report with None -> () | Some f -> f r
  in
  let engine =
    Engine.create ?policy ?admission ?params ?metrics ?tracer ?faults ?cache
      ?journal
      ?start_at:(if recovering then Some (crash_time +. downtime) else None)
      ~on_report backlog_jobs
  in
  let loop = Loop.listen ~port in
  let terminal = Hashtbl.create 64 in
  List.iter
    (fun (d : Sched_journal.done_record) ->
      Hashtbl.replace terminal d.Sched_journal.d_id d)
    journaled;
  let t =
    {
      loop;
      engine;
      catalog;
      config;
      journal;
      gate;
      max_pending;
      quota_capacity;
      quota_refill;
      headroom;
      terminal;
      owner = Hashtbl.create 64;
      journaled;
      crash_time;
      next_id = max_seen + 1;
      gate_open = (gate = `Eager) || recovering;
      draining = false;
      engine_idle = backlog_jobs = [];
      door_rejects = 0;
      max_live = 0;
    }
  in
  self := Some t;
  t

let port t = Loop.port t.loop

let hello t =
  Wire.Hello
    {
      now = Engine.now t.engine;
      max_pending = t.max_pending;
      draining = t.draining;
    }

let door_reject (t : t) c reason retry_after =
  t.door_rejects <- t.door_rejects + 1;
  Loop.reply c (Wire.Rejected { job_id = None; reason; retry_after })

let handle_submit t c line =
  if t.draining then door_reject t c "draining" Backpressure.draining
  else
    let now = Engine.now t.engine in
    match Token_bucket.take (Loop.data c) ~now ~cost:1.0 with
    | `Wait w -> door_reject t c "quota" (Backpressure.quota ~wait:w)
    | `Ok ->
        let depth =
          Engine.live_count t.engine + Engine.pending_count t.engine
        in
        if depth >= t.max_pending then
          door_reject t c "overloaded"
            (Backpressure.overloaded
               ~backlog:(Engine.backlog t.engine)
               ~queue_len:(Engine.live_count t.engine))
        else
          (* Wire times are offsets from the server's virtual now;
             shifting both endpoints preserves the parser's
             deadline-after-arrival invariant. *)
          let parsed =
            Job.of_line ~catalog:t.catalog ~config:t.config ~id:t.next_id
              line
          in
          (match parsed with
          | Error m -> door_reject t c ("parse: " ^ m) 0.0
          | Ok None -> door_reject t c "blank job line" 0.0
          | Ok (Some job) ->
              let job =
                {
                  job with
                  Job.arrival = now +. job.Job.arrival;
                  deadline = now +. job.Job.deadline;
                }
              in
              t.next_id <- t.next_id + 1;
              jrecord t
                (Sched_journal.Submitted
                   {
                     s_id = job.Job.id;
                     s_label = job.Job.label;
                     s_client = Loop.id c;
                     s_line = Job.to_line job;
                     s_now = now;
                   });
              Hashtbl.replace t.owner job.Job.id (Loop.id c);
              Engine.submit t.engine job;
              t.engine_idle <- false;
              Loop.reply c
                (Wire.Queued
                   {
                     job_id = job.Job.id;
                     arrival = job.Job.arrival;
                     deadline = job.Job.deadline;
                   }))

let handle_msg t c = function
  | Wire.Submit { line } -> handle_submit t c line
  | Wire.Status ->
      Loop.reply c
        (Wire.Status_ok
           {
             now = Engine.now t.engine;
             live = Engine.live_count t.engine;
             pending = Engine.pending_count t.engine;
             backlog = Engine.backlog t.engine;
             terminal = Hashtbl.length t.terminal;
             draining = t.draining;
           })
  | Wire.Fetch { job_id } -> (
      match Hashtbl.find_opt t.terminal job_id with
      | Some d -> Loop.reply c (Wire.Result d)
      | None ->
          let state =
            if job_id >= 0 && job_id < t.next_id then "queued" else "unknown"
          in
          Loop.reply c (Wire.Pending { job_id; state }))
  | Wire.Cancel { job_id } ->
      let state =
        if Hashtbl.mem t.terminal job_id then "terminal"
        else
          match Engine.cancel t.engine ~id:job_id with
          | `Cancelled_pending ->
              Hashtbl.remove t.owner job_id;
              "pending"
          | `Killed_live -> "live"
          | `Unknown -> "unknown"
      in
      Loop.reply c (Wire.Cancelled { job_id; state })
  | Wire.Drain ->
      t.draining <- true;
      t.gate_open <- true;
      t.engine_idle <- false
  | Wire.Hello _ | Wire.Queued _ | Wire.Rejected _ | Wire.Result _
  | Wire.Status_ok _ | Wire.Cancelled _ | Wire.Pending _ | Wire.Drain_done _
  | Wire.Error _ ->
      (* server-to-client tags have no business arriving here *)
      Loop.refuse c "unexpected message"

let step_engine t =
  if t.gate_open && not t.engine_idle then begin
    let budget = ref 256 in
    let continue = ref true in
    while !continue && !budget > 0 do
      decr budget;
      match Engine.step t.engine with
      | `Idle ->
          t.engine_idle <- true;
          continue := false
      | `Progress ->
          t.max_live <- Int.max t.max_live (Engine.live_count t.engine)
    done
  end

let finalize t =
  let result = Engine.finish t.engine in
  let summary =
    if t.journaled = [] then result.Engine.summary
    else
      Scheduler.merge_journaled result.Engine.summary
        ~run_reports:result.Engine.reports t.journaled
        ~crash_time:t.crash_time
  in
  Loop.close t.loop ~goodbye:(Wire.Drain_done summary);
  Option.iter Journal.close t.journal;
  {
    result;
    summary;
    journaled = t.journaled;
    max_live = t.max_live;
    door_rejects = t.door_rejects;
  }

(* Abrupt teardown after a propagated crash fault: in-process harnesses
   (tests, benches running the server on a domain) must close the fds a
   dead server leaves behind, or its clients block forever — a real
   process crash gets this from the kernel for free. *)
let shutdown t =
  Loop.shutdown t.loop;
  Option.iter (fun w -> try Journal.close w with _ -> ()) t.journal

(* Run until drained: a DRAIN frame (from any client — it is an
   administrative verb) stops admission, the backlog runs dry, every
   connection gets a DRAIN_DONE carrying the final summary, and the
   accounting comes back to the caller. Crash faults
   ({!Taqp_fault.Injector.Crashed}) propagate — the journal is already
   flushed per record, which is the point. *)
let run t =
  Loop.run t.loop
    {
      Loop.accept =
        (fun () ->
          Token_bucket.create ~capacity:t.quota_capacity ~refill:t.quota_refill
            ~now:(Engine.now t.engine));
      hello = (fun () -> hello t);
      handle = handle_msg t;
      before_select = ignore;
      after_reads = (fun () -> step_engine t);
      timeout =
        (fun () -> if t.gate_open && not t.engine_idle then 0.0 else 0.2);
      finished = (fun () -> t.draining && t.gate_open && t.engine_idle);
    };
  finalize t
