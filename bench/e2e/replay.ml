(* The traced phase: a workload's first segment replayed in process,
   round by round, through the same engine the server runs — parse
   each line with [Job.of_line], submit the round at [Engine.now],
   step until idle. Host time is split by layer from outside the
   library: the benchmark times each [Job.of_line] and [Engine.step]
   call, and an aggregating sink reads the span boundaries that exist
   already.

   Within one step the events are strictly ordered: admission and
   compile, [query] Begin, planning, [stage] Begin, operator spans,
   [stage] End, finalize. Only [query] Begin, [stage] and [operator]
   spans are read: [query] spans of interleaved jobs overlap, and
   [storage]/[scan] complete events take their begin stamp from the
   device's virtual clock, so under a host-clock tracer their
   durations mix two clocks. *)

module Engine = Taqp_sched.Engine
module Job = Taqp_sched.Job
module Sched_journal = Taqp_sched.Sched_journal
module Journal = Taqp_recover.Journal
module Wire = Taqp_net.Wire
module Tracer = Taqp_obs.Tracer
module Event = Taqp_obs.Event
module Io_stats = Taqp_storage.Io_stats
module Cache = Taqp_cache.Cache

let now_s = Drive.now_s

(* Host seconds per layer, accumulated by the sink and the step hooks. *)
type layers = {
  mutable step_start : float;
  mutable boundary : float;  (* step start, or this step's query Begin *)
  mutable stage_begin : float;
  mutable stage_ops : float;  (* top-level operator time in this stage *)
  mutable stage_end : float option;  (* in the current step *)
  mutable stack : (string * float * float ref) list;  (* open operators *)
  mutable admit_compile : float;
  mutable plan : float;
  mutable stage_self : float;
  mutable post_stage : float;
  mutable stages : int;
  mutable stage_steps : int;
  ops : (string, float ref) Hashtbl.t;
}

let layers () =
  {
    step_start = 0.0;
    boundary = 0.0;
    stage_begin = 0.0;
    stage_ops = 0.0;
    stage_end = None;
    stack = [];
    admit_compile = 0.0;
    plan = 0.0;
    stage_self = 0.0;
    post_stage = 0.0;
    stages = 0;
    stage_steps = 0;
    ops = Hashtbl.create 8;
  }

let op_class label =
  if String.length label > 5 && String.sub label 0 5 = "scan:" then "scan"
  else label

let add_op l name dt =
  match Hashtbl.find_opt l.ops name with
  | Some r -> r := !r +. dt
  | None -> Hashtbl.replace l.ops name (ref dt)

let op_time l name =
  match Hashtbl.find_opt l.ops name with Some r -> !r | None -> 0.0

let sink l =
  let emit (e : Event.t) =
    match (e.Event.cat, e.Event.phase) with
    | "query", Event.Begin ->
        l.admit_compile <- l.admit_compile +. (e.ts -. l.step_start);
        l.boundary <- e.ts
    | "stage", Event.Begin ->
        l.plan <- l.plan +. (e.ts -. l.boundary);
        l.stages <- l.stages + 1;
        l.stage_begin <- e.ts;
        l.stage_ops <- 0.0
    | "operator", Event.Begin -> l.stack <- (e.name, e.ts, ref 0.0) :: l.stack
    | "operator", Event.End -> (
        match l.stack with
        | (name, t0, children) :: rest ->
            let dur = e.ts -. t0 in
            add_op l (op_class name) (dur -. !children);
            l.stack <- rest;
            (match rest with
            | (_, _, parent) :: _ -> parent := !parent +. dur
            | [] -> l.stage_ops <- l.stage_ops +. dur)
        | [] -> ())
    | "stage", Event.End ->
        l.stage_self <- l.stage_self +. (e.ts -. l.stage_begin -. l.stage_ops);
        l.stage_end <- Some e.ts
    | _ -> ()
  in
  { Taqp_obs.Sink.emit; close = ignore }

(* What one replay produced. *)
type t = {
  reports : Engine.job_report list;  (* id order *)
  records : (int * string option) list;
      (* per job id: the terminal record in journal encoding, [None]
         for an admission reject *)
  parse_s : float;
  step_s : float;
  io : Io_stats.t;
  cache : Cache.stats option;
  summary : Engine.summary;
  layers : layers option;
}

let total_s r = r.parse_s +. r.step_s

let run ~catalog ~config ~params ~(settings : Workloads.settings) ~journal_path
    ~traced (rounds : Workloads.job array array) =
  let l = if traced then Some (layers ()) else None in
  let tracer = Option.map (fun l -> Tracer.make ~now:now_s ~sink:(sink l)) l in
  let cache =
    Option.map (fun mb -> Cache.create ~budget_mb:mb ~seed:0 ()) settings.cache_mb
  in
  let journal =
    if settings.journal then Some (Journal.create journal_path) else None
  in
  let engine =
    Engine.create ?admission:settings.admission ~params ?tracer ?cache ?journal []
  in
  let parse_s = ref 0.0 and step_s = ref 0.0 and next_id = ref 0 in
  Array.iter
    (fun round ->
      let now = Engine.now engine in
      Array.iter
        (fun (j : Workloads.job) ->
          let t0 = now_s () in
          let parsed = Job.of_line ~catalog ~config ~id:!next_id j.Workloads.line in
          parse_s := !parse_s +. (now_s () -. t0);
          match parsed with
          | Ok (Some job) ->
              (* The server's shift of wire offsets onto its clock. *)
              incr next_id;
              Engine.submit engine
                {
                  job with
                  Job.arrival = now +. job.Job.arrival;
                  deadline = now +. job.Job.deadline;
                }
          | Ok None | Error _ -> failwith ("replay: unparseable line " ^ j.line))
        round;
      let rec go () =
        let t0 = now_s () in
        Option.iter
          (fun l ->
            l.stage_end <- None;
            l.step_start <- t0;
            l.boundary <- t0)
          l;
        let r = Engine.step engine in
        let t1 = now_s () in
        step_s := !step_s +. (t1 -. t0);
        Option.iter
          (fun l ->
            Option.iter
              (fun s ->
                l.post_stage <- l.post_stage +. (t1 -. s);
                l.stage_steps <- l.stage_steps + 1)
              l.stage_end)
          l;
        match r with `Idle -> () | `Progress -> go ()
      in
      go ())
    rounds;
  let io = Io_stats.copy (Taqp_storage.Device.stats (Engine.device engine)) in
  let result = Engine.finish engine in
  Option.iter Journal.close journal;
  let records =
    List.map
      (fun (r : Engine.job_report) ->
        ( r.Engine.job.Job.id,
          match r.Engine.outcome with
          | Engine.Rejected _ -> None
          | Engine.Completed _ | Engine.Expired ->
              Some (Sched_journal.encode (Sched_journal.Done (Engine.to_done_record r)))
        ))
      result.Engine.reports
  in
  {
    reports = result.Engine.reports;
    records;
    parse_s = !parse_s;
    step_s = !step_s;
    io;
    cache = Option.map Cache.stats cache;
    summary = result.Engine.summary;
    layers = l;
  }

(* ------------------------------------------------------------------ *)
(* Standalone codec timings over the replay's own records               *)

(* Per job: encode, frame, feed, pop and decode its SUBMIT, QUEUED and
   terminal frames. Returns (seconds, framed bytes). *)
let wire_codec r =
  let msgs =
    List.concat_map
      (fun (rep : Engine.job_report) ->
        let job = rep.Engine.job in
        let terminal =
          match rep.Engine.outcome with
          | Engine.Rejected reason ->
              Wire.Rejected
                {
                  job_id = Some job.Job.id;
                  reason = Taqp_sched.Admission.reason_name reason;
                  retry_after = 0.0;
                }
          | Engine.Completed _ | Engine.Expired ->
              Wire.Result (Engine.to_done_record rep)
        in
        [
          Wire.Submit { line = Job.to_line job };
          Wire.Queued
            { job_id = job.Job.id; arrival = job.Job.arrival; deadline = job.Job.deadline };
          terminal;
        ])
      r.reports
  in
  let reader = Wire.reader () in
  let bytes = ref 0 in
  let t0 = now_s () in
  List.iter
    (fun m ->
      let f = Wire.frame_message m in
      bytes := !bytes + String.length f;
      Wire.feed reader (Bytes.unsafe_of_string f) (String.length f);
      match Wire.next reader with
      | Ok (Some p) -> (
          match Wire.decode p with
          | Ok _ -> ()
          | Error e -> failwith ("wire codec: " ^ e))
      | _ -> failwith "wire codec: frame did not round-trip")
    msgs;
  (now_s () -. t0, !bytes)

(* Encode and append the two records every journaled wire job writes:
   its door-level [Submitted] line and its terminal [Done]. Returns
   (seconds, records, bytes appended). *)
let journal_append r ~path =
  let records =
    List.concat_map
      (fun (rep : Engine.job_report) ->
        let job = rep.Engine.job in
        [
          Sched_journal.Submitted
            {
              s_id = job.Job.id;
              s_label = job.Job.label;
              s_client = 0;
              s_line = Job.to_line job;
              s_now = job.Job.arrival;
            };
          Sched_journal.Done (Engine.to_done_record rep);
        ])
      r.reports
  in
  let w = Journal.create path in
  let bytes = ref 0 in
  let t0 = now_s () in
  List.iter
    (fun rec_ ->
      let p = Sched_journal.encode rec_ in
      bytes := !bytes + String.length p + Journal.frame_overhead;
      Journal.append w p)
    records;
  let dt = now_s () -. t0 in
  Journal.close w;
  (dt, List.length records, !bytes)
