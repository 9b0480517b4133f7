(* taqp_ha: the replicated serving tier. A TAQPNET1-speaking balancer
   fronts N backends, routing each SUBMIT by least-priced-backlog (the
   same {!Backpressure.overloaded} price an overloaded door would
   quote), health-checking backends with deadline-bounded STATUS
   probes ({!Health}) and wrapping each in a closed/open/half-open
   circuit breaker cooled down in virtual time ({!Breaker}).

   On backend death the balancer migrates the dead backend's
   unfinished jobs to survivors via the per-backend scheduler journal,
   with {!Taqp_sched.Scheduler.recover} semantics: terminal [Done]
   records are replayed as verbatim RESULT frames — byte-identical to
   the live pushes, because the wire embeds the journal's own codec —
   and unfinished [Submitted] lines are re-admitted at crash time plus
   downtime with their absolute deadlines intact (downtime expires
   what it expires). Everything is deduped by job id: the first
   terminal record for an id wins and later arrivals (replays, races)
   are dropped, so a client never sees two terminals for one job.

   Two modes share this file and one tier core (the first-terminal
   table, the pick, the unavailable price, the journal replay and the
   books):

   - {!Cluster} — N in-process {!Taqp_sched.Engine}s on synchronized
     virtual clocks. Fully deterministic (no sockets, no wall time):
     the bit-exact anchor mode. A 1-backend cluster performs the exact
     same engine operation sequence as [Scheduler.run] on the same job
     list, so its reports and summary are byte-identical to a direct
     serve — the acceptance anchor bench --ha pins.

   - {!Proxy} — the shared {!Loop} fronting N backend *processes*
     over TAQPNET1 ([taqp balance]). The proxy is
     catalog-free: it never parses a job line, it forwards SUBMIT
     frames verbatim and rewrites only job ids (backends number their
     own jobs from 0; the proxy owns the global id space).

   See docs/HA.md for the full design narrative. *)

module Engine = Taqp_sched.Engine
module Job = Taqp_sched.Job
module Admission = Taqp_sched.Admission
module Policy = Taqp_sched.Policy
module Sched_journal = Taqp_sched.Sched_journal
module Journal = Taqp_recover.Journal

let src = Logs.Src.create "taqp.ha" ~doc:"replicated serving tier"

module Log = (val Logs.src_log src : Logs.LOG)

(* ------------------------------------------------------------------ *)
(* Cluster-level accounting over terminal records.

   Rebuilds an {!Engine.summary} from done records alone — what a
   balancer has when its backends' engines are spread over processes.
   Field by field this mirrors [Engine.finish] (same fold orders over
   id-sorted records, same percentile helper, same divisions), so for
   records that all came from one engine the result is bit-identical
   to that engine's own summary — the 1-backend anchor. Synthesized
   ["lost"] records (a dead backend's unmigrated jobs) count like
   expirations: admitted, missed, no service. *)

let is_rejected (d : Sched_journal.done_record) =
  String.equal d.Sched_journal.d_outcome "rejected"

let is_expired (d : Sched_journal.done_record) =
  String.equal d.Sched_journal.d_outcome "expired"
  || String.equal d.Sched_journal.d_outcome "lost"

let summarize ~makespan (records : Sched_journal.done_record list) :
    Engine.summary =
  let records =
    List.stable_sort
      (fun (a : Sched_journal.done_record) b ->
        compare a.Sched_journal.d_id b.Sched_journal.d_id)
      records
  in
  let count f = List.length (List.filter f records) in
  let admitted =
    List.filter (fun (d : Sched_journal.done_record) -> d.d_admitted) records
  in
  let late =
    List.map
      (fun (d : Sched_journal.done_record) -> Float.max 0.0 d.d_lateness)
      admitted
    |> List.sort compare |> Array.of_list
  in
  let waits = List.map (fun (d : Sched_journal.done_record) -> d.d_queue_wait) admitted in
  let missed = count (fun (d : Sched_journal.done_record) -> d.d_missed) in
  {
    submitted = List.length records;
    admitted = List.length admitted;
    degraded = count (fun (d : Sched_journal.done_record) -> d.d_degraded);
    rejected = count is_rejected;
    expired = count is_expired;
    completed = count (fun d -> not (is_rejected d) && not (is_expired d));
    missed;
    miss_rate =
      (if records = [] then 0.0
       else float_of_int missed /. float_of_int (List.length records));
    lateness_p50 = Engine.percentile late 0.50;
    lateness_p99 = Engine.percentile late 0.99;
    lateness_p999 = Engine.percentile late 0.999;
    max_lateness = (if late = [||] then 0.0 else late.(Array.length late - 1));
    mean_queue_wait =
      (match waits with
      | [] -> 0.0
      | ws -> List.fold_left ( +. ) 0.0 ws /. float_of_int (List.length ws));
    makespan;
    busy_time =
      List.fold_left
        (fun acc (d : Sched_journal.done_record) -> acc +. d.d_service)
        0.0 records;
    preemptions =
      List.fold_left
        (fun acc (d : Sched_journal.done_record) -> acc + d.d_preemptions)
        0 records;
  }

(* A dead backend's job that reached no survivor: terminal by fiat.
   Admitted and missed (the client got no in-deadline answer), zero
   service — the honest books for work a crash swallowed. *)
let lost_record ~id ~label ~now : Sched_journal.done_record =
  {
    d_id = id;
    d_label = label;
    d_outcome = "lost";
    d_admitted = true;
    d_degraded = false;
    d_missed = true;
    d_lateness = 0.0;
    d_queue_wait = 0.0;
    d_finished_at = now;
    d_service = 0.0;
    d_steps = 0;
    d_preemptions = 0;
    d_estimate = None;
    d_now = now;
  }

(* ------------------------------------------------------------------ *)
(* The tier core: what both modes do the same way, whether a backend
   is an in-process engine or a socket. *)

(* The dedupe rule: the first terminal record for a job id wins and
   later arrivals (replays, races) are dropped, so a client never sees
   two terminals for one job. [true] when [d] was the first. *)
let first_terminal terminal (d : Sched_journal.done_record) =
  (not (Hashtbl.mem terminal d.Sched_journal.d_id))
  && begin
       Hashtbl.replace terminal d.Sched_journal.d_id d;
       true
     end

(* The tier's books: every terminal record in id order, and their
   cross-backend summary. *)
let books ~makespan terminal =
  let records =
    Hashtbl.fold (fun _ d acc -> d :: acc) terminal []
    |> List.sort (fun (a : Sched_journal.done_record) b ->
           compare a.Sched_journal.d_id b.Sched_journal.d_id)
  in
  (records, summarize ~makespan records)

(* Least-priced-backlog routing. [view b] is [None] for a backend that
   takes no traffic, else its breaker, its overload price (the
   retry_after an overloaded door would quote) and its queue depth.
   Among breakers that are not open: closed before half-open (trial
   traffic), then the smallest price, then the shallowest queue, then
   the lowest index. *)
let pick ~now backends view =
  let best = ref None in
  Array.iteri
    (fun i b ->
      match view b with
      | None -> ()
      | Some (breaker, price, depth) -> (
          match Breaker.state breaker ~now with
          | Breaker.Open -> ()
          | st -> (
              let key =
                ((if st = Breaker.Closed then 0 else 1), price, depth, i)
              in
              match !best with
              | Some (k, _) when compare k key <= 0 -> ()
              | _ -> best := Some (key, b))))
    backends;
  Option.map snd !best

(* The retry_after quoted when no backend is routable: the shortest
   breaker cooldown left among the backends [breaker] names, 0 when
   none is left. *)
let unavailable_price ~now backends breaker =
  Array.fold_left
    (fun acc b ->
      match breaker b with
      | Some br -> Float.min acc (Breaker.retry_after br ~now)
      | None -> acc)
    infinity backends
  |> fun p -> if Float.is_finite p then p else 0.0

(* Recovery from a dead backend's journal: read it back (a torn tail
   or an unreadable file is logged, never raised), hand every terminal
   [Done] record to [replay], then every [Submitted] line that has no
   [Done] to [migrate]. *)
let replay_journal ~index path ~replay ~migrate =
  let records =
    match Sched_journal.load path with
    | Ok l ->
        Option.iter
          (fun reason ->
            Log.warn (fun m -> m "backend %d journal torn: %s" index reason))
          l.Sched_journal.torn;
        l.Sched_journal.records
    | Error e ->
        Log.err (fun m -> m "backend %d journal unreadable: %s" index e);
        []
  in
  let done_ids = Hashtbl.create 32 in
  List.iter
    (function
      | Sched_journal.Done d ->
          Hashtbl.replace done_ids d.Sched_journal.d_id ();
          replay d
      | _ -> ())
    records;
  List.iter
    (function
      | Sched_journal.Submitted s
        when not (Hashtbl.mem done_ids s.Sched_journal.s_id) ->
          migrate s
      | _ -> ())
    records

(* ------------------------------------------------------------------ *)
(* Deterministic in-process mode. *)

module Cluster = struct
  type backend = {
    b_index : int;
    b_engine : Engine.t;
    b_journal : Journal.writer;
    b_path : string;
    b_breaker : Breaker.t;
    mutable b_alive : bool;
    mutable b_crashed_at : float;
    mutable b_submitted : int;
    mutable b_migrated_in : int;
  }

  type outcome = {
    o_summary : Engine.summary;
    o_records : Sched_journal.done_record list;  (** id order *)
    o_results : (int * Engine.result) list;  (** surviving backends *)
    o_replays : (int * bool) list;
        (** journal-replayed terminal ids and whether the replayed
            RESULT frame was byte-identical to the live push *)
    o_routed : (int * int) list;  (** job id -> final backend *)
    o_migrated : int;
    o_lost : int;
    o_door_rejects : int;
  }

  type t = {
    catalog : Taqp_storage.Catalog.t;
    config : Taqp_core.Config.t;
    backends : backend array;
    terminal : (int, Sched_journal.done_record) Hashtbl.t;
    frames : (int, string) Hashtbl.t;  (* gid -> live terminal frame *)
    mutable next_id : int;
    mutable routed : (int * int) list;  (* reversed *)
    mutable replays : (int * bool) list;  (* reversed *)
    mutable migrated : int;
    mutable lost : int;
    mutable door_rejects : int;
    mutable finished : bool;
  }

  (* A first terminal record also stores the canonical wire bytes a
     client was (or would be) pushed. *)
  let push t (d : Sched_journal.done_record) =
    if first_terminal t.terminal d then
      Hashtbl.replace t.frames d.Sched_journal.d_id
        (Wire.frame_message (Wire.Result d))

  let write_off t ~id ~label ~now =
    push t (lost_record ~id ~label ~now);
    t.lost <- t.lost + 1

  let create ?policy ?admission ?(breaker = fun () -> Breaker.create ())
      ~dir ~backends:n ~catalog ~config () =
    if n < 1 then invalid_arg "Cluster.create: backends < 1";
    let self = ref None in
    let on_report r =
      match !self with
      | Some t -> push t (Engine.to_done_record r)
      | None -> ()
    in
    let backends =
      Array.init n (fun i ->
          let path =
            Filename.concat dir (Printf.sprintf "backend-%d.journal" i)
          in
          let journal = Journal.create path in
          {
            b_index = i;
            b_engine =
              Engine.create ?policy ?admission ~journal ~on_report [];
            b_journal = journal;
            b_path = path;
            b_breaker = breaker ();
            b_alive = true;
            b_crashed_at = 0.0;
            b_submitted = 0;
            b_migrated_in = 0;
          })
    in
    let t =
      {
        catalog;
        config;
        backends;
        terminal = Hashtbl.create 64;
        frames = Hashtbl.create 64;
        next_id = 0;
        routed = [];
        replays = [];
        migrated = 0;
        lost = 0;
        door_rejects = 0;
        finished = false;
      }
    in
    self := Some t;
    t

  (* The tier's virtual now: the max across backends (a dead backend
     contributes the instant it crashed at). Idle engines lag — their
     clocks only move under work — so submissions are stamped against
     this cluster now and lagging engines sleep forward to it. *)
  let now t =
    Array.fold_left
      (fun acc b ->
        Float.max acc
          (if b.b_alive then Engine.now b.b_engine else b.b_crashed_at))
      0.0 t.backends

  let alive t i = t.backends.(i).b_alive
  let backend_now t i = Engine.now t.backends.(i).b_engine

  let route t ~vnow =
    pick ~now:vnow t.backends (fun b ->
        if not b.b_alive then None
        else
          Some
            ( b.b_breaker,
              Backpressure.overloaded
                ~backlog:(Engine.backlog b.b_engine)
                ~queue_len:(Engine.live_count b.b_engine),
              Engine.live_count b.b_engine + Engine.pending_count b.b_engine ))

  (* Door-journal [job] at [b] — an uncharged append, mirroring the
     socket server's door journaling — then hand it to the engine. *)
  let enqueue t b (job : Job.t) =
    Journal.append b.b_journal
      (Sched_journal.encode
         (Sched_journal.Submitted
            {
              s_id = job.Job.id;
              s_label = job.Job.label;
              s_client = b.b_index;
              s_line = Job.to_line job;
              s_now = Engine.now b.b_engine;
            }));
    Engine.submit b.b_engine job;
    t.routed <- (job.Job.id, b.b_index) :: t.routed

  (* One SUBMIT: parse (the cluster is its own door), route, stamp the
     wire offsets against cluster now, then enqueue. *)
  let submit t line =
    if t.finished then invalid_arg "Cluster.submit: already drained";
    let reject reason retry_after =
      t.door_rejects <- t.door_rejects + 1;
      `Rejected (reason, retry_after)
    in
    match
      Job.of_line ~catalog:t.catalog ~config:t.config ~id:t.next_id line
    with
    | Error m -> reject ("parse: " ^ m) 0.0
    | Ok None -> reject "blank job line" 0.0
    | Ok (Some job) -> (
        let vnow = now t in
        match route t ~vnow with
        | None ->
            reject "unavailable"
              (unavailable_price ~now:vnow t.backends (fun b ->
                   if b.b_alive then Some b.b_breaker else None))
        | Some b ->
            let job =
              {
                job with
                Job.arrival = vnow +. job.Job.arrival;
                deadline = vnow +. job.Job.deadline;
              }
            in
            t.next_id <- t.next_id + 1;
            enqueue t b job;
            b.b_submitted <- b.b_submitted + 1;
            `Queued (job.Job.id, b.b_index))

  (* Step the least-advanced live engine first, repeatedly — a
     deterministic interleaving that keeps the backends' clocks
     loosely synchronized (an engine may overshoot [upto] by one
     atomic stage; that is scheduler time, not an error). *)
  let advance t ~upto =
    let steppable b =
      b.b_alive
      && Engine.now b.b_engine < upto
      && (Engine.live_count b.b_engine > 0
         || Engine.pending_count b.b_engine > 0)
    in
    let rec go () =
      let best =
        Array.fold_left
          (fun acc b ->
            if not (steppable b) then acc
            else
              match acc with
              | Some best
                when (Engine.now best.b_engine, best.b_index)
                     <= (Engine.now b.b_engine, b.b_index) ->
                  acc
              | _ -> Some b)
          None t.backends
      in
      match best with
      | None -> ()
      | Some b ->
          ignore (Engine.step b.b_engine);
          go ()
    in
    go ()

  (* Migrate one unfinished journaled line to a survivor: re-parse the
     absolute-times line, push its arrival to crash + downtime
     (deadline untouched — downtime expires what it expires), and
     enqueue it there. *)
  let migrate t ~crash_now ~downtime (s : Sched_journal.submitted_record) =
    match
      Job.of_line ~catalog:t.catalog ~config:t.config ~id:s.Sched_journal.s_id
        s.Sched_journal.s_line
    with
    | Error _ | Ok None ->
        write_off t ~id:s.Sched_journal.s_id ~label:s.Sched_journal.s_label
          ~now:crash_now
    | Ok (Some job) -> (
        let job =
          {
            job with
            Job.arrival = Float.max job.Job.arrival (crash_now +. downtime);
          }
        in
        match route t ~vnow:(now t) with
        | None -> write_off t ~id:job.Job.id ~label:job.Job.label ~now:crash_now
        | Some b ->
            enqueue t b job;
            b.b_migrated_in <- b.b_migrated_in + 1;
            t.migrated <- t.migrated + 1)

  (* Kill a backend abruptly. Its engine is abandoned mid-flight (jobs
     and all); recovery works purely from its journal, exactly as a
     process crash would force: close the writer, load the file back,
     replay terminal [Done] records (byte-compared against the live
     pushes — the replay-identity guarantee), then either migrate or
     write off the unfinished remainder. *)
  let kill t ~backend:i ?(downtime = 0.0) ~failover () =
    let b = t.backends.(i) in
    if not b.b_alive then invalid_arg "Cluster.kill: backend already dead";
    let crash_now = now t in
    b.b_alive <- false;
    b.b_crashed_at <- Engine.now b.b_engine;
    Breaker.force_open b.b_breaker ~now:crash_now;
    Journal.close b.b_journal;
    replay_journal ~index:i b.b_path
      ~replay:(fun d ->
        let identical =
          match Hashtbl.find_opt t.frames d.Sched_journal.d_id with
          | Some live ->
              String.equal live (Wire.frame_message (Wire.Result d))
          | None ->
              (* the live push never made it out — the replay fills
                 the gap, trivially identical to itself *)
              push t d;
              true
        in
        t.replays <- (d.Sched_journal.d_id, identical) :: t.replays)
      ~migrate:(fun s ->
        if not (Hashtbl.mem t.terminal s.Sched_journal.s_id) then
          if failover then migrate t ~crash_now ~downtime s
          else
            write_off t ~id:s.Sched_journal.s_id ~label:s.Sched_journal.s_label
              ~now:crash_now)

  let frame t ~id = Hashtbl.find_opt t.frames id

  let drain t =
    if t.finished then invalid_arg "Cluster.drain: already drained";
    t.finished <- true;
    advance t ~upto:infinity;
    let results =
      Array.to_list t.backends
      |> List.filter_map (fun b ->
             if b.b_alive then begin
               let r = Engine.finish b.b_engine in
               Journal.close b.b_journal;
               Some (b.b_index, r)
             end
             else None)
    in
    let makespan =
      Array.fold_left
        (fun acc b ->
          Float.max acc
            (if b.b_alive then
               match List.assoc_opt b.b_index results with
               | Some r -> r.Engine.summary.Engine.makespan
               | None -> 0.0
             else b.b_crashed_at))
        0.0 t.backends
    in
    let records, summary = books ~makespan t.terminal in
    {
      o_summary = summary;
      o_records = records;
      o_results = results;
      o_replays = List.rev t.replays;
      o_routed = List.rev t.routed;
      o_migrated = t.migrated;
      o_lost = t.lost;
      o_door_rejects = t.door_rejects;
    }
end

(* ------------------------------------------------------------------ *)
(* Multi-process mode: a proxy over N backend server processes, run on
   the shared select loop ({!Loop}). *)

module Proxy = struct
  type backend_spec = {
    bs_port : int;
    bs_journal : string option;
        (** the backend's own [--journal] path, read back on death to
            migrate its unfinished jobs; [None] = no migration *)
  }

  (* One backend connection. [k_pending] correlates forwarded SUBMITs
     with their synchronous QUEUED / door-REJECT replies in FIFO order
     ([None] = a migration resubmit, no client to tell); [k_cancels]
     does the same for CANCEL. [k_local] maps the backend's own job ids
     (each backend numbers from 0) to the proxy's global ids. *)
  type bstate = {
    k_index : int;
    k_spec : backend_spec;
    k_peer : Loop.peer;  (* closed = the backend is gone *)
    k_health : Health.t;
    k_pending : (int option * int) Queue.t;  (* conn id option, gid *)
    k_cancels : (int * int * int) Queue.t;  (* local, gid, conn id *)
    k_local : (int, int) Hashtbl.t;  (* backend-local id -> gid *)
    mutable k_now : float;
    mutable k_hello : bool;
    mutable k_max_pending : int;
    mutable k_summary : Engine.summary option;  (* its DRAIN_DONE *)
  }

  type entry = {
    mutable j_conn : int option;  (* owner connection, if still around *)
    mutable j_backend : int;
    mutable j_local : int option;  (* backend-local id once QUEUED *)
  }

  type t = {
    loop : unit Loop.t;
    backends : bstate array;
    failover : bool;
    downtime : float;
    jobs : (int, entry) Hashtbl.t;  (* gid -> routing entry *)
    terminal : (int, Sched_journal.done_record) Hashtbl.t;  (* by gid *)
    notified : (int, unit) Hashtbl.t;
        (* gids whose terminal verdict already reached the client as an
           admission REJECT — the bookkeeping RESULT must not re-push *)
    mutable next_gid : int;
    mutable draining : bool;
    mutable submitted : int;
    mutable door_rejects : int;
    mutable deaths : int;
    mutable migrated : int;
    mutable replayed : int;
    mutable lost : int;
  }

  type stats = {
    p_summary : Engine.summary;
    p_records : Sched_journal.done_record list;  (* gid order *)
    p_submitted : int;
    p_door_rejects : int;
    p_deaths : int;
    p_migrated : int;
    p_replayed : int;
    p_lost : int;
  }

  (* The tier's virtual now: the max reported instant across backends
     (dead ones keep their last report). Breakers cool against this. *)
  let vnow t =
    Array.fold_left (fun acc b -> Float.max acc b.k_now) 0.0 t.backends

  (* Still part of the tier: connected and not yet drained. *)
  let serving b = (not (Loop.closed b.k_peer)) && b.k_summary = None

  let connect_backend ~index (spec : backend_spec) =
    let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, spec.bs_port) in
    let rec dial attempt =
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      match Unix.connect fd addr with
      | () -> fd
      | exception
          Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ECONNRESET), _, _)
        when attempt < 50 ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Unix.sleepf 0.1;
          dial (attempt + 1)
      | exception e ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          raise e
    in
    let fd = dial 0 in
    (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
    let rec write_all s off =
      if off < String.length s then
        write_all s (off + Unix.write_substring fd s off (String.length s - off))
    in
    write_all Wire.magic 0;
    {
      k_index = index;
      k_spec = spec;
      k_peer = Loop.peer fd;
      k_health = Health.create ();
      k_pending = Queue.create ();
      k_cancels = Queue.create ();
      k_local = Hashtbl.create 64;
      k_now = 0.0;
      k_hello = false;
      k_max_pending = 0;
      k_summary = None;
    }

  let port t = Loop.port t.loop

  (* The cluster's ranking over the last health snapshot, counting our
     own in-flight submits in the queue depth. *)
  let route t =
    pick ~now:(vnow t) t.backends (fun b ->
        if serving b && b.k_hello then
          Some
            ( Health.breaker b.k_health,
              Health.cost b.k_health,
              Health.depth b.k_health + Queue.length b.k_pending )
        else None)

  let door_reject t c reason retry_after =
    t.door_rejects <- t.door_rejects + 1;
    Loop.reply c (Wire.Rejected { job_id = None; reason; retry_after })

  (* Queue [msg] for the client that owns [gid], if it is still there. *)
  let notify t gid msg =
    match Hashtbl.find_opt t.jobs gid with
    | Some { j_conn = Some cid; _ } -> Loop.send_to t.loop cid msg
    | _ -> ()

  (* A terminal record under its global id (live push, fetched reject
     record, journal replay or a write-off), kept by the tier core's
     first-wins rule and pushed to its client unless an admission
     REJECT already told it. *)
  let push_terminal t (d : Sched_journal.done_record) =
    first_terminal t.terminal d
    && begin
         if not (Hashtbl.mem t.notified d.Sched_journal.d_id) then
           notify t d.Sched_journal.d_id (Wire.Result d);
         true
       end

  let push_lost t gid ~label =
    if push_terminal t (lost_record ~id:gid ~label ~now:(vnow t)) then
      t.lost <- t.lost + 1

  (* A forwarded SUBMIT that never reached a backend's books: its
     client is refused as at a door; a migration resubmit is lost. *)
  let unacked t ~reason ~retry_after (conn_opt, gid) =
    match conn_opt with
    | Some cid ->
        Hashtbl.remove t.jobs gid;
        t.door_rejects <- t.door_rejects + 1;
        Loop.send_to t.loop cid
          (Wire.Rejected { job_id = None; reason; retry_after })
    | None -> push_lost t gid ~label:"migrated"

  (* --- client-facing handling (mirrors Server.handle_msg) --------- *)

  let handle_submit t c line =
    if t.draining then door_reject t c "draining" Backpressure.draining
    else
      match route t with
      | None ->
          door_reject t c "unavailable"
            (unavailable_price ~now:(vnow t) t.backends (fun b ->
                 if serving b then Some (Health.breaker b.k_health) else None))
      | Some b ->
          let gid = t.next_gid in
          t.next_gid <- gid + 1;
          t.submitted <- t.submitted + 1;
          Hashtbl.replace t.jobs gid
            {
              j_conn = Some (Loop.id c);
              j_backend = b.k_index;
              j_local = None;
            };
          Queue.add (Some (Loop.id c), gid) b.k_pending;
          Loop.send b.k_peer (Wire.Submit { line })

  let status_reply t =
    let live = ref 0 and pending = ref 0 and backlog = ref 0.0 in
    Array.iter
      (fun b ->
        if serving b then begin
          (match Health.snapshot b.k_health with
          | Some s ->
              live := !live + s.Health.sn_live;
              pending := !pending + s.Health.sn_pending;
              backlog := !backlog +. s.Health.sn_backlog
          | None -> ());
          pending := !pending + Queue.length b.k_pending
        end)
      t.backends;
    Wire.Status_ok
      {
        now = vnow t;
        live = !live;
        pending = !pending;
        backlog = !backlog;
        terminal = Hashtbl.length t.terminal;
        draining = t.draining;
      }

  let handle_msg t c = function
    | Wire.Submit { line } -> handle_submit t c line
    | Wire.Status -> Loop.reply c (status_reply t)
    | Wire.Fetch { job_id } -> (
        match Hashtbl.find_opt t.terminal job_id with
        | Some d -> Loop.reply c (Wire.Result d)
        | None ->
            let state =
              if job_id >= 0 && job_id < t.next_gid then "queued"
              else "unknown"
            in
            Loop.reply c (Wire.Pending { job_id; state }))
    | Wire.Cancel { job_id } -> (
        if Hashtbl.mem t.terminal job_id then
          Loop.reply c (Wire.Cancelled { job_id; state = "terminal" })
        else
          match Hashtbl.find_opt t.jobs job_id with
          | Some { j_local = Some local; j_backend; _ }
            when not (Loop.closed t.backends.(j_backend).k_peer) ->
              let b = t.backends.(j_backend) in
              Queue.add (local, job_id, Loop.id c) b.k_cancels;
              Loop.send b.k_peer (Wire.Cancel { job_id = local })
          | Some { j_local = None; _ } ->
              (* the forwarded SUBMIT has not been acknowledged yet —
                 nothing to address a cancel at *)
              Loop.reply c (Wire.Cancelled { job_id; state = "pending" })
          | _ -> Loop.reply c (Wire.Cancelled { job_id; state = "unknown" }))
    | Wire.Drain ->
        t.draining <- true;
        Array.iter
          (fun b -> if serving b then Loop.send b.k_peer Wire.Drain)
          t.backends
    | Wire.Hello _ | Wire.Queued _ | Wire.Rejected _ | Wire.Result _
    | Wire.Status_ok _ | Wire.Cancelled _ | Wire.Pending _ | Wire.Drain_done _
    | Wire.Error _ ->
        Loop.refuse c "unexpected message"

  let hello t =
    Wire.Hello
      {
        now = vnow t;
        max_pending =
          Array.fold_left (fun acc b -> acc + b.k_max_pending) 0 t.backends;
        draining = t.draining;
      }

  (* --- backend-facing handling ------------------------------------ *)

  let handle_backend_msg t b = function
    | Wire.Hello { now; max_pending; _ } ->
        b.k_hello <- true;
        b.k_now <- Float.max b.k_now now;
        b.k_max_pending <- max_pending
    | Wire.Status_ok { now; live; pending; backlog; _ } ->
        b.k_now <- Float.max b.k_now now;
        Health.observe b.k_health ~now:(vnow t)
          ~snapshot:
            {
              Health.sn_now = now;
              sn_live = live;
              sn_pending = pending;
              sn_backlog = backlog;
            }
    | Wire.Queued { job_id = local; arrival; deadline } -> (
        match Queue.take_opt b.k_pending with
        | None -> Log.warn (fun m -> m "backend %d: orphan QUEUED" b.k_index)
        | Some (conn_opt, gid) ->
            Hashtbl.replace b.k_local local gid;
            (match Hashtbl.find_opt t.jobs gid with
            | Some e -> e.j_local <- Some local
            | None -> ());
            Option.iter
              (fun cid ->
                Loop.send_to t.loop cid
                  (Wire.Queued { job_id = gid; arrival; deadline }))
              conn_opt)
    | Wire.Rejected { job_id = None; reason; retry_after } -> (
        (* the backend's own door refused our forwarded SUBMIT *)
        match Queue.take_opt b.k_pending with
        | None ->
            Log.warn (fun m -> m "backend %d: orphan door REJECT" b.k_index)
        | Some pending -> unacked t ~reason ~retry_after pending)
    | Wire.Rejected { job_id = Some local; reason; retry_after } -> (
        (* admission verdict at virtual arrival: relay under the global
           id, then FETCH the done record so the books balance *)
        match Hashtbl.find_opt b.k_local local with
        | None ->
            Log.warn (fun m ->
                m "backend %d: REJECT for unknown job %d" b.k_index local)
        | Some gid ->
            notify t gid
              (Wire.Rejected { job_id = Some gid; reason; retry_after });
            Hashtbl.replace t.notified gid ();
            Loop.send b.k_peer (Wire.Fetch { job_id = local }))
    | Wire.Result d -> (
        match Hashtbl.find_opt b.k_local d.Sched_journal.d_id with
        | None ->
            Log.warn (fun m ->
                m "backend %d: RESULT for unknown job %d" b.k_index
                  d.Sched_journal.d_id)
        | Some gid ->
            ignore (push_terminal t { d with Sched_journal.d_id = gid }))
    | Wire.Pending _ -> ()  (* a FETCH raced the terminal push; the
                               RESULT itself already answered *)
    | Wire.Cancelled { job_id = local; state } -> (
        match Queue.take_opt b.k_cancels with
        | Some (expected, gid, cid) when expected = local ->
            Loop.send_to t.loop cid (Wire.Cancelled { job_id = gid; state })
        | _ -> Log.warn (fun m -> m "backend %d: orphan CANCELLED" b.k_index))
    | Wire.Drain_done summary -> b.k_summary <- Some summary
    | Wire.Error { message } ->
        Log.warn (fun m -> m "backend %d: ERROR %s" b.k_index message)
    | Wire.Submit _ | Wire.Status | Wire.Fetch _ | Wire.Cancel _ | Wire.Drain
      ->
        Log.warn (fun m -> m "backend %d: client-tag frame" b.k_index)

  (* Rewrite a journaled absolute-times job line into wire offsets for
     a survivor: arrival becomes 0 (admit now — the survivor adds its
     own virtual now back), the deadline becomes whatever slack is
     left after the crash and the configured downtime. The query text
     after the second '|' is forwarded untouched — the proxy stays
     catalog-free. *)
  let rewrite_line ~crash_now ~downtime line =
    match String.index_opt line '|' with
    | None -> None
    | Some i -> (
        match String.index_from_opt line (i + 1) '|' with
        | None -> None
        | Some j -> (
            let deadline =
              float_of_string_opt
                (String.trim (String.sub line (i + 1) (j - i - 1)))
            in
            match deadline with
            | None -> None
            | Some dl ->
                let remaining = dl -. (crash_now +. downtime) in
                if remaining <= 0.0 then None
                else
                  let rest =
                    String.sub line (j + 1) (String.length line - j - 1)
                  in
                  Some (Printf.sprintf "%.17g | %.17g |%s" 0.0 remaining rest)))

  (* Resubmit a dead backend's unfinished job [gid] to a survivor with
     its remaining slack, or write it off. *)
  let migrate t b gid (s : Sched_journal.submitted_record) =
    let line =
      if t.failover then
        rewrite_line ~crash_now:b.k_now ~downtime:t.downtime
          s.Sched_journal.s_line
      else None
    in
    match (line, route t) with
    | Some line, Some survivor ->
        (match Hashtbl.find_opt t.jobs gid with
        | Some e ->
            e.j_backend <- survivor.k_index;
            e.j_local <- None
        | None ->
            Hashtbl.replace t.jobs gid
              { j_conn = None; j_backend = survivor.k_index; j_local = None });
        Queue.add (None, gid) survivor.k_pending;
        Loop.send survivor.k_peer (Wire.Submit { line });
        t.migrated <- t.migrated + 1
    | _ -> push_lost t gid ~label:s.Sched_journal.s_label

  (* A backend connection died ([reason]: a framing or codec error).
     Graceful (its DRAIN_DONE already landed) is just bookkeeping;
     abrupt death trips the breaker, answers every unacknowledged
     correlation, then replays the backend's journal through the tier
     core: terminal [Done] records replay as RESULT frames
     (byte-identical — same codec), unfinished [Submitted] lines
     migrate or are written off as lost. *)
  let backend_lost t b reason =
    Option.iter
      (fun e -> Log.err (fun m -> m "backend %d: %s" b.k_index e))
      reason;
    if b.k_summary = None then begin
      t.deaths <- t.deaths + 1;
      Log.warn (fun m -> m "backend %d died" b.k_index);
      Breaker.force_open (Health.breaker b.k_health) ~now:(vnow t);
      Queue.iter
        (unacked t ~reason:"backend lost" ~retry_after:0.0)
        b.k_pending;
      Queue.clear b.k_pending;
      Queue.iter
        (fun (_, gid, cid) ->
          Loop.send_to t.loop cid
            (Wire.Cancelled { job_id = gid; state = "unknown" }))
        b.k_cancels;
      Queue.clear b.k_cancels;
      Option.iter
        (fun path ->
          replay_journal ~index:b.k_index path
            ~replay:(fun d ->
              match Hashtbl.find_opt b.k_local d.Sched_journal.d_id with
              | None -> ()  (* a pre-proxy tenancy of this journal *)
              | Some gid ->
                  if push_terminal t { d with Sched_journal.d_id = gid } then
                    t.replayed <- t.replayed + 1)
            ~migrate:(fun s ->
              match Hashtbl.find_opt b.k_local s.Sched_journal.s_id with
              | Some gid when not (Hashtbl.mem t.terminal gid) ->
                  migrate t b gid s
              | _ -> ()))
        b.k_spec.bs_journal;
      (* defensive sweep: anything still routed at this backend with
         no terminal — no journal, or its line never made the disk *)
      Hashtbl.iter
        (fun gid (e : entry) ->
          if e.j_backend = b.k_index && not (Hashtbl.mem t.terminal gid) then
            push_lost t gid ~label:"orphaned")
        t.jobs
    end

  let create ?(failover = true) ?(downtime = 0.0) ~port ~backends () =
    if backends = [] then invalid_arg "Proxy.create: no backends";
    let backends =
      Array.of_list (List.mapi (fun i s -> connect_backend ~index:i s) backends)
    in
    let t =
      {
        loop = Loop.listen ~port;
        backends;
        failover;
        downtime;
        jobs = Hashtbl.create 64;
        terminal = Hashtbl.create 64;
        notified = Hashtbl.create 16;
        next_gid = 0;
        draining = false;
        submitted = 0;
        door_rejects = 0;
        deaths = 0;
        migrated = 0;
        replayed = 0;
        lost = 0;
      }
    in
    Array.iter
      (fun b ->
        Loop.attach t.loop b.k_peer ~frame:(handle_backend_msg t b)
          ~lost:(backend_lost t b))
      backends;
    t

  (* Wall-clock probe cadence: STATUS every interval, a missed reply
     deadline debited to the breaker at the tier's virtual now. Death
     is only ever declared on connection loss — a slow backend is
     quarantined by its breaker, not buried. *)
  let probe t =
    let wall = Unix.gettimeofday () in
    Array.iter
      (fun b ->
        if serving b && b.k_hello then begin
          if Health.overdue b.k_health ~wall then
            Health.failed b.k_health ~now:(vnow t);
          if Health.due b.k_health ~wall then begin
            Loop.send b.k_peer Wire.Status;
            Health.sent b.k_health ~wall
          end
        end)
      t.backends

  let finalize t =
    (* anything still in the books with no terminal verdict *)
    Hashtbl.iter
      (fun gid _ ->
        if not (Hashtbl.mem t.terminal gid) then
          push_lost t gid ~label:"unresolved")
      t.jobs;
    let makespan =
      Array.fold_left
        (fun acc b ->
          Float.max acc
            (match b.k_summary with
            | Some s -> s.Engine.makespan
            | None -> b.k_now))
        0.0 t.backends
    in
    let records, summary = books ~makespan t.terminal in
    Loop.close t.loop ~goodbye:(Wire.Drain_done summary);
    {
      p_summary = summary;
      p_records = records;
      p_submitted = t.submitted;
      p_door_rejects = t.door_rejects;
      p_deaths = t.deaths;
      p_migrated = t.migrated;
      p_replayed = t.replayed;
      p_lost = t.lost;
    }

  let shutdown t = Loop.shutdown t.loop

  let run t =
    Loop.run t.loop
      {
        Loop.accept = ignore;
        hello = (fun () -> hello t);
        handle = handle_msg t;
        before_select = (fun () -> probe t);
        after_reads = ignore;
        timeout = (fun () -> 0.05);
        finished =
          (fun () ->
            t.draining && Array.for_all (fun b -> not (serving b)) t.backends);
      };
    finalize t
end
