(* The socket phase: server child processes and the closed-loop round
   client that drives them over TAQPNET1.

   A round writes all of its SUBMIT frames with one [write] on one
   connection, so they land in one server read and share one virtual
   arrival instant; the next round starts only after every terminal
   frame of this one is back. The server steps its engine up to 256
   times between socket reads, so independently paced submissions would
   arrive at host-speed-dependent virtual instants; rounds make every
   RESULT record a pure function of the seed. *)

module Wire = Taqp_net.Wire
module Server = Taqp_net.Server
module Sched_journal = Taqp_sched.Sched_journal

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Wall-time bound on any single wait for the server; a hung server
   fails the run instead of hanging it. *)
let read_timeout = 30.0

exception Dropped of string

(* ------------------------------------------------------------------ *)
(* Server children                                                      *)

type server = { pid : int; mutable port : int; mutable reaped : bool }

let children : server list ref = ref []

let reap s =
  if not s.reaped then begin
    s.reaped <- true;
    let rec wait () =
      match Unix.waitpid [] s.pid with
      | _, status -> status
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    in
    match wait () with
    | Unix.WEXITED 0 -> true
    | _ -> false
    | exception Unix.Unix_error _ -> false
  end
  else true

(* At exit (normal or not) no child outlives the benchmark. *)
let kill_all () =
  List.iter
    (fun s ->
      if not s.reaped then begin
        (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (reap s)
      end)
    !children

let stop_signals = [ Sys.sigint; Sys.sigterm ]

let () =
  at_exit kill_all;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    stop_signals;
  (* A write to a dead server must fail the round, not kill the client. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* Fork a server over the parent's catalog. The child binds an
   ephemeral loopback port and reports it through a pipe; it exits
   when a client drains it. *)
let spawn ~create =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      List.iter (fun s -> Sys.set_signal s Sys.Signal_default) stop_signals;
      let code =
        match create () with
        | exception _ -> 2
        | server -> (
            let msg = string_of_int (Server.port server) ^ "\n" in
            ignore (Unix.write_substring wr msg 0 (String.length msg));
            Unix.close wr;
            match Server.run server with _ -> 0 | exception _ -> 3)
      in
      Unix._exit code
  | pid ->
      Unix.close wr;
      let s = { pid; port = 0; reaped = false } in
      children := s :: !children;
      let buf = Bytes.create 16 in
      let n =
        match Unix.select [ rd ] [] [] read_timeout with
        | [], _, _ -> 0
        | _ -> ( try Unix.read rd buf 0 16 with Unix.Unix_error _ -> 0)
      in
      Unix.close rd;
      match int_of_string_opt (String.trim (Bytes.sub_string buf 0 n)) with
      | Some port when port > 0 ->
          s.port <- port;
          s
      | _ -> raise (Dropped "server child did not report a port")

(* Peak resident set of a live child, MiB. *)
let vm_hwm_mb pid =
  match open_in (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
                float_of_int kb /. 1024.0)
        | _ -> scan ()
      in
      let v = scan () in
      close_in ic;
      v

(* Drain a server and reap it: the DRAIN_DONE summary, or [None] when
   the exchange or the child's exit failed. *)
let drain s =
  let summary =
    match
      Taqp_net.Client.connect ~read_timeout ~connect_timeout:read_timeout
        ~port:s.port ()
    with
    | exception _ -> None
    | c ->
        let r = try Some (Taqp_net.Client.drain c) with _ -> None in
        Taqp_net.Client.close c;
        r
  in
  let clean = reap s in
  if clean then summary else None

(* ------------------------------------------------------------------ *)
(* Raw connection                                                       *)

type conn = { fd : Unix.file_descr; rd : Wire.reader; scratch : Bytes.t }

let write_all fd s =
  let rec go off =
    if off < String.length s then
      match Unix.write_substring fd s off (String.length s - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (e, _, _) -> raise (Dropped (Unix.error_message e))
  in
  go 0

(* Block for at least one more read; every complete frame it finished,
   decoded, with the host instant the read returned. *)
let recv c =
  (match Unix.select [ c.fd ] [] [] read_timeout with
  | [], _, _ -> raise (Dropped "read timed out")
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
  let n =
    try Unix.read c.fd c.scratch 0 (Bytes.length c.scratch)
    with Unix.Unix_error (e, _, _) -> raise (Dropped (Unix.error_message e))
  in
  let t = now_s () in
  if n = 0 then raise (Dropped "server closed the connection");
  Wire.feed c.rd c.scratch n;
  let rec frames acc =
    match Wire.next c.rd with
    | Ok None -> List.rev acc
    | Ok (Some p) -> (
        match Wire.decode p with
        | Ok m -> frames (m :: acc)
        | Error e -> raise (Dropped ("bad frame: " ^ e)))
    | Error e -> raise (Dropped ("bad framing: " ^ e))
  in
  (t, frames [])

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
     Unix.setsockopt fd Unix.TCP_NODELAY true
   with Unix.Unix_error (e, _, _) ->
     Unix.close fd;
     raise (Dropped (Unix.error_message e)));
  let c = { fd; rd = Wire.reader (); scratch = Bytes.create 65536 } in
  write_all fd Wire.magic;
  let rec hello () =
    match recv c with
    | _, Wire.Hello _ :: _ -> ()
    | _, [] -> hello ()
    | _, _ -> raise (Dropped "no HELLO")
  in
  hello ();
  c

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Rounds                                                               *)

(* What came back for one submission: [done_] is its RESULT record,
   [None] for a door or admission REJECT. *)
type outcome = {
  id : int;
  cls : Workloads.cls;
  latency : float;
  door_rejected : bool;
  adm_rejected : bool;
  done_ : Sched_journal.done_record option;
}

(* One segment's throughput and latencies, with the host reference
   time measured around it (see [Main.host_ref]). *)
type seg = { rate : float; latencies : float list; host_s : float }

(* Everything one workload's socket phase measured. *)
type acc = {
  mutable submitted : int;
  mutable door_rejects : int;
  mutable adm_rejects : int;
  mutable expired : int;
  mutable completed : int;
  mutable missed : int;
  mutable failed : int;
  mutable errors : int;  (* ERROR frames *)
  mutable unequal_arrivals : int;  (* rounds whose QUEUED instants differ *)
  mutable rel_errors : float list;
  mutable segs : seg list;
  mutable first_frac_sum : float;
  mutable rounds : int;
  mutable first_segment : outcome list;  (* segment 1, in id order *)
  mutable dropped : string option;
}

let acc () =
  {
    submitted = 0;
    door_rejects = 0;
    adm_rejects = 0;
    expired = 0;
    completed = 0;
    missed = 0;
    failed = 0;
    errors = 0;
    unequal_arrivals = 0;
    rel_errors = [];
    segs = [];
    first_frac_sum = 0.0;
    rounds = 0;
    first_segment = [];
    dropped = None;
  }

let record a (o : outcome) =
  if o.door_rejected then a.door_rejects <- a.door_rejects + 1
  else if o.adm_rejected then a.adm_rejects <- a.adm_rejects + 1
  else
    match o.done_ with
    | None -> ()
    | Some d ->
        if d.Sched_journal.d_outcome = "expired" then a.expired <- a.expired + 1
        else a.completed <- a.completed + 1;
        if d.Sched_journal.d_missed then a.missed <- a.missed + 1
        else
          Option.iter
            (fun est ->
              let exact = o.cls.Workloads.exact in
              a.rel_errors <- (Float.abs (est -. exact) /. exact) :: a.rel_errors)
            d.Sched_journal.d_estimate

(* One round: write every SUBMIT at once, then read until each has its
   terminal frame. Submissions are answered synchronously in order
   (QUEUED or a door REJECT), which maps the server's ids back to the
   round's slots. A round cut short counts all its submissions as
   failed. *)
let rec round a c (jobs : Workloads.job array) =
  let k = Array.length jobs in
  a.submitted <- a.submitted + k;
  try round_exn a c jobs
  with Dropped _ as e ->
    a.failed <- a.failed + k;
    raise e

and round_exn a c jobs =
  let k = Array.length jobs in
  let batch =
    String.concat ""
      (Array.to_list
         (Array.map
            (fun j -> Wire.frame_message (Wire.Submit { line = j.Workloads.line }))
            jobs))
  in
  let t0 = now_s () in
  write_all c.fd batch;
  let slot_of_id = Hashtbl.create k in
  let arrivals = ref [] in
  let synced = ref 0 and open_ = ref 0 in
  let first = ref nan and last = ref t0 in
  let out = ref [] in
  let terminal t o =
    if Float.is_nan !first then first := t;
    last := t;
    out := o :: !out
  in
  let slot_outcome slot t ~door ~adm done_ =
    {
      id = (match done_ with Some d -> d.Sched_journal.d_id | None -> -1);
      cls = jobs.(slot).Workloads.cls;
      latency = t -. t0;
      door_rejected = door;
      adm_rejected = adm;
      done_;
    }
  in
  while !synced < k || !open_ > 0 do
    let t, frames = recv c in
    List.iter
      (function
        | Wire.Queued { job_id; arrival; _ } ->
            Hashtbl.replace slot_of_id job_id !synced;
            arrivals := arrival :: !arrivals;
            incr synced;
            incr open_
        | Wire.Rejected { job_id = None; _ } ->
            terminal t (slot_outcome !synced t ~door:true ~adm:false None);
            incr synced
        | Wire.Rejected { job_id = Some id; _ } -> (
            match Hashtbl.find_opt slot_of_id id with
            | Some slot ->
                decr open_;
                terminal t
                  { (slot_outcome slot t ~door:false ~adm:true None) with id }
            | None -> raise (Dropped "REJECT for an unknown id"))
        | Wire.Result d -> (
            match Hashtbl.find_opt slot_of_id d.Sched_journal.d_id with
            | Some slot ->
                decr open_;
                terminal t (slot_outcome slot t ~door:false ~adm:false (Some d))
            | None -> raise (Dropped "RESULT for an unknown id"))
        | Wire.Error _ ->
            a.errors <- a.errors + 1;
            raise (Dropped "ERROR frame")
        | _ -> raise (Dropped "unexpected frame"))
      frames
  done;
  (match !arrivals with
  | x :: rest when List.exists (fun y -> y <> x) rest ->
      a.unequal_arrivals <- a.unequal_arrivals + 1
  | _ -> ());
  a.rounds <- a.rounds + 1;
  if !last > t0 then
    a.first_frac_sum <- a.first_frac_sum +. ((!first -. t0) /. (!last -. t0))
  else a.first_frac_sum <- a.first_frac_sum +. 1.0;
  List.iter (record a) !out;
  !out

(* One segment on a fresh connection: every round, then the segment's
   rate. [host_before] is the host reference time measured just before
   it; [host_ref] measures the one after, which is returned for the
   next segment. A dropped connection ends the workload's socket
   phase. *)
let segment a ~port ~first ~host_before ~host_ref
    (rounds : Workloads.job array array) =
  match a.dropped with
  | Some _ -> host_before
  | None -> (
      match connect port with
      | exception Dropped m ->
          a.dropped <- Some m;
          host_before
      | c ->
          let t0 = now_s () in
          let outs = ref [] in
          let rate =
            try
              Array.iter (fun r -> outs := List.rev_append (round a c r) !outs) rounds;
              Some (float_of_int (List.length !outs) /. (now_s () -. t0))
            with Dropped m ->
              a.dropped <- Some m;
              None
          in
          close c;
          let host_after = host_ref () in
          Option.iter
            (fun rate ->
              let latencies = List.map (fun o -> o.latency) !outs in
              let host_s = (host_before +. host_after) /. 2.0 in
              a.segs <- { rate; latencies; host_s } :: a.segs)
            rate;
          if first then
            a.first_segment <- List.sort (fun x y -> compare x.id y.id) !outs;
          host_after)
