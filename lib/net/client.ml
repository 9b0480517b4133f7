(* A blocking TAQPNET1 client. The server pushes terminal frames
   (RESULT, admission REJECTs) asynchronously, so every synchronous
   exchange reads frames until its reply tag appears and parks any
   pushes that arrive in between in an inbox the caller drains with
   [pushes]. One reader thread of control — this client is not
   thread-safe, by design: the load harness multiplexes many logical
   clients from one loop instead. *)

type push =
  | Finished of Taqp_sched.Sched_journal.done_record
  | Refused of { job_id : int; reason : string; retry_after : float }

type t = {
  fd : Unix.file_descr;
  rd : Wire.reader;
  scratch : Bytes.t;
  inbox : push Queue.t;
  read_timeout : float option;
  mutable hello : Wire.message option;
  mutable closed : bool;
}

exception Protocol_error of string
exception Server_closed
exception Timed_out of string

let send t msg =
  let s = Wire.frame_message msg in
  let rec go off =
    if off < String.length s then
      let n = Unix.write_substring t.fd s off (String.length s - off) in
      go (off + n)
  in
  try go 0
  with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
    t.closed <- true;
    raise Server_closed

(* With a read timeout configured, bound every blocking read with a
   select — a hung (not dead) server surfaces as [Timed_out] instead
   of blocking the caller forever. *)
let wait_readable t =
  match t.read_timeout with
  | None -> ()
  | Some tmo -> (
      match Unix.select [ t.fd ] [] [] tmo with
      | [], _, _ -> raise (Timed_out "read")
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())

(* Pop the next decoded frame, blocking on the socket as needed. *)
let rec next_frame t =
  match Wire.next_message t.rd with
  | Ok (Some msg) -> msg
  | Error e -> raise (Protocol_error e)
  | Ok None -> (
      wait_readable t;
      match Unix.read t.fd t.scratch 0 (Bytes.length t.scratch) with
      | 0 ->
          t.closed <- true;
          raise Server_closed
      | n ->
          Wire.feed t.rd t.scratch n;
          next_frame t
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> next_frame t
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
          t.closed <- true;
          raise Server_closed)

(* Synchronous exchanges park asynchronous terminal pushes here. *)
let stash t = function
  | Wire.Result d ->
      Queue.add (Finished d) t.inbox;
      None
  | Wire.Rejected { job_id = Some job_id; reason; retry_after } ->
      Queue.add (Refused { job_id; reason; retry_after }) t.inbox;
      None
  | Wire.Error { message } -> raise (Protocol_error ("server: " ^ message))
  | msg -> Some msg

let rec await t =
  match stash t (next_frame t) with Some m -> m | None -> await t

(* A bounded connect: non-blocking connect + select, then SO_ERROR
   for the verdict. Without [connect_timeout] the plain blocking
   connect is used (loopback connects are effectively instant; the
   timeout matters for a listener whose accept queue is wedged). *)
let connect_fd ?connect_timeout ~port () =
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     match connect_timeout with
     | None -> Unix.connect fd addr
     | Some tmo -> (
         Unix.set_nonblock fd;
         (try Unix.connect fd addr with
         | Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _) -> (
             match Unix.select [] [ fd ] [] tmo with
             | _, [], _ -> raise (Timed_out "connect")
             | _ -> (
                 match Unix.getsockopt_error fd with
                 | None -> ()
                 | Some err -> raise (Unix.Unix_error (err, "connect", "")))));
         Unix.clear_nonblock fd)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let connect ?connect_timeout ?read_timeout ~port () =
  let fd = connect_fd ?connect_timeout ~port () in
  (try Unix.setsockopt fd Unix.TCP_NODELAY true
   with Unix.Unix_error _ -> ());
  let t =
    {
      fd;
      rd = Wire.reader ();
      scratch = Bytes.create 8192;
      inbox = Queue.create ();
      read_timeout;
      hello = None;
      closed = false;
    }
  in
  let rec write_all s off =
    if off < String.length s then
      write_all s (off + Unix.write_substring t.fd s off (String.length s - off))
  in
  write_all Wire.magic 0;
  (match await t with
  | Wire.Hello _ as h -> t.hello <- Some h
  | m -> raise (Protocol_error ("expected HELLO, got " ^ Wire.tag_name m)));
  t

let hello t =
  match t.hello with
  | Some (Wire.Hello { now; max_pending; draining }) ->
      (now, max_pending, draining)
  | _ -> raise (Protocol_error "no HELLO recorded")

let submit t line =
  send t (Wire.Submit { line });
  match await t with
  | Wire.Queued { job_id; arrival; deadline } ->
      `Queued (job_id, arrival, deadline)
  | Wire.Rejected { job_id = None; reason; retry_after } ->
      `Rejected (reason, retry_after)
  | m -> raise (Protocol_error ("expected QUEUED/REJECT, got " ^ Wire.tag_name m))

let status t =
  send t Wire.Status;
  match await t with
  | Wire.Status_ok { now; live; pending; backlog; terminal; draining } ->
      (now, live, pending, backlog, terminal, draining)
  | m -> raise (Protocol_error ("expected STATUS_OK, got " ^ Wire.tag_name m))

let fetch t ~job_id =
  send t (Wire.Fetch { job_id });
  (* The reply shares the RESULT tag with the async terminal push, so
     the answer is correlated by id: a RESULT for this job — push or
     reply, the frames are identical — answers the fetch; everything
     else for other jobs is parked as usual. *)
  let rec go () =
    match next_frame t with
    | Wire.Result d when d.Taqp_sched.Sched_journal.d_id = job_id -> `Result d
    | Wire.Pending { job_id = id; state } when id = job_id -> `Pending state
    | msg -> (
        match stash t msg with
        | None -> go ()
        | Some m ->
            raise
              (Protocol_error ("expected RESULT/PENDING, got " ^ Wire.tag_name m)))
  in
  go ()

let cancel t ~job_id =
  send t (Wire.Cancel { job_id });
  match await t with
  | Wire.Cancelled { state; _ } -> state
  | m -> raise (Protocol_error ("expected CANCELLED, got " ^ Wire.tag_name m))

let await_drain t =
  let rec go () =
    match stash t (next_frame t) with
    | None -> go ()
    | Some (Wire.Drain_done summary) -> summary
    | Some m ->
        raise (Protocol_error ("expected DRAIN_DONE, got " ^ Wire.tag_name m))
  in
  go ()

let drain t =
  send t Wire.Drain;
  await_drain t

let pushes t =
  let out = List.of_seq (Queue.to_seq t.inbox) in
  Queue.clear t.inbox;
  out

(* Park every already-sent push without blocking: poll the socket with
   a zero timeout and stash whatever full frames have landed. *)
let poll t =
  let rec drain_frames () =
    match Wire.next_message t.rd with
    | Ok (Some msg) ->
        (match stash t msg with
        | None -> ()
        | Some m -> raise (Protocol_error ("unsolicited " ^ Wire.tag_name m)));
        drain_frames ()
    | Error e -> raise (Protocol_error e)
    | Ok None -> (
        match Unix.select [ t.fd ] [] [] 0.0 with
        | [], _, _ -> ()
        | _ -> (
            match Unix.read t.fd t.scratch 0 (Bytes.length t.scratch) with
            | 0 -> t.closed <- true
            | n ->
                Wire.feed t.rd t.scratch n;
                drain_frames ()
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain_frames ()
            | exception
                Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
                t.closed <- true))
  in
  if not t.closed then drain_frames ()

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

(* Bounded-retry connect: a server that is still binding (or a
   balancer whose backends are still coming up) answers ECONNREFUSED
   for a moment; retry with a doubling pause instead of failing the
   first race. Anything other than a refused/timed-out connect —
   protocol errors, a real Unix error — propagates immediately. *)
let connect_retry ?connect_timeout ?read_timeout ?(attempts = 5)
    ?(pause = 0.1) ~port () =
  if attempts < 1 then invalid_arg "Client.connect_retry: attempts < 1";
  let rec go n pause =
    match connect ?connect_timeout ?read_timeout ~port () with
    | t -> t
    | exception
        (( Unix.Unix_error
             ( ( Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.ETIMEDOUT
               | Unix.ENETUNREACH | Unix.EHOSTUNREACH ),
               _,
               _ )
         | Timed_out _ | Server_closed ) as e) ->
        if n >= attempts then raise e
        else begin
          Unix.sleepf pause;
          go (n + 1) (pause *. 2.0)
        end
  in
  go 1 pause

(* Priced-backoff submit: honor the server's own retry_after quote —
   that is the point of admission-as-backpressure — under an
   exponential floor so a zero-priced refusal (draining, zero-slack)
   still backs off. retry_after is in *virtual* seconds; [sleep] maps
   the wait onto the caller's world and defaults to a capped wall
   sleep (tests inject a recorder, the in-process harnesses a no-op). *)
let submit_with_retry ?(attempts = 4) ?(backoff = 2.0) ?(floor = 0.01)
    ?(sleep = fun d -> if d > 0.0 then Unix.sleepf (Float.min 0.5 d)) t line =
  if attempts < 1 then invalid_arg "Client.submit_with_retry: attempts < 1";
  let rec go n floor tries =
    match submit t line with
    | `Queued _ as q -> (q, List.rev tries)
    | `Rejected (reason, retry_after) as r ->
        if n >= attempts then (r, List.rev tries)
        else begin
          sleep (Float.max retry_after floor);
          go (n + 1) (floor *. backoff) ((reason, retry_after) :: tries)
        end
  in
  go 1 floor []
