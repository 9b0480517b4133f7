(* The TAQPNET1 wire protocol: a connection opens with the raw 8-byte
   magic, then both directions speak length-prefixed CRC-framed records
   — the exact frame layout of the recovery journal
   ([len:u32le][crc32:u32le][payload], {!Taqp_recover.Journal}) so one
   set of framing invariants covers disk and wire. Payloads are
   {!Taqp_recover.Codec} records tagged by a leading u8; the RESULT
   payload embeds {!Taqp_sched.Sched_journal.done_record} through the
   journal's own field codec, which is what makes a replayed
   journal completion byte-identical to a live reply.

   Decoding is total: a bad length, CRC mismatch or malformed payload
   is an [Error]/[Decode_error], never an exception escaping to the
   event loop — the server answers the first bad frame by closing the
   connection (docs/SERVING.md). *)

module Codec = Taqp_recover.Codec
module Crc32 = Taqp_recover.Crc32
module Sched_journal = Taqp_sched.Sched_journal
module Engine = Taqp_sched.Engine

let magic = "TAQPNET1"

(* Generous for job lines and summaries; a length field above this is
   garbage (or an attack), not a big request. *)
let max_frame = 1 lsl 20

type message =
  (* client -> server *)
  | Submit of { line : string }
      (** a {!Taqp_sched.Job.of_line} job line whose arrival/deadline
          are offsets from the server's virtual now *)
  | Status
  | Fetch of { job_id : int }
  | Cancel of { job_id : int }
  | Drain
  (* server -> client *)
  | Hello of { now : float; max_pending : int; draining : bool }
  | Queued of { job_id : int; arrival : float; deadline : float }
      (** absolute virtual times as admitted to the engine *)
  | Rejected of { job_id : int option; reason : string; retry_after : float }
      (** [job_id = None]: refused at the door (quota, overload,
          draining, parse) before an id was assigned — the synchronous
          reply to that SUBMIT. [Some id]: the engine's admission
          controller rejected it at its virtual arrival. [retry_after]
          is the priced backoff in virtual seconds ({!Backpressure}). *)
  | Result of Sched_journal.done_record
  | Status_ok of {
      now : float;
      live : int;
      pending : int;
      backlog : float;
      terminal : int;
      draining : bool;
    }
  | Cancelled of { job_id : int; state : string }
  | Pending of { job_id : int; state : string }
      (** FETCH on a job that is not terminal yet *)
  | Drain_done of Engine.summary
  | Error of { message : string }

let write_summary b (s : Engine.summary) =
  Codec.int b s.submitted;
  Codec.int b s.admitted;
  Codec.int b s.degraded;
  Codec.int b s.rejected;
  Codec.int b s.expired;
  Codec.int b s.completed;
  Codec.int b s.missed;
  Codec.float b s.miss_rate;
  Codec.float b s.lateness_p50;
  Codec.float b s.lateness_p99;
  Codec.float b s.lateness_p999;
  Codec.float b s.max_lateness;
  Codec.float b s.mean_queue_wait;
  Codec.float b s.makespan;
  Codec.float b s.busy_time;
  Codec.int b s.preemptions

let read_summary d : Engine.summary =
  let submitted = Codec.read_int d in
  let admitted = Codec.read_int d in
  let degraded = Codec.read_int d in
  let rejected = Codec.read_int d in
  let expired = Codec.read_int d in
  let completed = Codec.read_int d in
  let missed = Codec.read_int d in
  let miss_rate = Codec.read_float d in
  let lateness_p50 = Codec.read_float d in
  let lateness_p99 = Codec.read_float d in
  let lateness_p999 = Codec.read_float d in
  let max_lateness = Codec.read_float d in
  let mean_queue_wait = Codec.read_float d in
  let makespan = Codec.read_float d in
  let busy_time = Codec.read_float d in
  let preemptions = Codec.read_int d in
  {
    submitted;
    admitted;
    degraded;
    rejected;
    expired;
    completed;
    missed;
    miss_rate;
    lateness_p50;
    lateness_p99;
    lateness_p999;
    max_lateness;
    mean_queue_wait;
    makespan;
    busy_time;
    preemptions;
  }

let encode_message b = function
  | Submit { line } ->
      Codec.u8 b 0;
      Codec.string b line
  | Status -> Codec.u8 b 1
  | Fetch { job_id } ->
      Codec.u8 b 2;
      Codec.int b job_id
  | Cancel { job_id } ->
      Codec.u8 b 3;
      Codec.int b job_id
  | Drain -> Codec.u8 b 4
  | Hello { now; max_pending; draining } ->
      Codec.u8 b 10;
      Codec.float b now;
      Codec.int b max_pending;
      Codec.bool b draining
  | Queued { job_id; arrival; deadline } ->
      Codec.u8 b 11;
      Codec.int b job_id;
      Codec.float b arrival;
      Codec.float b deadline
  | Rejected { job_id; reason; retry_after } ->
      Codec.u8 b 12;
      Codec.option Codec.int b job_id;
      Codec.string b reason;
      Codec.float b retry_after
  | Result d ->
      Codec.u8 b 13;
      Sched_journal.write_done b d
  | Status_ok { now; live; pending; backlog; terminal; draining } ->
      Codec.u8 b 14;
      Codec.float b now;
      Codec.int b live;
      Codec.int b pending;
      Codec.float b backlog;
      Codec.int b terminal;
      Codec.bool b draining
  | Cancelled { job_id; state } ->
      Codec.u8 b 15;
      Codec.int b job_id;
      Codec.string b state
  | Pending { job_id; state } ->
      Codec.u8 b 16;
      Codec.int b job_id;
      Codec.string b state
  | Drain_done s ->
      Codec.u8 b 17;
      write_summary b s
  | Error { message } ->
      Codec.u8 b 18;
      Codec.string b message

let decode_message d =
  match Codec.read_u8 d with
  | 0 -> Submit { line = Codec.read_string d }
  | 1 -> Status
  | 2 -> Fetch { job_id = Codec.read_int d }
  | 3 -> Cancel { job_id = Codec.read_int d }
  | 4 -> Drain
  | 10 ->
      let now = Codec.read_float d in
      let max_pending = Codec.read_int d in
      let draining = Codec.read_bool d in
      Hello { now; max_pending; draining }
  | 11 ->
      let job_id = Codec.read_int d in
      let arrival = Codec.read_float d in
      let deadline = Codec.read_float d in
      Queued { job_id; arrival; deadline }
  | 12 ->
      let job_id = Codec.read_option Codec.read_int d in
      let reason = Codec.read_string d in
      let retry_after = Codec.read_float d in
      Rejected { job_id; reason; retry_after }
  | 13 -> Result (Sched_journal.read_done d)
  | 14 ->
      let now = Codec.read_float d in
      let live = Codec.read_int d in
      let pending = Codec.read_int d in
      let backlog = Codec.read_float d in
      let terminal = Codec.read_int d in
      let draining = Codec.read_bool d in
      Status_ok { now; live; pending; backlog; terminal; draining }
  | 15 ->
      let job_id = Codec.read_int d in
      let state = Codec.read_string d in
      Cancelled { job_id; state }
  | 16 ->
      let job_id = Codec.read_int d in
      let state = Codec.read_string d in
      Pending { job_id; state }
  | 17 -> Drain_done (read_summary d)
  | 18 -> Error { message = Codec.read_string d }
  | n -> raise (Codec.Decode_error (Printf.sprintf "bad message tag %d" n))

let encode m = Codec.to_string encode_message m

let decode s =
  match Codec.of_string decode_message s with
  | m -> Ok m
  | exception Codec.Decode_error e -> Result.Error e

let tag_name = function
  | Submit _ -> "submit"
  | Status -> "status"
  | Fetch _ -> "fetch"
  | Cancel _ -> "cancel"
  | Drain -> "drain"
  | Hello _ -> "hello"
  | Queued _ -> "queued"
  | Rejected _ -> "rejected"
  | Result _ -> "result"
  | Status_ok _ -> "status_ok"
  | Cancelled _ -> "cancelled"
  | Pending _ -> "pending"
  | Drain_done _ -> "drain_done"
  | Error _ -> "error"

(* ------------------------------------------------------------------ *)
(* Framing *)

let frame payload =
  let len = String.length payload in
  if len > max_frame then invalid_arg "Wire.frame: payload too large";
  let b = Bytes.create (8 + len) in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.set_int32_le b 4 (Crc32.string payload);
  Bytes.blit_string payload 0 b 8 len;
  Bytes.unsafe_to_string b

let frame_message m = frame (encode m)

(* Incremental frame reader over a growing byte buffer — the per
   connection receive state. [next] never raises: a framing violation
   (oversized or negative length, CRC mismatch, receive-buffer
   overflow) is an [Error] the server turns into a connection close.

   Two bounds keep an adversarial peer from growing the buffer: the
   length prefix is validated as soon as its 4 bytes are buffered —
   before any of the claimed payload is awaited, so a forged huge
   length costs at most 4 bytes of allocation — and the buffer itself
   is hard-capped at [max_buffer]. A consumer that drains frames after
   every read (both our event loops do) can never hit the cap on a
   compliant stream; feeding past it poisons the reader and drops the
   bytes. *)
type reader = {
  mutable buf : Bytes.t;
  mutable len : int;
  mutable off : int;
  mutable overflow : bool;
}

(* Room for one max-size frame plus a socket read's worth of the next;
   anything beyond means the peer is flooding faster than frames can
   legally complete. *)
let max_buffer = 8 + max_frame + 65536

let reader () = { buf = Bytes.create 4096; len = 0; off = 0; overflow = false }

let compact r =
  if r.off > 0 then begin
    Bytes.blit r.buf r.off r.buf 0 (r.len - r.off);
    r.len <- r.len - r.off;
    r.off <- 0
  end

let feed r bytes n =
  if not r.overflow then begin
    compact r;
    if r.len + n > max_buffer then r.overflow <- true
    else begin
      if r.len + n > Bytes.length r.buf then begin
        let cap = ref (Bytes.length r.buf) in
        while r.len + n > !cap do
          cap := !cap * 2
        done;
        let bigger = Bytes.create !cap in
        Bytes.blit r.buf 0 bigger 0 r.len;
        r.buf <- bigger
      end;
      Bytes.blit bytes 0 r.buf r.len n;
      r.len <- r.len + n
    end
  end

let available r = r.len - r.off

let take r n =
  if available r < n then None
  else begin
    let s = Bytes.sub_string r.buf r.off n in
    r.off <- r.off + n;
    Some s
  end

let next r =
  if r.overflow then Result.Error "receive buffer overflow"
  else if available r < 4 then Ok None
  else
    (* Validate the length the moment its 4 bytes land — never wait
       for (let alone allocate) a payload a corrupt or adversarial
       prefix merely claims. *)
    let len = Int32.to_int (Bytes.get_int32_le r.buf r.off) in
    if len < 0 || len > max_frame then
      Result.Error (Printf.sprintf "bad frame length %d" len)
    else if available r < 8 + len then Ok None
    else begin
      let crc = Bytes.get_int32_le r.buf (r.off + 4) in
      let payload = Bytes.sub_string r.buf (r.off + 8) len in
      if Crc32.string payload <> crc then Result.Error "frame CRC mismatch"
      else begin
        r.off <- r.off + 8 + len;
        Ok (Some payload)
      end
    end

let next_message r =
  match next r with
  | Ok None -> Ok None
  | Ok (Some payload) -> Result.map Option.some (decode payload)
  | Result.Error e -> Result.Error e
