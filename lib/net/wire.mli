(** The TAQPNET1 wire protocol: magic handshake, then length-prefixed
    CRC-framed codec records in both directions — the recovery
    journal's frame layout ([len:u32le][crc32:u32le][payload]) and
    {!Taqp_recover.Codec} payloads, so the framing invariants tested
    for the journal hold on the wire too. See docs/SERVING.md for the
    full protocol narrative.

    RESULT embeds {!Taqp_sched.Sched_journal.done_record} via the
    journal's own field codec: a completion replayed from the journal
    after a crash is byte-identical to the live server's reply. *)

val magic : string
(** ["TAQPNET1"] — the raw first 8 bytes a client must send. *)

val max_frame : int
(** Hard per-frame payload bound; a length field above it closes the
    connection. *)

val max_buffer : int
(** Hard bound on a {!reader}'s buffered-but-unconsumed bytes (one
    max-size frame plus a socket read's slack). Feeding past it
    poisons the reader: {!next} answers [Error] forever after — the
    caller closes the connection. *)

type message =
  | Submit of { line : string }
      (** a {!Taqp_sched.Job.of_line} job line whose arrival and
          deadline are {e offsets from the server's virtual now} *)
  | Status
  | Fetch of { job_id : int }
  | Cancel of { job_id : int }
  | Drain  (** administrative: stop admitting, run the backlog down *)
  | Hello of { now : float; max_pending : int; draining : bool }
  | Queued of { job_id : int; arrival : float; deadline : float }
      (** the assigned id and absolute virtual times *)
  | Rejected of { job_id : int option; reason : string; retry_after : float }
      (** [None]: refused at the door before an id was assigned (the
          synchronous reply to that SUBMIT); [Some id]: the admission
          controller rejected it at its virtual arrival. [retry_after]
          is the priced backoff in virtual seconds ({!Backpressure}). *)
  | Result of Taqp_sched.Sched_journal.done_record
  | Status_ok of {
      now : float;
      live : int;
      pending : int;
      backlog : float;
      terminal : int;
      draining : bool;
    }
  | Cancelled of { job_id : int; state : string }
      (** [state]: ["pending"], ["live"], ["terminal"] or ["unknown"] *)
  | Pending of { job_id : int; state : string }
      (** FETCH on a job that is not terminal yet *)
  | Drain_done of Taqp_sched.Engine.summary
  | Error of { message : string }

val tag_name : message -> string

val encode : message -> string
(** The codec payload (unframed). *)

val decode : string -> (message, string) result
(** Total: truncation, trailing bytes or a bad tag are [Error]. *)

val frame : string -> string
(** Wrap a payload in the [len][crc32] frame header.
    @raise Invalid_argument beyond {!max_frame}. *)

val frame_message : message -> string
(** [frame (encode m)]. *)

(** {2 Incremental reading} — per-connection receive state. *)

type reader

val reader : unit -> reader

val feed : reader -> bytes -> int -> unit
(** Append the first [n] bytes just read from the socket. Beyond
    {!max_buffer} unconsumed bytes the reader is poisoned (bytes are
    dropped and {!next} errors) instead of growing without bound. *)

val available : reader -> int

val take : reader -> int -> string option
(** Consume [n] raw bytes if buffered (the magic handshake). *)

val next : reader -> (string option, string) result
(** Pop one complete frame's payload. [Ok None] = need more bytes;
    [Error] = framing violation (bad length or CRC, or a poisoned
    buffer) — the caller closes the connection. Never raises. The
    length prefix is validated as soon as its 4 bytes are buffered: a
    forged huge length errors immediately, before any claimed payload
    is awaited or allocated. *)

val next_message : reader -> (message option, string) result
(** {!next}, then {!decode}: one whole message, [Ok None] when more
    bytes are needed, [Error] on a framing or codec violation. Never
    raises. *)
