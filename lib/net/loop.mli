(** The one [Unix.select] loop behind every TAQPNET1 listener: the
    socket server ({!Server}) and the balancer's proxy
    ({!Balancer.Proxy}) both run on it. It owns the loopback listener,
    accept (with TCP_NODELAY), the magic handshake, frame dispatch,
    non-blocking reads and flushes, and the bounded goodbye flush. A
    framing or codec error sends ERROR and closes that connection;
    nothing raises. The owner supplies what differs: its frame
    handler, its HELLO, its per-iteration work, its select timeout
    and its "finished" test. See docs/SERVING.md. *)

type peer
(** One buffered non-blocking socket: its fd, a {!Wire.reader}, an
    output buffer with its write offset, and a closing flag. *)

val peer : Unix.file_descr -> peer
(** Wrap a connected socket and put it in non-blocking mode — how the
    proxy's backend sockets join the loop (see {!attach}). *)

val send : peer -> Wire.message -> unit
(** Queue one frame; the loop writes it at its next flush. *)

val closed : peer -> bool

type 'a conn
(** One accepted client connection carrying the owner's per-connection
    state ['a]. *)

val id : 'a conn -> int
(** Dense from 0 in accept order; stable for the connection's life. *)

val data : 'a conn -> 'a

val reply : 'a conn -> Wire.message -> unit

val refuse : 'a conn -> string -> unit
(** Send ERROR [reason], then close the connection once it is
    flushed; no further frame of it is read. *)

type 'a t

val listen : port:int -> 'a t
(** Bind and listen on loopback [port] (0 picks an ephemeral port). *)

val port : 'a t -> int

val send_to : 'a t -> int -> Wire.message -> unit
(** Queue a frame for connection [id] if it is still open and not
    closing; drop it otherwise. *)

val attach :
  'a t ->
  peer ->
  frame:(Wire.message -> unit) ->
  lost:(string option -> unit) ->
  unit
(** Add an outgoing socket: the loop reads and flushes it with the
    clients (reads and flushes before theirs) and hands each frame to
    [frame]. On EOF, a reset, or a framing or codec error
    ([Some reason]) the loop closes it and calls [lost] once. *)

type 'a owner = {
  accept : unit -> 'a;  (** per-connection state, made at accept *)
  hello : unit -> Wire.message;  (** the reply to a correct magic *)
  handle : 'a conn -> Wire.message -> unit;  (** one client frame *)
  before_select : unit -> unit;  (** first in every iteration *)
  after_reads : unit -> unit;  (** between the reads and the flushes *)
  timeout : unit -> float;  (** this iteration's select timeout, s *)
  finished : unit -> bool;  (** tested before every iteration *)
}

val run : 'a t -> 'a owner -> unit
(** Loop until [finished ()]: [before_select], select, accept, read
    the attached peers, read the clients, [after_reads], flush the
    attached peers, flush the clients. SIGPIPE is ignored. *)

val close : 'a t -> goodbye:Wire.message -> unit
(** Send [goodbye] to every connection not already closing, flush for
    at most 2 wall seconds, then {!shutdown}. *)

val shutdown : 'a t -> unit
(** Abrupt teardown: close every connection, every attached peer and
    the listener. *)
