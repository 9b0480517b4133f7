(* The select loop the socket server and the balancer's proxy share:
   every socket case they have in common is written once, here. *)

let src = Logs.Src.create "taqp.loop" ~doc:"TAQPNET1 select loop"

module Log = (val Logs.src_log src : Logs.LOG)

type peer = {
  fd : Unix.file_descr;
  rd : Wire.reader;
  out : Buffer.t;
  mutable off : int;
  mutable closing : bool;  (* flush pending output, then close *)
  mutable closed : bool;
}

let peer fd =
  Unix.set_nonblock fd;
  {
    fd;
    rd = Wire.reader ();
    out = Buffer.create 256;
    off = 0;
    closing = false;
    closed = false;
  }

let send p msg = Buffer.add_string p.out (Wire.frame_message msg)
let closed p = p.closed
let waiting p = Buffer.length p.out > p.off

let close_peer p =
  if not p.closed then begin
    p.closed <- true;
    try Unix.close p.fd with Unix.Unix_error _ -> ()
  end

(* Read what the socket holds into the peer's frame reader. [false]:
   the peer hung up. *)
let fill scratch p =
  match Unix.read p.fd scratch 0 (Bytes.length scratch) with
  | 0 -> false
  | n ->
      Wire.feed p.rd scratch n;
      true
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      true
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> false

(* Write what the peer has queued without blocking. [false]: the peer
   hung up. *)
let flush p =
  let len = Buffer.length p.out in
  len <= p.off
  ||
  match
    Unix.write_substring p.fd (Buffer.contents p.out) p.off (len - p.off)
  with
  | n ->
      p.off <- p.off + n;
      if p.off = len then begin
        Buffer.clear p.out;
        p.off <- 0
      end;
      true
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      true
  | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> false

type 'a conn = { id : int; peer : peer; data : 'a; mutable magic : bool }

let id c = c.id
let data c = c.data
let reply c msg = send c.peer msg

let refuse c reason =
  Log.debug (fun m -> m "conn %d: %s, closing" c.id reason);
  send c.peer (Wire.Error { message = reason });
  c.peer.closing <- true

type link = {
  l_peer : peer;
  frame : Wire.message -> unit;
  lost : string option -> unit;
}

type 'a t = {
  listen_fd : Unix.file_descr;
  port : int;
  conns : (int, 'a conn) Hashtbl.t;
  scratch : Bytes.t;
  mutable links : link list;
  mutable next_id : int;
}

type 'a owner = {
  accept : unit -> 'a;
  hello : unit -> Wire.message;
  handle : 'a conn -> Wire.message -> unit;
  before_select : unit -> unit;
  after_reads : unit -> unit;
  timeout : unit -> float;
  finished : unit -> bool;
}

let listen ~port =
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  Unix.bind listen_fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen listen_fd 128;
  Unix.set_nonblock listen_fd;
  let port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  {
    listen_fd;
    port;
    conns = Hashtbl.create 16;
    scratch = Bytes.create 8192;
    links = [];
    next_id = 0;
  }

let port t = t.port

let close_conn t c =
  Hashtbl.remove t.conns c.id;
  close_peer c.peer

let conn_list t = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns []

let send_to t id msg =
  match Hashtbl.find_opt t.conns id with
  | Some c when not c.peer.closing -> send c.peer msg
  | _ -> ()

let attach t p ~frame ~lost =
  t.links <- t.links @ [ { l_peer = p; frame; lost } ]

let rec accept t o =
  match Unix.accept t.listen_fd with
  | fd, _addr ->
      let p = peer fd in
      (try Unix.setsockopt fd Unix.TCP_NODELAY true
       with Unix.Unix_error _ -> ());
      Hashtbl.replace t.conns t.next_id
        { id = t.next_id; peer = p; data = o.accept (); magic = false };
      t.next_id <- t.next_id + 1;
      accept t o
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept t o

(* The first bad frame closes the connection; a well-formed frame that
   decodes to garbage does too. A wrong magic is closed without a
   byte. *)
let serve t o c =
  let magic = String.length Wire.magic in
  if (not c.magic) && Wire.available c.peer.rd >= magic then begin
    match Wire.take c.peer.rd magic with
    | Some m when String.equal m Wire.magic ->
        c.magic <- true;
        send c.peer (o.hello ())
    | _ -> close_conn t c
  end;
  let rec go () =
    match Wire.next_message c.peer.rd with
    | Ok None -> ()
    | Ok (Some msg) ->
        o.handle c msg;
        if not c.peer.closing then go ()
    | Error e -> refuse c e
  in
  if c.magic && not c.peer.closing then go ()

let lose l reason =
  close_peer l.l_peer;
  l.lost reason

let read_link t l =
  let rec go () =
    if not l.l_peer.closed then
      match Wire.next_message l.l_peer.rd with
      | Ok None -> ()
      | Ok (Some msg) ->
          l.frame msg;
          go ()
      | Error e -> lose l (Some e)
  in
  if fill t.scratch l.l_peer then go () else lose l None

let flush_conn t c =
  if not (flush c.peer) then close_conn t c
  else if c.peer.closing && not (waiting c.peer) then close_conn t c

(* One pass of each kind over the iteration's snapshot, as plain
   recursion: the serving loop allocates no closure for them. *)
let rec read_links t rs = function
  | [] -> ()
  | l :: ls ->
      if (not l.l_peer.closed) && List.mem l.l_peer.fd rs then read_link t l;
      read_links t rs ls

let rec read_conns t o rs = function
  | [] -> ()
  | c :: cs ->
      (if List.mem c.peer.fd rs then
         if fill t.scratch c.peer then serve t o c else close_conn t c);
      read_conns t o rs cs

let rec flush_links = function
  | [] -> ()
  | l :: ls ->
      if (not l.l_peer.closed) && waiting l.l_peer && not (flush l.l_peer)
      then lose l None;
      flush_links ls

let rec flush_conns t = function
  | [] -> ()
  | c :: cs ->
      if (not c.peer.closed) && waiting c.peer then flush_conn t c;
      flush_conns t cs

let run t o =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  while not (o.finished ()) do
    o.before_select ();
    let conns = conn_list t in
    let links = List.filter (fun l -> not l.l_peer.closed) t.links in
    let rfds =
      t.listen_fd
      :: (List.map (fun l -> l.l_peer.fd) links
         @ List.filter_map
             (fun c -> if c.peer.closing then None else Some c.peer.fd)
             conns)
    in
    let wfds =
      List.filter_map
        (fun l -> if waiting l.l_peer then Some l.l_peer.fd else None)
        links
      @ List.filter_map
          (fun c -> if waiting c.peer then Some c.peer.fd else None)
          conns
    in
    let rs =
      match Unix.select rfds wfds [] (o.timeout ()) with
      | rs, _, _ -> rs
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    if List.mem t.listen_fd rs then accept t o;
    read_links t rs links;
    read_conns t o rs conns;
    o.after_reads ();
    flush_links links;
    flush_conns t conns
  done

let shutdown t =
  List.iter (close_conn t) (conn_list t);
  List.iter (fun l -> close_peer l.l_peer) t.links;
  try Unix.close t.listen_fd with Unix.Unix_error _ -> ()

let close t ~goodbye =
  Hashtbl.iter
    (fun _ c -> if not c.peer.closing then send c.peer goodbye)
    t.conns;
  let deadline = Unix.gettimeofday () +. 2.0 in
  let rec flush_all () =
    let waiting = List.filter (fun c -> waiting c.peer) (conn_list t) in
    if waiting <> [] && Unix.gettimeofday () < deadline then begin
      (match
         Unix.select [] (List.map (fun c -> c.peer.fd) waiting) [] 0.05
       with
      | _, ws, _ ->
          List.iter
            (fun c -> if List.mem c.peer.fd ws then flush_conn t c)
            waiting
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      flush_all ()
    end
  in
  flush_all ();
  shutdown t
