open Taqp_data

type t = {
  uid : int;
  schema : Schema.t;
  blocks : Tuple.t array array;
  n_tuples : int;
  blocking_factor : int;
  block_bytes : int;
  tuple_bytes : int;
  columns : column Atomic.t array;  (** one per attribute *)
}

(* An attribute's flat int column, built on first use: [Built None]
   once some value of the attribute is not an [Int]. *)
and column = Unbuilt | Built of int array option

(* Process-global creation-order counter: relation *names* collide
   across catalogs ("r1" in every Paper_setup workload), so the shared
   cross-query cache keys entries by this identity instead. *)
let next_uid = ref 0

exception Storage_error of string

let error fmt = Fmt.kstr (fun s -> raise (Storage_error s)) fmt

let check_tuple schema tuple_bytes t =
  if Tuple.arity t <> Schema.arity schema then
    error "tuple arity %d does not match schema arity %d" (Tuple.arity t)
      (Schema.arity schema);
  List.iteri
    (fun i (a : Schema.attribute) ->
      match Value.type_of (Tuple.get t i) with
      | None -> () (* nulls fit any column *)
      | Some ty ->
          if ty <> a.ty then
            error "attribute %s expects %s" a.name (Value.ty_name a.ty))
    (Schema.attrs schema);
  let sz = Tuple.byte_size t - Tuple.pad t in
  if sz > tuple_bytes then
    error "tuple of %d bytes exceeds the %d-byte slot" sz tuple_bytes

let repad tuple_bytes t =
  let fields_sz = Tuple.byte_size t - Tuple.pad t in
  Tuple.make ~pad:(tuple_bytes - fields_sz) (Tuple.fields t)

let create ?(block_bytes = 1024) ?(tuple_bytes = 200) ~schema tuples =
  if block_bytes <= 0 || tuple_bytes <= 0 then
    error "block and tuple sizes must be positive";
  let blocking_factor = block_bytes / tuple_bytes in
  if blocking_factor < 1 then error "tuple larger than a block";
  List.iter (check_tuple schema tuple_bytes) tuples;
  let tuples = Array.of_list (List.map (repad tuple_bytes) tuples) in
  let n = Array.length tuples in
  let n_blocks = (n + blocking_factor - 1) / blocking_factor in
  let blocks =
    Array.init n_blocks (fun b ->
        let lo = b * blocking_factor in
        let len = Int.min blocking_factor (n - lo) in
        Array.sub tuples lo len)
  in
  let uid = !next_uid in
  incr next_uid;
  {
    uid;
    schema;
    blocks;
    n_tuples = n;
    blocking_factor;
    block_bytes;
    tuple_bytes;
    columns = Array.init (Schema.arity schema) (fun _ -> Atomic.make Unbuilt);
  }

let uid t = t.uid
let schema t = t.schema
let n_tuples t = t.n_tuples
let n_blocks t = Array.length t.blocks
let blocking_factor t = t.blocking_factor
let block_bytes t = t.block_bytes
let tuple_bytes t = t.tuple_bytes

let block t i =
  if i < 0 || i >= Array.length t.blocks then
    invalid_arg "Heap_file.block: index out of range";
  Array.copy t.blocks.(i)

let read_block device t i =
  Device.read_block device;
  block t i

let iter f t = Array.iter (fun b -> Array.iter f b) t.blocks
let fold f acc t =
  Array.fold_left (fun acc b -> Array.fold_left f acc b) acc t.blocks

let to_list t =
  List.concat_map Array.to_list (Array.to_list t.blocks)

let build_column t i =
  let col = Array.make t.n_tuples 0 in
  match
    Array.iteri
      (fun b block ->
        Array.iteri
          (fun j tuple ->
            match Tuple.get tuple i with
            | Value.Int v -> col.((b * t.blocking_factor) + j) <- v
            | Value.Float _ | Value.String _ | Value.Bool _ | Value.Null ->
                raise_notrace Exit)
          block)
      t.blocks
  with
  | () -> Some col
  | exception Exit -> None

(* Several engines may share one catalog from their own domains, so the
   column is published through its atomic cell: a domain that loses the
   race drops its own (equal) build and takes the published one. *)
let int_column t i =
  if i < 0 || i >= Array.length t.columns then
    invalid_arg "Heap_file.int_column: attribute out of range";
  let cell = t.columns.(i) in
  match Atomic.get cell with
  | Built col -> col
  | Unbuilt -> (
      let col = build_column t i in
      if Atomic.compare_and_set cell Unbuilt (Built col) then col
      else
        match Atomic.get cell with Built col -> col | Unbuilt -> assert false)

let pages_for t n = (n + t.blocking_factor - 1) / t.blocking_factor
