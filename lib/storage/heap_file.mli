(** Heap files: relations stored as an array of fixed-capacity disk
    blocks, the paper's storage layout (Section 5: 1 KB blocks holding
    5 tuples of 200 bytes each). The disk block is the cluster-sampling
    unit, so block boundaries are semantically load-bearing here. *)

open Taqp_data

type t

exception Storage_error of string

val create :
  ?block_bytes:int -> ?tuple_bytes:int -> schema:Schema.t -> Tuple.t list -> t
(** Pack the tuples into blocks in order. [block_bytes] defaults to
    1024, [tuple_bytes] to 200; the blocking factor is
    [block_bytes / tuple_bytes]. Tuples are padded (via their [pad])
    to occupy exactly [tuple_bytes].
    @raise Storage_error if a tuple's fields exceed [tuple_bytes] or a
    tuple does not match [schema]. *)

val uid : t -> int
(** Process-global creation-order identity. Relation names collide
    across catalogs (every workload calls its relations ["r1"],
    ["r2"]), so cross-query consumers — the shared cache in
    {!Taqp_cache} — key on this instead. *)

val schema : t -> Schema.t
val n_tuples : t -> int
val n_blocks : t -> int
val blocking_factor : t -> int
val block_bytes : t -> int
val tuple_bytes : t -> int

val block : t -> int -> Tuple.t array
(** The tuples of block [i] (the last block may be short). This is the
    logical content; charging the device for the read is the engine's
    job. @raise Invalid_argument on an out-of-range index. *)

val read_block : Device.t -> t -> int -> Tuple.t array
(** {!block} plus the device charge for one block read. *)

val int_column : t -> int -> int array option
(** The values of attribute [i] as one flat array indexed by row id
    (block [b]'s [j]th tuple is row [b * blocking_factor + j]), or
    [None] if any of them is not an [Int]. Built on the first call for
    [i] and kept for the file's lifetime; creating the file builds
    none. Safe to call from several domains at once: every caller gets
    the one published array. Build it on the domain that owns the
    query, not inside a pool job, which would pay the build on a
    worker. @raise Invalid_argument on an out-of-range position. *)

val iter : (Tuple.t -> unit) -> t -> unit
val fold : ('a -> Tuple.t -> 'a) -> 'a -> t -> 'a
val to_list : t -> Tuple.t list

val pages_for : t -> int -> int
(** Number of blocks/pages needed to hold [n] tuples of this relation's
    width: ceil(n / blocking_factor). *)
