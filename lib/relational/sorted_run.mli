(** Sorted runs with their join keys read once.

    The sort-merge path sorts each stage's delta once and merges the
    sorted file with the other side's retained files at every later
    stage (Figures 4.4-4.6). A run keeps its key fields as a flat
    [int array] beside the tuples, extracted when the delta is sorted
    (or handed in, read from the relation's int columns), so sorting
    and every later merge compare ints instead of boxed {!Value.t}s
    through {!Tuple.get}. A delta with any key value that is not an
    [Int] carries no keys and takes the {!Ops} path unchanged. A merge
    can also count its pairs without building them.

    These kernels charge nothing: the caller replays the device charges
    (one sort per run; one merge pass plus one residual check per
    candidate per pairing), so the virtual clock cannot tell the paths
    apart. *)

open Taqp_data

type t = {
  tuples : Tuple.t array;  (** in key order *)
  keys : int array option;
      (** [Some k]: every key value is an [Int], and [k.(i*w + c)] is key
          field [c] of [tuples.(i)] for a [w]-wide key. [None]: the
          run merges through {!Ops.merge_groups}. *)
}

val length : t -> int

val int_keys : key:int array -> Tuple.t array -> int array option
(** The key fields at positions [key] of every tuple, row-major, or
    [None] if any of them is not an [Int]. *)

val sort :
  ?keys:int array -> key:int array -> cmp:(Tuple.t -> Tuple.t -> int) ->
  Tuple.t array -> t
(** A sorted copy. [cmp] must be {!Ops.key_comparator} for [key].
    With int keys: a stable radix sort on the first key column's ints,
    ties broken by [cmp], so the order is [cmp]'s except among tuples
    whose fields all compare equal, which keep their input order.
    Otherwise, or with an empty [key]: [Array.sort cmp].

    [keys], when given, must equal [int_keys ~key tuples] (gathered
    elsewhere, say from {!Taqp_storage.Heap_file.int_column}s), and the
    sort then reads no key field out of a tuple. The run takes
    ownership of it: a one-column [keys] is sorted in place.
    @raise Invalid_argument if its length is not [|tuples| * |key|]. *)

val merge_pairs :
  key_l:int array -> key_r:int array -> t -> t -> (Tuple.t -> Tuple.t -> unit) ->
  unit
(** Merge two runs sorted on [key_l] and [key_r]; [emit] receives every
    cross pair of each key-equal group, in the order
    {!Ops.merge_groups} gives on the runs' tuples. Compares stored ints
    when both runs have them, else falls back to {!Ops.merge_groups}. *)

val count_pairs : key_l:int array -> key_r:int array -> t -> t -> int
(** The number of pairs {!merge_pairs} emits: with stored ints, the sum
    of [|group_l| * |group_r|] over the key-equal groups, touching no
    tuple. *)

val join :
  key_l:int array -> key_r:int array -> residual:(Tuple.t -> bool) option ->
  t -> t -> Tuple.t array * int
(** One Figure 4.5 pairing of a join: the concatenated key-equal pairs
    that pass [residual] ([None]: every one), in emission order, and
    the number of candidate pairs (each costs one residual check).
    Counts the candidates first, then fills one array. *)

val intersect : key:int array -> t -> t -> Tuple.t array
(** One pairing of an intersect ([key] = every position): the left
    tuple of each matching cross pair, in emission order. *)

val count_join :
  key_l:int array -> key_r:int array -> residual:(Tuple.t -> bool) option ->
  t -> t -> int * int
(** [join]'s output size and candidate count, keeping no pair: with no
    residual both are {!count_pairs}; with one, each candidate's
    concatenation is tested and dropped. *)

val merge_join :
  key_l:int array -> key_r:int array -> residual:(Tuple.t -> bool) -> t -> t ->
  Tuple.t list * int
(** {!join} with a residual, as a list. *)

val merge_intersect : key:int array -> t -> t -> Tuple.t list
(** {!intersect} as a list. *)
