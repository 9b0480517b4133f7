(** Sorted runs with their join keys read once.

    The sort-merge path sorts each stage's delta once and merges the
    sorted file with the other side's retained files at every later
    stage (Figures 4.4-4.6). A run keeps its key fields as a flat
    [int array] beside the tuples, extracted when the delta is sorted,
    so sorting and every later merge compare ints instead of boxed
    {!Value.t}s through {!Tuple.get}. A delta with any key value that is
    not an [Int] carries no keys and takes the {!Ops} path unchanged.

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

val sort : key:int array -> cmp:(Tuple.t -> Tuple.t -> int) -> Tuple.t array -> t
(** A sorted copy. [cmp] must be {!Ops.key_comparator} for [key].
    With int keys: a stable radix sort on the first key column's ints,
    ties broken by [cmp], so the order is [cmp]'s except among tuples
    whose fields all compare equal, which keep their input order.
    Otherwise, or with an empty [key]: [Array.sort cmp]. *)

val merge_pairs :
  key_l:int array -> key_r:int array -> t -> t -> (Tuple.t -> Tuple.t -> unit) ->
  unit
(** Merge two runs sorted on [key_l] and [key_r]; [emit] receives every
    cross pair of each key-equal group, in the order
    {!Ops.merge_groups} gives on the runs' tuples. Compares stored ints
    when both runs have them, else falls back to {!Ops.merge_groups}. *)

val merge_join :
  key_l:int array -> key_r:int array -> residual:(Tuple.t -> bool) -> t -> t ->
  Tuple.t list * int
(** One Figure 4.5 pairing of a join: the concatenated key-equal pairs
    that pass [residual], in emission order, and the number of
    candidate pairs (each costs one residual check). *)

val merge_intersect : key:int array -> t -> t -> Tuple.t list
(** One pairing of an intersect ([key] = every position): the left
    tuple of each matching cross pair. *)
