(** Block-range sharding: deterministic contiguous partitions of a unit
    population (disk blocks of a {!Taqp_storage.Heap_file}, tuples of a
    delta array, pairings of a merge schedule).

    Every function here is a pure function of its arguments — the shard
    layout of a relation never depends on how many domains execute it,
    which is one half of the engine's 1-vs-N bit-identity contract (the
    other half is the canonical charge replay, see
    docs/PARALLELISM.md). *)

type range = { lo : int; hi : int }
(** Half-open: the units [lo, hi). Empty when [lo = hi]. *)

val size : range -> int

val ranges : n:int -> k:int -> range array
(** Partition [0, n) into [min k n] contiguous ranges whose sizes
    differ by at most one (the first [n mod k] ranges get the extra
    unit). [k] is clamped to at least 1; [n = 0] yields no ranges.
    @raise Invalid_argument if [n < 0]. *)
