(** What the physical-operator modules share ({!Op_select},
    {!Op_project}, {!Op_sort_merge}, {!Op_hash}): page arithmetic for
    their cost measures, the per-stage evaluation context, the
    shared-cache key of a leaf-fed delta, the binary operators' common
    retained state, the one compute helper, and step observation.
    Private to [taqp_core]. *)

(** {2 The operator modules' shared aliases} *)

module Tuple = Taqp_data.Tuple
module Device = Taqp_storage.Device
module Cost_params = Taqp_storage.Cost_params
module Formulas = Taqp_timecost.Formulas
module Cache = Taqp_cache.Cache
module Ops = Taqp_relational.Ops

(** {2 Page arithmetic} *)

val bf_of_bytes : block_bytes:int -> int -> int
(** Tuples per block for tuples of the given width (at least 1). *)

val xlog : float -> float
(** [n log2 n], or [n] itself for [n <= 1]. *)

val pages : bf:int -> float -> float
(** Blocks needed for [n] tuples at [bf] per block. *)

val sum_lengths : 'a array list -> int
val drop : int -> 'a list -> 'a list
val take : int -> 'a list -> 'a list

type ctx = {
  device : Device.t;
  cost_model : Taqp_timecost.Cost_model.t;
  pool : Taqp_parallel.Pool.t option;  (** [None] at domains 1 *)
}
(** What one stage's operator evaluation needs from the compiled query. *)

type slice = {
  cache : Cache.t;
  file : Taqp_storage.Heap_file.t;
  kind : Cache.unit_kind;
  lo : int;
  hi : int;
}
(** The shared-cache key of a leaf-fed delta on the shared sample
    prefix: units [\[lo, hi)] of [file]'s prefix. Any job whose stage
    covers the same slice builds the identical sorted run or hash
    index, so a cached one serves it at probe price. *)

type leaf = {
  units : int list;  (** the stage's drawn units, in draw order *)
  per_unit : int;  (** rows per unit: the blocking factor, or 1 for SRS *)
  n_rows : int;  (** the relation's tuple count *)
}
(** The row ids of a scan's stage delta, derived from its drawn units
    rather than stored: unit [u] is rows [u * per_unit] up to
    [min ((u + 1) * per_unit) n_rows - 1], and the delta concatenates
    the units in draw order. Row ids index a
    {!Taqp_storage.Heap_file.int_column}. *)

val iter_rows : leaf -> (int -> int -> unit) -> int
(** [f pos row] for each row of the delta, [pos] its position in the
    delta; returns the row count. *)

val gather_keys : leaf -> int array array -> n:int -> int array
(** The key ints of an [n]-tuple leaf delta read from the key columns
    [cols] (one per key position), row-major as
    {!Taqp_relational.Sorted_run.int_keys} lays them out.
    @raise Invalid_argument unless the leaf holds [n] rows. *)

type binary = {
  op : [ `Join | `Intersect ];
  key_l : int array;
  key_r : int array;
  residual : (Tuple.t -> bool) option;
      (** [None] when the residual is [True]: every candidate passes *)
  residual_comparisons : int;
  full : bool;  (** full fulfillment; else partial (delta x delta) *)
  bf : int;  (** output blocking factor *)
  mutable deltas_l : Tuple.t array list;  (** oldest first, raw *)
  mutable deltas_r : Tuple.t array list;
}
(** An equi-key join or intersect's retained state common to both
    physical paths: the raw per-stage deltas, always kept. Each path's
    derived state (sorted files, hash indexes) may lag them and catches
    up when that path next runs. *)

(** {2 Compute}

    {!run} and {!map_ranges} are the only code that consults the pool:
    every operator issues the same charges whether its jobs run inline
    or on other domains. *)

val threshold : int ref
(** Minimum tuples of work before {!run} fans out (default 2048). A
    wall-time knob only: results are the same either way. *)

val run : ctx -> work:int -> (unit -> 'a) array -> 'a array
(** Run pure, independent jobs and return their results in job order:
    on the pool when there is one, there are at least two jobs and
    [work] reaches {!threshold}; inline otherwise. Jobs must not touch
    a clock, device, PRNG, cache or tracer. *)

val map_ranges : ctx -> n:int -> (int -> int -> 'a) -> 'a array
(** [f lo hi] over consecutive ranges that cover [\[0, n)], results in
    range order, through {!run}: a single range unless {!run} fans out,
    then four per pool domain. No ranges at all when [n = 0]. *)

(** {2 Charging and observing} *)

val now : ctx -> float
(** The device clock's reading. *)

val charge_output : ctx -> bf:int -> int -> unit
(** Output [n] tuples and write their pages: every operator's last
    step. *)

val with_output : bf:int -> Formulas.measures -> float -> Formulas.measures
(** The measures with their output tuples and pages set to [n]. *)

val observe :
  ctx -> id:int -> Formulas.measures -> (Formulas.step * float) list -> unit
(** Feed each step's elapsed clock seconds, in list order, into cost
    model node [id]. *)
