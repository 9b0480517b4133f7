(** Sort-based physical operators over in-memory tuple arrays.

    These are the paper's estimator-evaluation algorithms (Figures 4.3,
    4.4, 4.6, 4.7): write operand tuples to temp files, external-sort
    them, and merge. When a {!Taqp_storage.Device.t} is supplied every
    step charges the clock, reproducing the cost structure of equations
    (4.1)-(4.5); without a device the operators are pure functions
    (used for ground-truth counting and tests). The hash-index probes
    never take a device: they are pure, and the staged engine charges
    the probe and its per-candidate residual checks itself, from the
    candidate count {!probe_join_counted} returns.

    Bag semantics: Select/Join/Intersect preserve multiplicity (each
    qualifying point of the point space yields one output tuple);
    Project collapses to distinct groups with occupancies; Union and
    Difference are set operations and expect duplicate-free operands. *)

open Taqp_data
open Taqp_storage

val select :
  ?device:Device.t -> schema:Schema.t -> Predicate.t -> Tuple.t array ->
  Tuple.t array
(** Figure 4.3: read and check each tuple, write qualifying pages. *)

val sort_stage :
  ?device:Device.t -> key:int array -> Tuple.t array -> Tuple.t array
(** Steps (1)-(2) of Figures 4.4/4.6/4.7: write the tuples to a temp
    file and external-sort them by [key] (then by all fields, for
    determinism). Returns a sorted copy. *)

val merge_join :
  ?device:Device.t -> schema_l:Schema.t -> schema_r:Schema.t ->
  Predicate.t -> Tuple.t array -> Tuple.t array -> Tuple.t array
(** Theta-join. Equi-conjuncts ([l.a = r.b]) key a sort-merge join and
    the residual predicate filters the key-equal candidates; with no
    cross-side equi-conjunct the operator falls back to a (charged)
    nested loop. Inputs need not be pre-sorted. *)

val intersect :
  ?device:Device.t -> schema:Schema.t -> Tuple.t array -> Tuple.t array ->
  Tuple.t array
(** Figure 4.4: sort both operands and merge; a pair matches when all
    fields are equal. Output multiplicity is the product of the two
    sides' multiplicities (one per matching point). *)

val project_groups :
  ?device:Device.t -> schema:Schema.t -> string list -> Tuple.t array ->
  (Tuple.t * int) array
(** Figure 4.7: project each tuple, sort, then scan writing each
    distinct tuple with its occupancy — the group counts Goodman's
    estimator consumes. *)

val union : ?device:Device.t -> Tuple.t array -> Tuple.t array -> Tuple.t array
(** Sorted set union (operands treated as sets). *)

val difference :
  ?device:Device.t -> Tuple.t array -> Tuple.t array -> Tuple.t array
(** Sorted set difference (left minus right, as sets). *)

val distinct : ?device:Device.t -> Tuple.t array -> Tuple.t array

val key_positions : Schema.t -> string list -> int array
(** Resolve attribute names to positions.
    @raise Schema.Schema_error on unknown names. *)

val split_equi_pairs :
  schema_l:Schema.t -> schema_r:Schema.t -> Predicate.t ->
  (int array * int array) * Predicate.t
(** Orient the predicate's equi-join pairs across the two operand
    schemas: returns the left and right key positions plus the residual
    predicate (which includes any equi pair that does not span both
    sides). *)

val merge_groups :
  ?device:Device.t -> key_l:int array -> key_r:int array -> Tuple.t array ->
  Tuple.t array -> (Tuple.t -> Tuple.t -> unit) -> unit
(** Merge two arrays sorted on [key_l] and [key_r], comparing through
    {!Value.compare}; [emit] receives every cross pair of each key-equal
    group, left index outer, right index inner. Charges one merge step
    per tuple read. The reference merge: {!Sorted_run.merge_pairs}
    falls back to it and must emit the same pairs. *)

val merge_sorted_join :
  key_l:int array -> key_r:int array -> residual:(Tuple.t -> bool) ->
  residual_comparisons:int -> Tuple.t array -> Tuple.t array -> Tuple.t list
(** One pairing merge of the full-fulfillment plan (Figure 4.5) on
    {!merge_groups}: both inputs already sorted by their keys; emits
    the concatenated tuples whose residual predicate holds. Charges
    nothing, so [residual_comparisons] (the per-candidate check a
    charging caller replays) is unused. *)

val merge_sorted_intersect : Tuple.t array -> Tuple.t array -> Tuple.t list
(** Pairing merge for Intersect: inputs sorted on all fields; emits the
    left tuple of each matching cross pair. Charges nothing. *)

val compare_with_key : int array -> Tuple.t -> Tuple.t -> int
(** Order by the key positions, then by all fields (the sort order
    {!sort_stage} uses). Re-enters {!Tuple.compare_on} and a full-field
    tie-break on every call; prefer {!key_comparator} on hot paths. *)

val key_comparator : arity:int -> int array -> Tuple.t -> Tuple.t -> int
(** A precompiled comparator realizing exactly the {!compare_with_key}
    total order for [arity]-field tuples: the key positions followed by
    the remaining positions are fused into one position array walked in
    a single pass (no duplicate key comparisons, no closure re-entry).
    Precompute it once per sort or per operator, not per comparison. *)

(** A retained hash index over tuples, bucketed by the hash of the key
    values and collision-safe via full key comparison ({!Value.compare},
    so cross-type numeric keys behave exactly as in the sort-merge
    path). The incremental evaluation path builds one per binary
    operator side, inserts each stage's delta once, and probes it with
    the opposite side's deltas — build cost O(delta), probe cost
    O(delta + matches), versus the sorted-file pairing plan's
    O(cumulative) re-merges. *)
module Hash_index : sig
  type t

  val create : key:int array -> t
  (** An empty index keyed on the given tuple positions. *)

  val key_positions : t -> int array
  val length : t -> int
  (** Number of tuples inserted so far. *)

  val add : ?device:Device.t -> t -> Tuple.t array -> unit
  (** Insert a delta; charges {!Device.hash_build} for its tuples. *)

  val probe :
    probe_key:int array ->
    t ->
    Tuple.t array ->
    emit:(indexed:Tuple.t -> probe:Tuple.t -> unit) ->
    unit
  (** For every probe tuple (in array order) call [emit] once per
      indexed tuple whose key values all compare equal. Read-only on
      the index; charges nothing. *)
end

val probe_join_counted :
  index:Hash_index.t -> probe_key:int array ->
  indexed_side:[ `Left | `Right ] -> residual:(Tuple.t -> bool) ->
  Tuple.t array -> Tuple.t list * int
(** Hash-path counterpart of {!merge_sorted_join}: probe the delta
    against the opposite side's retained index, concatenating each
    candidate in schema order ([indexed_side] says which side the index
    holds) and keeping those the residual predicate accepts. Returns
    them in probe order, plus the number of candidates the index
    emitted: each costs one residual check, which the caller charges
    after [hash_probe n]. The same multiset of tuples a sort-merge of
    the same operands gives. Read-only on the index, so disjoint probe
    chunks may run on separate domains concurrently. *)

val hash_probe_join :
  index:Hash_index.t -> probe_key:int array ->
  indexed_side:[ `Left | `Right ] ->
  residual:(Tuple.t -> bool) -> residual_comparisons:int ->
  Tuple.t array -> Tuple.t list
(** {!probe_join_counted}'s tuples alone. [residual_comparisons] is
    unused, as in {!merge_sorted_join}. *)

val hash_probe_intersect :
  index:Hash_index.t -> emit_side:[ `Indexed | `Probe ] ->
  Tuple.t array -> Tuple.t list
(** Hash-path counterpart of {!merge_sorted_intersect}: the index is
    keyed on all fields; emits one left-side tuple per matching cross
    pair ([emit_side] says whether the index or the probe holds the
    left operand). *)
