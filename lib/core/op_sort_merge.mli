(** Sort-merge join and intersect (Figures 4.4-4.6): each stage
    temp-writes and sorts both deltas into retained sorted files, then
    merges every Figure 4.5 pairing of files. The files may lag the
    shared deltas after hash stages; the next sort-merge stage sorts the
    missing ones first (the catch-up), and its price includes them.
    Private to [taqp_core]. *)

type t = private {
  b : Op_common.binary;  (** shared with the operator's {!Op_hash.t} *)
  sort_l :
    ?keys:int array -> Taqp_data.Tuple.t array -> Taqp_relational.Sorted_run.t;
      (** precompiled sort order; [keys] as in
          {!Taqp_relational.Sorted_run.sort} *)
  sort_r :
    ?keys:int array -> Taqp_data.Tuple.t array -> Taqp_relational.Sorted_run.t;
  cols_l : int array array option;
      (** the left key's int columns, one per key position, when the
          left child is a scan and every key attribute has one *)
  cols_r : int array array option;
  bf_l : int;  (** the sides' temp-file blocking factors *)
  bf_r : int;
  mutable files_l : Taqp_relational.Sorted_run.t list;
      (** oldest first; the sorted prefix of [b.deltas_l] *)
  mutable files_r : Taqp_relational.Sorted_run.t list;
}

val create :
  Op_common.binary -> arity_l:int -> arity_r:int ->
  cols_l:int array array option -> cols_r:int array array option ->
  bf_l:int -> bf_r:int -> t

val kind : t -> Taqp_timecost.Formulas.op_kind
(** [Join] or [Intersect]: the operator's own cost-model node. *)

type prepared
(** What {!measures} reads of the retained state, read once: the
    catch-up deltas' sizes, pages and [n log n] terms, the retained
    deltas' sizes and this stage's Figure 4.5 pairings. *)

val prepare : t -> prepared

val measures_of :
  prepared -> nl:float -> nr:float -> out_new:float ->
  Taqp_timecost.Formulas.measures
(** This path's cost measures for a stage adding [nl]/[nr] delta
    tuples and [out_new] output tuples, against the state {!prepare}
    read: catch-up plus delta writes and sorts, and the pairings' merge
    reads. Allocates only the result. Every sum starts from this
    stage's terms and adds the retained ones in list order. *)

val measures :
  t -> nl:float -> nr:float -> out_new:float ->
  Taqp_timecost.Formulas.measures
(** [measures_of (prepare s)]: the one formula the planner, the
    adaptive path choice, the stage pricer and {!eval} all use. *)

type _ want =
  | Tuples : Taqp_data.Tuple.t array want
      (** the output tuples: pairing order, then emission order *)
  | Count : int want
      (** only their number, for a root nothing reads but its count *)

val eval :
  Op_common.ctx -> id:int -> t -> want:'a want ->
  slice_l:Op_common.slice option -> slice_r:Op_common.slice option ->
  leaf_l:Op_common.leaf option -> leaf_r:Op_common.leaf option ->
  Taqp_data.Tuple.t array -> Taqp_data.Tuple.t array -> 'a
(** One stage on the deltas [delta_l], [delta_r], with [slice_*] the
    shared-cache key and [leaf_*] the row ids of a leaf-fed delta (a
    leaf-fed sort reads its keys from [cols_*]). Issues a single charge
    sequence (writes, sorts in the order catch-up left, catch-up right,
    delta right, delta left, then per pairing merge setup, merge reads
    and residual checks, then output), observes the four steps into
    cost-model node [id], and appends the new files. [want] changes
    what is returned, never a charge: under [Count] the merges count
    pairs (as key-group size products when there is no residual)
    instead of building them. Does not append the deltas: that is the
    caller's, after either path. *)

val restore : t -> files_l:int -> files_r:int -> unit
(** Rebuild the files from the first [files_*] restored deltas, with
    the same deterministic sorts, charging nothing. *)
