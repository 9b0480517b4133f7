(** Hash join and intersect: one retained index per side, each stage's
    delta inserted once and probed symmetric-hash style against the
    other side (docs/PHYSICAL_OPERATORS.md). The indexes may lag the
    shared deltas after sort-merge stages; the next hash stage inserts
    the missing ones first (the catch-up), and its price includes them.
    Private to [taqp_core]. *)

type t = private {
  b : Op_common.binary;  (** shared with the operator's {!Op_sort_merge.t} *)
  id : int;  (** the hash path's own cost-model node *)
  index_l : Taqp_relational.Ops.Hash_index.t;  (** over [b.deltas_l] *)
  index_r : Taqp_relational.Ops.Hash_index.t;
  mutable hashed_l : int;  (** how many deltas are in [index_l] *)
  mutable hashed_r : int;
}

val create : Op_common.binary -> id:int -> t

val kind : t -> Taqp_timecost.Formulas.op_kind
(** [Hash_join] or [Hash_intersect]. *)

type prepared
(** What {!measures} reads of the retained state, read once: the
    catch-up size under full fulfillment. *)

val prepare : t -> prepared

val measures_of :
  prepared -> nl:float -> nr:float -> out_new:float ->
  Taqp_timecost.Formulas.measures
(** This path's build and probe tuples (catch-up included) and output
    for a stage adding [nl]/[nr] delta tuples, against the state
    {!prepare} read. *)

val measures :
  t -> nl:float -> nr:float -> out_new:float ->
  Taqp_timecost.Formulas.measures
(** [measures_of (prepare h)]: the one formula the planner, the
    adaptive path choice, the stage pricer and {!eval} all use. *)

val eval :
  Op_common.ctx -> t -> slice_l:Op_common.slice option ->
  Taqp_data.Tuple.t array -> Taqp_data.Tuple.t array ->
  Taqp_data.Tuple.t array
(** One stage on the deltas. Full fulfillment: catch up, probe the
    left delta against the right index, insert it, probe the right
    delta against the left index, insert it. Partial: build (or, with
    [slice_l], fetch from the shared cache) a transient index over the
    left delta and probe it with the right. Each probe computes first
    (in ranges, on the pool when large) and then charges one
    [hash_probe] and one residual check per candidate. Observes build,
    probe and output into node [id]. Does not append the deltas. *)

val restore : t -> hashed_l:int -> hashed_r:int -> unit
(** Re-insert the first [hashed_*] restored deltas, charging nothing. *)
