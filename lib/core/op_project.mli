(** Project (Figure 4.7): project the child's stage delta, write it to
    a temp file, sort it, and merge it into the retained group table.
    The groups a stage creates are its output; the table's occupancy
    counts feed Goodman's estimator. Private to [taqp_core]. *)

type t = {
  positions : int list;  (** projected attribute positions *)
  bf : int;  (** output blocking factor *)
  groups : (Taqp_data.Tuple.t, int ref) Hashtbl.t;
      (** every group seen so far, with its occupancy *)
}

val measures :
  t -> n_in:float -> out:float -> Taqp_timecost.Formulas.measures
(** The Project cost measures for [n_in] input tuples and [out] new
    groups, predicted by the planner and observed by {!eval}. *)

val eval :
  Op_common.ctx -> id:int -> t -> Taqp_data.Tuple.t array ->
  Taqp_data.Tuple.t array
(** Charge and run steps 1-3 of Figure 4.7, update the group table,
    charge the output, and observe the four steps into cost-model node
    [id]. Returns the new groups in first-seen order. *)

val snapshot : t -> (Taqp_data.Tuple.t * int) list
(** The group table in reverse fold order (see {!Staged.node_state}). *)

val restore : t -> (Taqp_data.Tuple.t * int) list -> unit
(** Replace the group table with a {!snapshot}'s, reproducing its
    iteration order. *)
