(** Select (Figure 4.3): check every tuple of the child's stage delta
    against the predicate, then output the qualifying ones and write
    their pages. Private to [taqp_core]. *)

type t = {
  comparisons : int;  (** comparisons per predicate check *)
  test : Taqp_data.Tuple.t -> bool;
  rows : (int -> bool) option;
      (** the predicate on row ids of the child scan's int columns
          ({!Taqp_relational.Predicate.compile_rows}), when the child
          is a scan and the predicate has that form *)
  bf : int;  (** output blocking factor *)
}

val measures :
  t -> n_in:float -> out:float -> Taqp_timecost.Formulas.measures
(** The Select cost measures for [n_in] input and [out] output tuples,
    predicted by the planner and observed by {!eval}. *)

val eval :
  Op_common.ctx -> id:int -> t -> ?leaf:Op_common.leaf ->
  Taqp_data.Tuple.t array -> Taqp_data.Tuple.t array
(** Charge the checks, filter, charge the output, and observe both
    steps into cost-model node [id]. Returns the qualifying tuples in
    input order. With [rows] and the delta's [leaf] rows, the filter
    tests the rows' column values inline; otherwise it tests the
    tuples, in ranges, on the pool when the delta is large. Either way
    the charges are the same. *)
