(** Per-operator, per-step time-cost formulas (Section 4, equations
    4.1-4.5).

    The paper's adaptive approach: "identify the time-consuming steps
    of an RA operation and derive a cost formula for each such step;
    during execution, record the actual amount of time spent on each
    step and dynamically adjust the coefficients". Each operator kind
    is therefore a sum of {e steps}, each a small linear form over
    workload measures, fitted independently from that step's observed
    timings ({!Cost_model}):

    - Scan: read the stage's sample disk blocks.
    - Select (4.1): per-tuple check + output writing.
    - Join / Intersect (4.5): temp-file write (4.2), external sort
      (4.3), one merge pass per sorted-file pairing of the
      full-fulfillment plan (4.4), output writing. Union and
      Difference are rewritten to intersections before costing, so
      they share this shape (Section 4.2).
    - Hash_join / Hash_intersect: the incremental hash evaluation path
      — insert the stage's delta into retained per-side hash indexes
      (build) and probe each delta against the opposite index (probe),
      then output writing. No temp files, no sorts, no re-merging of
      old files: both steps are linear in the delta, which is what
      makes the path cheap at late stages.
    - Project (4.7): temp write, sort, duplicate-scan, output.
    - Overhead: the per-stage constant, "measured at run-time". *)

type op_kind =
  | Scan
  | Select
  | Join
  | Intersect
  | Hash_join
  | Hash_intersect
  | Project
  | Overhead

type step =
  | Step_read  (** fetch sample disk blocks *)
  | Step_check  (** per-tuple predicate/duplicate evaluation *)
  | Step_write_temp  (** write operand tuples to temp files (4.2) *)
  | Step_sort  (** external sort (4.3) *)
  | Step_merge  (** merge sorted files, one pass per pairing (4.4) *)
  | Step_hash_build  (** insert delta tuples into retained hash indexes *)
  | Step_hash_probe  (** probe delta tuples against the opposite index *)
  | Step_output  (** materialize result tuples and pages *)
  | Step_fixed  (** per-stage constant bookkeeping *)

(** Workload of one operator for one stage. Fill only the fields the
    kind uses; {!zero_measures} has everything 0. *)
type measures = {
  blocks : float;  (** disk blocks read (Scan) *)
  n_input : float;  (** new input tuples this stage (sum over operands) *)
  comparisons : float;  (** predicate comparisons per input tuple *)
  temp_pages : float;  (** temp-file pages written *)
  nlogn : float;  (** sum over operands of n * log2 n for new sorts *)
  merge_reads : float;  (** tuples re-read while merging sorted files *)
  build_tuples : float;
      (** tuples inserted into retained hash indexes this stage (deltas
          plus any catch-up after a sort->hash switch) *)
  probe_tuples : float;  (** delta tuples probed against the indexes *)
  out_tuples : float;  (** result tuples produced *)
  out_pages : float;  (** result pages written *)
  pairings : float;  (** sorted-file pairs merged (2s-1 full, 1 partial) *)
}

val zero_measures : measures

val steps : op_kind -> step list
(** The cost-bearing steps of the kind, in execution order. *)

val step_features : step -> measures -> float array
val step_dim : step -> int

val step_predict : step -> float array -> measures -> float
(** [step_predict step c m]: the linear prediction [sum_i c.(i) *.
    x.(i)] over [step_features step m], summed in index order from 0.0
    exactly as {!Taqp_stats.Least_squares.predict} does, so the two are
    bit-identical — without allocating the feature array. *)

val step_initial : step -> float array
(** Designer initial coefficients — per Section 5 deliberately
    calibrated on the largest tuples and richest formulas the
    prototype supports, i.e. pessimistic until adapted. *)

val kind_name : op_kind -> string
val step_name : step -> string
val pp_measures : Format.formatter -> measures -> unit
