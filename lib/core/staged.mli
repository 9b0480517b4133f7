(** The compiled, stage-by-stage evaluable form of a COUNT(E) query.

    Compilation applies the inclusion-exclusion rewrite, builds one
    operator tree per signed SJIP term, assigns every operator (plus
    one Scan pseudo-operator per base relation and one Overhead node)
    an id in the adaptive {!Taqp_timecost.Cost_model}, and creates one
    {!Taqp_sampling.Stage_set} per base relation.

    The two halves of the interface mirror the two halves of each
    stage in Figure 3.1: {!pricer} is the pure cost-prediction used by
    Sample-Size-Determine (resolved once per stage, applied once per
    bisection probe; {!plan} lists the same prediction per node), and
    {!run_stage} draws the new sample units, evaluates all terms
    incrementally under the configured fulfillment plan, feeds the
    observed selectivities and step timings back, and returns the
    improved estimate. *)

open Taqp_storage
open Taqp_relational

type t

exception Compile_error of string

val compile :
  ?aggregate:Aggregate.t ->
  ?cache:Taqp_cache.Cache.t ->
  catalog:Catalog.t ->
  config:Config.t ->
  rng:Taqp_rng.Prng.t ->
  cost_model:Taqp_timecost.Cost_model.t ->
  Ra.t ->
  t
(** [aggregate] defaults to COUNT; SUM/AVG additionally require a
    numeric attribute of the result schema and no Project root in any
    term. The per-stage estimate returned by {!run_stage} is then the
    requested aggregate's.

    [cache] attaches the shared cross-query cache: scans draw their
    units from the cache's per-relation sample prefix (so concurrent
    queries sample the {e same} units and hit each other's blocks),
    block reads and leaf-fed sort/hash summaries are served from the
    cache at {!Taqp_storage.Device.cache_probe} price on a hit, and
    stage plans count only the predicted {e miss} reads — which is how
    admission control prices the residual sample a hit leaves to
    fetch. Omitted (the default), every path is bit-identical to the
    cache-less engine.
    @raise Compile_error on unknown relations (or unsupported/ill-typed
    aggregates);
    @raise Ra.Type_error on ill-typed expressions;
    @raise Taqp_estimators.Inclusion_exclusion.Unsupported per the
    rewrite's limits. *)

val set_parallel_threshold : int -> unit
(** Minimum tuples of work before a stage region fans out over the
    config's worker domains (default 2048; process-wide). Purely a
    wall-time knob: both code paths produce bit-identical output, so
    tests lower it to force the parallel regions onto test-sized
    fixtures. See docs/PARALLELISM.md. *)

val term_count : t -> int
val total_points : t -> float
val stages_done : t -> int
val exhausted : t -> bool
(** Every base relation fully drawn: the next answer is exact. *)

val relations : t -> (string * int) list
(** Relation names with their unit-population sizes (blocks under the
    cluster plan, tuples under simple random sampling). *)

(** How operator selectivities are assumed during planning. *)
type sel_mode =
  | Plain  (** sel^{i-1} — the running estimates *)
  | Inflated of { d_beta : float; zero_beta : float }
      (** the One-at-a-Time sel+ values *)
  | Override of (int * float) list
      (** plain, with the listed op ids replaced (numeric gradients for
          the Single-Interval strategy) *)

type node_plan = {
  plan_id : int;
      (** cost-model id of the workload priced: the operator's own id,
          or — for a binary operator whose chosen physical path is the
          hash one — its hash-path cost-model id *)
  plan_op_id : int;
      (** the logical operator's id regardless of physical path: the
          key for {!sel_mode} overrides and {!op_ids} *)
  plan_kind : Taqp_timecost.Formulas.op_kind;
  plan_measures : Taqp_timecost.Formulas.measures;
  sel_used : float;  (** 1.0 for Scan nodes *)
  sel_plain : float;
  sel_variance : float;  (** Var_srs(sel_i) at this stage size *)
}

val plan : t -> f:float -> mode:sel_mode -> node_plan list
(** Predicted per-node workload of the {e next} stage at sample
    fraction [f] (scans first, then operators per term, then the
    Overhead node). Each binary operator contributes exactly one entry,
    priced for whichever physical path ({!Config.physical_operator})
    will run — under [Adaptive], whichever the fitted cost model
    predicts cheaper, including any catch-up cost of switching. The
    physical path never changes the estimate, only the cost.
    @raise Invalid_argument for [f] outside (0, 1]. *)

val pricer : t -> mode:sel_mode -> float -> float
(** [pricer t ~mode] resolves once every input of {!plan} that does not
    depend on the fraction — the nodes' cost-model coefficients, each
    operator module's prepared retained state, the selectivity rule,
    each scan's cache miss handle — and returns [f -> QCOST]: the
    cost-model total over [plan t ~f ~mode], bit for bit, without
    building a plan. Every float expression involving [f] is [plan]'s,
    in its order, and the node costs are summed in plan order.

    The closure reads the state as of the call: use it within one
    planning call, before the next stage (of this or any job sharing
    the cache) runs.
    @raise Invalid_argument (on application) for [f] outside (0, 1]. *)

val predicted_cost : t -> f:float -> mode:sel_mode -> float
(** QCOST: one application of {!pricer}. *)

val qcost_std : t -> float -> float
(** The Single-Interval strategy's [sqrt Var(QCOST)] at [f]: the delta
    method over the operators' selectivity variances at that stage
    size, with numeric gradients from {!pricer}s that override one
    operator's selectivity (cross-operator covariances taken as 0).
    Resolved once like {!pricer}, with the same lifetime. *)

val op_ids : t -> int list
(** Ids of RA operator nodes (excluding scans, overhead and the binary
    operators' hash-path cost-model ids). *)

val overhead_id : t -> int

type stage_result = {
  new_units : (string * int) list;  (** units drawn per relation *)
  estimate : Taqp_estimators.Count_estimator.t;
  op_snapshots : Report.op_snapshot list;
  nodes_elapsed : float;  (** clock time spent inside operators *)
  scans_elapsed : float;  (** clock time spent reading sample units *)
}

val run_stage : t -> device:Device.t -> f:float -> stage_result option
(** Execute one stage at fraction [f]: draw, evaluate, learn. [None]
    when no relation has units left to draw. Raises
    {!Clock.Deadline_exceeded} from inside if the device's clock is
    armed in abort mode and expires — the caller treats the stage as
    aborted (node state is then stale; do not run further stages). *)

val current_estimate : t -> Taqp_estimators.Count_estimator.t option
(** The estimate as of the last completed stage. *)

val group_estimates : t -> (Taqp_data.Tuple.t * float) list option
(** For a plain projection query (a single positive term rooted at
    Project): the estimated population count of every group observed in
    the sample, largest first — occupancy scaled by N/points_evaluated.
    [None] for other query shapes or before the first stage. *)

(** {2 Checkpointing}

    A {!snapshot} is the complete run-time-evolved state of the
    compiled query as plain data: sample-set histories and stream
    positions, per-operator selectivity records, retained binary
    deltas (with how far each physical path had processed them),
    projection group tables, aggregate moments and the per-term block
    counts. {!restore} writes a snapshot into a {e freshly compiled}
    instance of the same query (same text, config, aggregate and
    catalog) — derived structures (sorted files, hash indexes) are
    rebuilt deterministically from the deltas rather than serialized,
    and come back bit-identical, so a resumed run draws, evaluates,
    prices and estimates exactly as the uninterrupted one would have
    from that stage boundary on. See docs/RECOVERY.md. *)

type scan_snapshot = {
  sn_relation : string;
  sn_stage_tuples : int list;  (** tuples per stage, newest first *)
  sn_drawn_tuples : int;
  sn_units : Taqp_sampling.Stage_set.dump;
}

type node_state = {
  ns_id : int;  (** compile-order id, checked on restore *)
  ns_cum_out : float;
  ns_cum_points : float;
  ns_sel : Taqp_estimators.Selectivity.dump;
  ns_kind : node_kind_state;
}

and node_kind_state =
  | Ns_leaf
  | Ns_select of node_state
  | Ns_project of {
      np_groups : (Taqp_data.Tuple.t * int) list;
          (** distinct groups with occupancy counts, in reverse
              table-fold order (re-inserting in list order reproduces
              the original iteration order) *)
      np_child : node_state;
    }
  | Ns_binary of {
      nb_left : node_state;
      nb_right : node_state;
      nb_deltas_l : Taqp_data.Tuple.t array list;  (** oldest first *)
      nb_deltas_r : Taqp_data.Tuple.t array list;
      nb_files_l : int;  (** deltas already sorted into retained files *)
      nb_files_r : int;
      nb_hashed_l : int;  (** deltas already in the retained hash index *)
      nb_hashed_r : int;
    }

type term_snapshot = {
  tn_root : node_state;
  tn_moments : Aggregate.moments;
  tn_block_counts : float list;  (** newest first *)
}

type snapshot = {
  sn_stage : int;
  sn_last_estimate : Taqp_estimators.Count_estimator.t option;
  sn_scans : scan_snapshot list;  (** in relation-name order *)
  sn_terms : term_snapshot list;
}

val snapshot : t -> snapshot
(** Capture the current stage boundary. Cheap: shares the retained
    delta arrays (they are never mutated after creation). *)

val restore : t -> snapshot -> unit
(** Restore into a freshly compiled instance of the same query.
    @raise Invalid_argument if [t] has already run a stage or the
    snapshot's shape does not match the compiled tree. *)
