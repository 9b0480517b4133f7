(** The adaptive time-cost model of a query: one independently fitted
    linear model per (operator node, step), re-estimated at run time
    from the per-step timings the executor records — Section 4's
    "adaptive time cost formulas".

    QCOST of a stage is the sum over nodes of {!predict} on the node's
    predicted stage measures. *)

type t

val create : ?adaptive:bool -> ?initial_scale:float -> unit -> t
(** [adaptive] false freezes the initial coefficients (the fixed-form
    ablation). [initial_scale] multiplies the designer initial
    coefficients (misfit experiments); default 1.0. *)

val adaptive : t -> bool

val register : t -> id:int -> Formulas.op_kind -> unit
(** Declare operator node [id] of the given kind.
    @raise Invalid_argument if [id] is already registered. *)

val kind : t -> id:int -> Formulas.op_kind
val ids : t -> int list

val predict : t -> id:int -> Formulas.measures -> float
(** Predicted seconds for the node on one stage's measures: the sum of
    its steps' predictions (each >= 0). [apply (resolve t ~id)]. *)

type resolved
(** One node's steps with their fitted coefficients, copied out of the
    model: what {!predict} looks up, resolved once. *)

val resolve : t -> id:int -> resolved
(** The node's coefficients as of now. A later {!observe_step} or
    {!restore} does not reach a [resolved] taken before it, so a planner
    resolves once per planning call and drops it before the stage
    runs. @raise Invalid_argument for an unregistered id. *)

val apply : resolved -> Formulas.measures -> float
(** {!predict} on resolved coefficients, bit for bit: no lookup, no
    copy, no feature array. *)

val observe_step :
  t -> id:int -> step:Formulas.step -> Formulas.measures -> seconds:float -> unit
(** Feed one observed (measures, elapsed) pair for one step; no-op when
    not adaptive (the drift observer still fires). @raise
    Invalid_argument for a step the node's kind does not have. *)

val set_observer :
  t ->
  (id:int -> step:Formulas.step -> predicted:float -> actual:float -> unit)
  option ->
  unit
(** Install (or clear) a drift observer called on every
    {!observe_step} with the prediction in force {e before} the fit
    updates — the predicted-vs-actual pair a calibration monitor needs.
    Fires whether or not the model is adaptive. Purely observational:
    registering one never changes a prediction, a fit, or any charge. *)

val total : t -> (int * Formulas.measures) list -> float
(** Sum of predictions — QCOST for a stage plan. *)

(** {2 Checkpointing}

    The fitted coefficients, calibration levels and observation counts
    for every registered (node, step) — the run-time-learned state a
    {!Taqp_recover} checkpoint must carry across a crash. Steps are
    keyed by position within their node (a node's step list is a pure
    function of its kind), so a dump restores cleanly into a model
    whose nodes were re-registered by recompiling the same query. *)

type step_state = {
  ss_calibration : float;
  ss_fit : Taqp_stats.Least_squares.dump;
}

type dump = (int * step_state list) list
(** Per node id (ascending), the per-step fitted state in step order. *)

val dump : t -> dump

val restore : t -> dump -> unit
(** Restore into a model with the same registered nodes.
    @raise Invalid_argument if a dumped node id is not registered or
    its step count differs. *)
