(** Which live job runs its next stage.

    Stage-boundary preemption makes every policy a pure selection
    function: between stages the scheduler rebuilds the candidate set
    and asks the policy which handle steps next. All four policies
    minimize a score with ties broken by admission order, so selection
    is deterministic. *)

type t =
  | Fifo  (** admission order — the seed repo's ad-hoc server *)
  | Edf  (** earliest absolute deadline first *)
  | Least_laxity
      (** smallest [deadline - now - next-stage price]: EDF corrected
          for how much work the job still needs *)
  | Weighted_fair
      (** smallest consumed device time per unit priority — apportions
          the device across live jobs in proportion to their weights *)

val all : t list
val name : t -> string
val of_string : string -> t option
val pp : Format.formatter -> t -> unit

type candidate = {
  key : int;  (** scheduler-internal identifier, returned by selection *)
  seq : int;  (** admission order; FIFO's key and every tie-break *)
  deadline : float;  (** absolute *)
  laxity : float Lazy.t;
      (** [deadline - now - min_stage_cost]: priced only if the policy
          reads it (least laxity) *)
  service : float;  (** device seconds consumed so far *)
  weight : float;  (** priority as a float, [>= 1] *)
}

val select : t -> candidate list -> candidate
(** @raise Invalid_argument on an empty candidate list. *)
