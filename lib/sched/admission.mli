(** Admission control: price a job before spending I/O on it.

    PilotDB-style a-priori guarantees motivate the shape: a job that
    cannot meet its deadline at the required confidence — given the
    work already queued — is rejected (or admitted with a shrunken
    quota) {e before} it costs the device anything. Pricing reuses the
    executor's own cost machinery ({!Taqp_core.Staged} node plans over
    {!Taqp_timecost.Formulas}) on a throwaway compilation, so the
    decision is pure: it never touches the shared clock or the job's
    sampling stream. See docs/SCHEDULING.md for the math. *)

type reason =
  | Queue_full of { limit : int }
  | Zero_slack  (** the deadline had already passed at submission *)
  | Infeasible of { needed : float; available : float }
      (** slack minus queued work cannot cover one minimum viable
          stage (planning + a minimum-fraction stage) *)

type decision =
  | Accept of { quota : float }  (** full slack granted *)
  | Degrade of { quota : float; wanted : float }
      (** admitted, but the backlog leaves only [quota] of the
          [wanted] seconds its confidence target prices at — the
          answer will be wider than asked for *)
  | Reject of reason

type t = { max_queue : int option; headroom : float }
(** [headroom >= 1] scales every requirement (a 1.25 headroom demands
    25% slack margin); [max_queue] bounds concurrently live jobs. *)

val default : t
(** No queue bound, headroom 1. *)

val make : ?max_queue:int -> ?headroom:float -> unit -> t
(** @raise Invalid_argument on [max_queue < 1] or [headroom < 1]. *)

val reason_name : reason -> string
val pp_reason : Format.formatter -> reason -> unit
val decision_name : decision -> string

val compile_for_pricing :
  ?cache:Taqp_cache.Cache.t -> job:Job.t -> unit -> Taqp_core.Staged.t
(** A throwaway compilation of the job's query (fresh untrained cost
    model, private rng) for pricing. Pure: touches neither the shared
    clock nor the job's sampling stream. With [cache], stage plans
    count only the predicted cache-{e miss} reads (a read-only
    prediction), so the price reflects the residual sample a warm
    cache leaves to fetch. *)

val price_min_stage :
  device:Taqp_storage.Device.t ->
  Taqp_core.Staged.t ->
  config:Taqp_core.Config.t ->
  float
(** Cost of the cheapest run that still yields an estimate: one
    sample-size determination plus one minimum-fraction stage. *)

val evaluate :
  t ->
  staged:Taqp_core.Staged.t Lazy.t ->
  device:Taqp_storage.Device.t ->
  now:float ->
  backlog:float ->
  queue_len:int ->
  Job.t ->
  decision
(** [backlog] is the reserved minimum work (seconds) of already
    admitted, unfinished jobs; [queue_len] their count. [staged] is the
    job's {!compile_for_pricing} (with the shared cache, when there is
    one, so the price reflects its current contents), forced only once
    the slack and queue checks pass. *)
