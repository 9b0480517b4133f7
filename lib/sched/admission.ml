module Config = Taqp_core.Config
module Staged = Taqp_core.Staged
module Executor = Taqp_core.Executor
module Cost_model = Taqp_timecost.Cost_model
module Device = Taqp_storage.Device
module Distribution = Taqp_stats.Distribution
module Prng = Taqp_rng.Prng

type reason =
  | Queue_full of { limit : int }
  | Zero_slack
  | Infeasible of { needed : float; available : float }

type decision =
  | Accept of { quota : float }
  | Degrade of { quota : float; wanted : float }
  | Reject of reason

type t = { max_queue : int option; headroom : float }

let default = { max_queue = None; headroom = 1.0 }

let make ?max_queue ?(headroom = 1.0) () =
  (match max_queue with
  | Some n when n < 1 -> invalid_arg "Admission.make: max_queue < 1"
  | _ -> ());
  if headroom < 1.0 then invalid_arg "Admission.make: headroom < 1";
  { max_queue; headroom }

let reason_name = function
  | Queue_full _ -> "queue-full"
  | Zero_slack -> "zero-slack"
  | Infeasible _ -> "infeasible"

let pp_reason ppf = function
  | Queue_full { limit } -> Format.fprintf ppf "queue full (limit %d)" limit
  | Zero_slack -> Format.pp_print_string ppf "deadline already passed"
  | Infeasible { needed; available } ->
      Format.fprintf ppf
        "needs %.3fs for its minimum viable stage, %.3fs available" needed
        available

let decision_name = function
  | Accept _ -> "accepted"
  | Degrade _ -> "degraded"
  | Reject _ -> "rejected"

(* Admission prices a job on the same Formulas/Staged cost nodes the
   executor plans with, but on a throwaway compilation: a fresh
   untrained cost model and a private rng, so pricing never perturbs
   the run that may follow. All of it is pure — admission charges the
   shared clock nothing. *)
let compile_for_pricing ?cache ~job () =
  let config = job.Job.config in
  let cost_model =
    Cost_model.create ~adaptive:config.Config.adaptive_cost
      ~initial_scale:config.Config.initial_cost_scale ()
  in
  (* [cache] makes the throwaway plan count only predicted *misses*
     (Cache.predict_misses is read-only), so admission prices the
     residual sample a warm cache leaves to fetch. Still pure. *)
  Staged.compile ~aggregate:job.Job.aggregate ?cache ~catalog:job.Job.catalog
    ~config ~rng:(Prng.create job.Job.seed) ~cost_model job.Job.query

(* The cheapest run that still yields an estimate: one
   sample-size-determination plus one minimum-fraction stage. A job
   whose slack cannot cover this produces nothing — admitting it only
   burns device time other jobs needed. *)
let price_min_stage ~device staged ~(config : Config.t) =
  Executor.planning_cost device ~max_iterations:config.max_bisect_iterations
  +. Staged.predicted_cost staged ~f:Executor.min_fraction ~mode:Staged.Plain

(* The stage fraction a confidence target needs, from the SRS
   normal-approximation half-width of a proportion: to put the relative
   half-width under w at confidence level L with prior selectivity p,
   the sample must hold m >= z^2 (1-p) / (p w^2) points (z the
   two-sided normal deviate of L). The prior is the product of the
   compiled operators' initial selectivities — crude, but it is exactly
   the information the executor itself starts from. *)
let confidence_fraction staged ~(config : Config.t) ~target =
  let plans = Staged.plan staged ~f:0.01 ~mode:Staged.Plain in
  let p =
    List.fold_left (fun acc pl -> acc *. pl.Staged.sel_plain) 1.0 plans
  in
  let p = Float.min 1.0 (Float.max 1e-6 p) in
  let z =
    Distribution.normal_quantile ((1.0 +. config.confidence_level) /. 2.0)
  in
  let m = z *. z *. (1.0 -. p) /. (p *. target *. target) in
  let total = Float.max 1.0 (Staged.total_points staged) in
  Float.min 1.0 (Float.max Executor.min_fraction (m /. total))

let price_confidence ~device staged ~(config : Config.t) ~target =
  Executor.planning_cost device ~max_iterations:config.max_bisect_iterations
  +. Staged.predicted_cost staged
       ~f:(confidence_fraction staged ~config ~target)
       ~mode:Staged.Plain

let evaluate t ~staged ~device ~now ~backlog ~queue_len job =
  let slack = Job.slack job ~now in
  if slack <= 0.0 then Reject Zero_slack
  else
    match t.max_queue with
    | Some limit when queue_len >= limit -> Reject (Queue_full { limit })
    | _ ->
        let staged = Lazy.force staged in
        let config = job.Job.config in
        let min_cost = price_min_stage ~device staged ~config in
        let available = slack -. backlog in
        let needed = t.headroom *. min_cost in
        if available < needed then Reject (Infeasible { needed; available })
        else
          let wanted =
            match job.Job.min_confidence with
            | None -> min_cost
            | Some target -> price_confidence ~device staged ~config ~target
          in
          if available >= t.headroom *. wanted then Accept { quota = slack }
          else Degrade { quota = available; wanted = t.headroom *. wanted }
