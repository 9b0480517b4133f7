module Tracer = Taqp_obs.Tracer
module Event = Taqp_obs.Event
module Metrics = Taqp_obs.Metrics
module Fault_plan = Taqp_fault.Fault_plan
module Injector = Taqp_fault.Injector

(* The fault meters live in the shared registry only when an injector
   is installed, so a fault-free run's metrics dump is unchanged. *)
type fault_meters = {
  m_read_errors : Metrics.Counter.t;
  m_torn_blocks : Metrics.Counter.t;
  m_latency_spikes : Metrics.Counter.t;
  m_stalls : Metrics.Counter.t;
  m_unrecoverable : Metrics.Counter.t;
  m_crashes : Metrics.Counter.t;
}

type t = {
  clock : Clock.t;
  params : Cost_params.t;
  jitter_rng : Taqp_rng.Prng.t option;
  stats : Io_stats.t;
  metrics : Metrics.t;
  tracer : Tracer.t;
  faults : (Injector.t * fault_meters) option;
  mutable spend : (string -> float -> unit) option;
      (** audit hook: called with (label, clock seconds actually
          advanced) after every charge — including a truncated one
          when an armed deadline fires mid-charge. Strictly read-only
          with respect to the clock and every PRNG stream. *)
}

let create ?(params = Cost_params.default) ?jitter_rng ?metrics ?tracer ?faults
    clock =
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  let tracer =
    match tracer with
    | Some tr -> tr
    | None -> Clock.tracer clock
  in
  if Tracer.enabled tracer then Clock.set_tracer clock tracer;
  let faults =
    (* An injector with no rules is normalized away: the charge path is
       then bit-for-bit the uninstrumented one. *)
    match faults with
    | Some inj when Injector.active inj ->
        Some
          ( inj,
            {
              m_read_errors = Metrics.counter metrics "fault.read_errors";
              m_torn_blocks = Metrics.counter metrics "fault.torn_blocks";
              m_latency_spikes = Metrics.counter metrics "fault.latency_spikes";
              m_stalls = Metrics.counter metrics "fault.stalls";
              m_unrecoverable = Metrics.counter metrics "fault.unrecoverable";
              m_crashes = Metrics.counter metrics "fault.crashes";
            } )
    | Some _ | None -> None
  in
  {
    clock;
    params;
    jitter_rng;
    stats = Io_stats.create ~metrics ();
    metrics;
    tracer;
    faults;
    spend = None;
  }

let clock t = t.clock
let stats t = t.stats
let params t = t.params
let metrics t = t.metrics
let tracer t = t.tracer

let fault_injector t = Option.map fst t.faults
let faults_active t = Option.is_some t.faults

let fault_log t =
  match t.faults with None -> [] | Some (inj, _) -> Injector.events inj

let fault_time t =
  match t.faults with None -> 0.0 | Some (inj, _) -> Injector.injected_time inj

let set_spend_listener t f = t.spend <- f

let jitter t =
  match t.jitter_rng with
  | None -> 1.0
  | Some rng -> Taqp_rng.Prng.lognormal_factor rng t.params.jitter_sigma

(* Every clock advance the device makes funnels through [advance]: with
   no listener installed it is exactly [Clock.charge] (a single [match]
   on an immediate — the disabled path costs nothing); with one, the
   realized clock delta is reported under [label] after the charge.
   The delta is measured from the clock itself, so a charge truncated
   by an armed abort deadline reports only the seconds that actually
   elapsed before re-raising — which is what lets a ledger account for
   an aborted stage to the last tick. *)
let advance t label dt =
  match t.spend with
  | None -> Clock.charge t.clock dt
  | Some f -> (
      let before = Clock.now t.clock in
      match Clock.charge t.clock dt with
      | () -> f label (Clock.now t.clock -. before)
      | exception e ->
          f label (Clock.now t.clock -. before);
          raise e)

(* Charge with a storage-level span around it. The disabled path is a
   single branch — no closure, no allocation — so the hot block-read
   path costs exactly what it did before instrumentation existed. The
   charge itself is identical either way: tracing reads the clock, it
   never advances it. Both ends of the span are stamped by the tracer's
   own clock, which need not be the device's. If the charge trips an
   armed deadline the exception propagates and the clock's own
   [deadline.abort] instant marks the spot (a dangling storage span is
   fine in both formats).

   [spend_label] defaults to the span name but is deliberately a
   separate concept: a fault retry re-pays the same span [name] (so
   the trace stream is bit-identical with or without a listener) while
   the ledger sees it as "fault.retry". *)
let plain_traced_charge ?spend_label t name cost =
  let label = match spend_label with Some l -> l | None -> name in
  if Tracer.enabled t.tracer then begin
    let begin_ts = Tracer.now t.tracer in
    advance t label (cost *. jitter t);
    Tracer.complete t.tracer ~cat:"storage" ~begin_ts name
  end
  else advance t label (cost *. jitter t)

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)

let bump_meter meters = function
  | Fault_plan.Read_error -> Metrics.Counter.incr meters.m_read_errors
  | Fault_plan.Torn_block -> Metrics.Counter.incr meters.m_torn_blocks
  | Fault_plan.Latency_spike _ -> Metrics.Counter.incr meters.m_latency_spikes
  | Fault_plan.Stall _ -> Metrics.Counter.incr meters.m_stalls
  | Fault_plan.Crash -> Metrics.Counter.incr meters.m_crashes

let fault_instant t ~op ~attempt kind =
  if Tracer.enabled t.tracer then
    let extra =
      match kind with
      | Fault_plan.Latency_spike f -> [ ("factor", Event.Float f) ]
      | Fault_plan.Stall d -> [ ("duration", Event.Float d) ]
      | Fault_plan.Read_error | Fault_plan.Torn_block | Fault_plan.Crash -> []
    in
    Tracer.instant t.tracer ~cat:"fault"
      ~args:
        ([ ("op", Event.String op); ("attempt", Event.Int attempt) ] @ extra)
      ("fault." ^ Fault_plan.kind_name kind)

(* A charge point under an installed fault plan. Every attempt pays the
   nominal (jittered) charge; then the injector is consulted once:

   - [Latency_spike f] inflates the attempt by charging the excess
     [(f-1) * cost] on top — the operation completed, just slowly;
   - [Stall d] appends [d] seconds of dead time (no jitter: a stall is
     wall-time the device spends not working);
   - [Read_error]/[Torn_block] void the attempt: the device waits out
     an exponential backoff (charged) and retries, re-paying the
     nominal cost, until the plan's retry budget is spent — then the
     fault escalates to {!Injector.Unrecoverable}.

   All fault-induced time goes through the clock, so an armed abort
   deadline can fire mid-retry exactly like the paper's timer
   interrupt; the injected seconds are also accumulated on the
   injector for the report's degradation accounting. *)
let faulted_charge t inj meters name cost =
  let plan = Injector.plan inj in
  let rec attempt n =
    plain_traced_charge
      ?spend_label:(if n > 1 then Some "fault.retry" else None)
      t name cost;
    match Injector.draw inj ~op:name ~now:(Clock.now t.clock) with
    | None -> ()
    | Some (Fault_plan.Latency_spike factor as kind) ->
        bump_meter meters kind;
        Injector.record inj ~op:name ~kind ~at:(Clock.now t.clock) ~attempt:n
          ~recovered:true;
        fault_instant t ~op:name ~attempt:n kind;
        let extra = cost *. (factor -. 1.0) in
        Injector.add_injected_time inj extra;
        plain_traced_charge ~spend_label:"fault.spike" t (name ^ ".spike") extra
    | Some (Fault_plan.Stall d as kind) ->
        bump_meter meters kind;
        Injector.record inj ~op:name ~kind ~at:(Clock.now t.clock) ~attempt:n
          ~recovered:true;
        fault_instant t ~op:name ~attempt:n kind;
        Injector.add_injected_time inj d;
        advance t "fault.stall" d
    | Some (Fault_plan.Crash as kind) ->
        (* The process dies at the charge point. Nothing is degraded,
           nothing is retried — the exception escapes everything; only
           state journaled before this instant survives. *)
        bump_meter meters kind;
        Injector.record inj ~op:name ~kind ~at:(Clock.now t.clock) ~attempt:n
          ~recovered:false;
        fault_instant t ~op:name ~attempt:n kind;
        raise (Injector.Crashed { op = name; at = Clock.now t.clock })
    | Some ((Fault_plan.Read_error | Fault_plan.Torn_block) as kind) ->
        let recovered = n <= plan.Fault_plan.max_retries in
        bump_meter meters kind;
        Injector.record inj ~op:name ~kind ~at:(Clock.now t.clock) ~attempt:n
          ~recovered;
        fault_instant t ~op:name ~attempt:n kind;
        if not recovered then begin
          Metrics.Counter.incr meters.m_unrecoverable;
          raise
            (Injector.Unrecoverable
               { op = name; kind; attempts = n; at = Clock.now t.clock })
        end;
        Io_stats.incr_retries t.stats;
        let backoff =
          plan.Fault_plan.backoff
          *. (plan.Fault_plan.backoff_multiplier ** float_of_int (n - 1))
        in
        (* the voided attempt's cost was already charged above; the
           backoff and the re-read to come are all fault-induced *)
        Injector.add_injected_time inj (backoff +. cost);
        advance t "fault.backoff" backoff;
        attempt (n + 1)
  in
  attempt 1

let traced_charge t name cost =
  match t.faults with
  | None -> plain_traced_charge t name cost
  | Some (inj, meters) -> faulted_charge t inj meters name cost

let read_block t =
  Io_stats.incr_blocks_read t.stats;
  traced_charge t "read_block" t.params.block_read

(* A cache hit: the unit is served from memory instead of the disk, so
   the charge is jittered like any other work but exempt from fault
   injection — the injector models the storage path the hit just
   avoided. Not counted as a block read ([Io_stats] keeps reporting
   real device IO; the cache keeps its own hit/miss counters). *)
let cache_probe t = plain_traced_charge t "cache_probe" t.params.cache_probe

let check_tuples t ~n ~comparisons =
  if n > 0 then begin
    Io_stats.add_tuples_checked t.stats n;
    let per =
      t.params.tuple_check_base
      +. (float_of_int comparisons *. t.params.per_comparison)
    in
    traced_charge t "check_tuples" (float_of_int n *. per)
  end

let write_pages t ~n =
  if n > 0 then begin
    Io_stats.add_pages_written t.stats n;
    traced_charge t "write_pages" (float_of_int n *. t.params.page_write)
  end

let write_temp_tuples t ~n =
  if n > 0 then begin
    Io_stats.add_temp_tuples_written t.stats n;
    traced_charge t "write_temp" (float_of_int n *. t.params.temp_tuple_write)
  end

let sort t ~n =
  if n > 0 then begin
    Io_stats.add_tuples_sorted t.stats n;
    let fn = float_of_int n in
    let logn = if n > 1 then log (float_of_int n) /. log 2.0 else 1.0 in
    traced_charge t "sort"
      ((t.params.sort_per_nlogn *. fn *. logn) +. (t.params.sort_per_tuple *. fn))
  end

let merge_tuples t ~n =
  if n > 0 then begin
    Io_stats.add_tuples_merged t.stats n;
    traced_charge t "merge" (float_of_int n *. t.params.merge_per_tuple)
  end

let hash_build t ~n =
  if n > 0 then begin
    Io_stats.add_tuples_hashed t.stats n;
    traced_charge t "hash_build" (float_of_int n *. t.params.hash_build_per_tuple)
  end

let hash_probe t ~n =
  if n > 0 then begin
    Io_stats.add_tuples_probed t.stats n;
    traced_charge t "hash_probe" (float_of_int n *. t.params.hash_probe_per_tuple)
  end

let output_tuples t ~n =
  if n > 0 then begin
    Io_stats.add_tuples_output t.stats n;
    traced_charge t "output" (float_of_int n *. t.params.output_per_tuple)
  end

let estimator_update t ~n =
  if n > 0 then
    traced_charge t "estimator_update" (float_of_int n *. t.params.estimator_per_tuple)

let stage_overhead t =
  Io_stats.incr_stages t.stats;
  traced_charge t "stage_overhead" t.params.stage_overhead

let misc t cost = advance t "misc" cost

(* Same unjittered charge as [misc], but labeled so a spend listener can
   attribute the planner's QCOST arithmetic separately from anonymous
   overhead. *)
let planning t cost = advance t "planning" cost

(* A checkpoint append to the write-ahead stage journal. Sequential,
   unjittered and exempt from fault injection: the journal is what
   recovery trusts, so modeling it on a separate, reliable log stream
   keeps the jitter and fault PRNG streams identical between a
   journaled and a plain run — and between the crashed run and its
   resumed continuation, which is what makes boundary-crash recovery
   bit-identical. The cost is still real clock time: an armed abort
   deadline can fire mid-checkpoint. *)
let journal_write t ~bytes =
  if bytes > 0 then begin
    let cost = float_of_int bytes *. t.params.journal_byte_write in
    if Tracer.enabled t.tracer then begin
      let begin_ts = Tracer.now t.tracer in
      advance t "journal_write" cost;
      Tracer.complete t.tracer ~cat:"storage" ~begin_ts "journal_write"
    end
    else advance t "journal_write" cost
  end

let merge_setup t = traced_charge t "merge_setup" t.params.merge_setup

let measure t seconds =
  let tick = t.params.clock_tick in
  if tick <= 0.0 then seconds
  else Float.max 0.0 (Float.round (seconds /. tick) *. tick)

(* ------------------------------------------------------------------ *)
(* Checkpointing: everything mutable behind the device except the clock
   itself, which recovery restores separately to the checkpoint's
   instant (the journal-append charge lands between the executor
   snapshot and the record write). *)

type dump = {
  d_io : int list;
  d_jitter : Taqp_rng.Prng.state option;
  d_faults : Injector.dump option;
}

let dump t =
  {
    d_io = Io_stats.values t.stats;
    d_jitter = Option.map Taqp_rng.Prng.state t.jitter_rng;
    d_faults = Option.map (fun (inj, _) -> Injector.dump inj) t.faults;
  }

let restore t d =
  Io_stats.restore t.stats d.d_io;
  (match (t.jitter_rng, d.d_jitter) with
  | None, None -> ()
  | Some rng, Some st -> Taqp_rng.Prng.set_state rng st
  | _ -> invalid_arg "Device.restore: jitter presence mismatch");
  match (t.faults, d.d_faults) with
  | None, None -> ()
  | Some (inj, _), Some idump -> Injector.restore inj idump
  | _ -> invalid_arg "Device.restore: fault-injector presence mismatch"
