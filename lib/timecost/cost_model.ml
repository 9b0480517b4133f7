open Taqp_stats

type step_model = {
  step : Formulas.step;
  model : Least_squares.t;
  (* Run-time level recalibration: EWMA of observed/predicted applied
     to the designer-constant anchor of the fit, so observed feature
     directions stay purely data-driven while unobserved ones inherit
     the learned level. *)
  mutable calibration : float;
}

type node = { kind : Formulas.op_kind; steps : step_model list }

type t = {
  adaptive : bool;
  initial_scale : float;
  nodes : (int, node) Hashtbl.t;
  mutable observer :
    (id:int ->
    step:Formulas.step ->
    predicted:float ->
    actual:float ->
    unit)
    option;
}

let create ?(adaptive = true) ?(initial_scale = 1.0) () =
  if initial_scale <= 0.0 then
    invalid_arg "Cost_model.create: initial_scale <= 0";
  { adaptive; initial_scale; nodes = Hashtbl.create 16; observer = None }

let set_observer t f = t.observer <- f

let adaptive t = t.adaptive

let register t ~id kind =
  if Hashtbl.mem t.nodes id then
    invalid_arg "Cost_model.register: duplicate node id";
  let make_step step =
    let init =
      Array.map (fun c -> c *. t.initial_scale) (Formulas.step_initial step)
    in
    {
      step;
      model = Least_squares.create ~forgetting:0.95 ~init ();
      calibration = 1.0;
    }
  in
  Hashtbl.replace t.nodes id
    { kind; steps = List.map make_step (Formulas.steps kind) }

let node t id =
  match Hashtbl.find_opt t.nodes id with
  | Some n -> n
  | None -> invalid_arg "Cost_model: unknown node id"

let step_model t id step =
  match List.find_opt (fun s -> s.step = step) (node t id).steps with
  | Some s -> s
  | None -> invalid_arg "Cost_model: node kind has no such step"

let kind t ~id = (node t id).kind

let ids t =
  List.sort Int.compare (Hashtbl.fold (fun id _ acc -> id :: acc) t.nodes [])

type resolved = { r_steps : Formulas.step array; r_coefs : float array array }

let resolve t ~id =
  let steps = (node t id).steps in
  {
    r_steps = Array.of_list (List.map (fun s -> s.step) steps);
    r_coefs =
      Array.of_list (List.map (fun s -> Least_squares.coefficients s.model) steps);
  }

(* Each step's prediction, clamped, summed from 0.0 in step order. *)
let apply r measures =
  let acc = ref 0.0 in
  for i = 0 to Array.length r.r_steps - 1 do
    acc :=
      !acc
      +. Float.max 0.0 (Formulas.step_predict r.r_steps.(i) r.r_coefs.(i) measures)
  done;
  !acc

let predict t ~id measures = apply (resolve t ~id) measures

let observe_step t ~id ~step measures ~seconds =
  (* Drift observation happens before the fit updates, so [predicted]
     is the prediction the planner actually used for this stage. Pure
     float arithmetic on already-known values: no clock, no PRNG. *)
  (match t.observer with
  | None -> ()
  | Some f ->
      let s = step_model t id step in
      let x = Formulas.step_features step measures in
      f ~id ~step
        ~predicted:(Float.max 0.0 (Least_squares.predict s.model x))
        ~actual:seconds);
  if t.adaptive then begin
    let s = step_model t id step in
    let x = Formulas.step_features step measures in
    let prior = Least_squares.predict s.model x in
    if prior > 1e-9 && seconds > 0.0 then begin
      let ratio = seconds /. prior in
      s.calibration <-
        Float.max 0.3 (Float.min 3.0 (s.calibration *. ratio));
      Least_squares.set_anchor_scale s.model s.calibration
    end;
    Least_squares.observe s.model ~x ~y:seconds
  end

let total t plan =
  List.fold_left (fun acc (id, m) -> acc +. predict t ~id m) 0.0 plan

(* ------------------------------------------------------------------ *)
(* Checkpointing: the fitted state per (node, step), keyed positionally
   within each node (a node's step list is a pure function of its
   kind), restored into a freshly re-registered model. *)

type step_state = { ss_calibration : float; ss_fit : Least_squares.dump }
type dump = (int * step_state list) list

let dump t =
  List.map
    (fun id ->
      ( id,
        List.map
          (fun s ->
            { ss_calibration = s.calibration; ss_fit = Least_squares.dump s.model })
          (node t id).steps ))
    (ids t)

let restore t d =
  List.iter
    (fun (id, states) ->
      let steps = (node t id).steps in
      if List.length steps <> List.length states then
        invalid_arg "Cost_model.restore: step count mismatch";
      List.iter2
        (fun s st ->
          s.calibration <- st.ss_calibration;
          Least_squares.restore s.model st.ss_fit)
        steps states)
    d
