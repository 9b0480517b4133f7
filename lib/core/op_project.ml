open Op_common

type t = {
  positions : int list;
  bf : int;
  groups : (Tuple.t, int ref) Hashtbl.t;
}

let measures p ~n_in ~out =
  {
    Formulas.zero_measures with
    Formulas.n_input = n_in;
    temp_pages = pages ~bf:p.bf n_in;
    nlogn = xlog n_in;
    out_tuples = out;
    out_pages = pages ~bf:p.bf out;
  }

let eval ctx ~id p delta_in =
  let device = ctx.device in
  let t0 = now ctx in
  let n_in = Array.length delta_in in
  (* Figure 4.7 steps 1-3 on the new tuples. *)
  let projected = Array.map (fun tp -> Tuple.project tp p.positions) delta_in in
  Device.write_temp_tuples device ~n:n_in;
  Device.write_pages device ~n:(int_of_float (pages ~bf:p.bf (float_of_int n_in)));
  let t1 = now ctx in
  Device.sort device ~n:n_in;
  let t2 = now ctx in
  Device.merge_tuples device ~n:n_in;
  let fresh = ref [] in
  Array.iter
    (fun tp ->
      match Hashtbl.find_opt p.groups tp with
      | Some count -> incr count
      | None ->
          Hashtbl.replace p.groups tp (ref 1);
          fresh := tp :: !fresh)
    projected;
  let t3 = now ctx in
  let out = Array.of_list (List.rev !fresh) in
  charge_output ctx ~bf:p.bf (Array.length out);
  let t4 = now ctx in
  observe ctx ~id
    (measures p ~n_in:(float_of_int n_in) ~out:(float_of_int (Array.length out)))
    [
      (Formulas.Step_write_temp, t1 -. t0);
      (Formulas.Step_sort, t2 -. t1);
      (Formulas.Step_check, t3 -. t2);
      (Formulas.Step_output, t4 -. t3);
    ];
  out

let snapshot p = Hashtbl.fold (fun tp c acc -> (tp, !c) :: acc) p.groups []

let restore p groups =
  Hashtbl.reset p.groups;
  List.iter (fun (tp, c) -> Hashtbl.replace p.groups tp (ref c)) groups
