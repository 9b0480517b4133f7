open Op_common

type t = { comparisons : int; test : Tuple.t -> bool; bf : int }

let measures s ~n_in ~out =
  {
    Formulas.zero_measures with
    Formulas.n_input = n_in;
    comparisons = float_of_int s.comparisons;
    out_tuples = out;
    out_pages = pages ~bf:s.bf out;
  }

(* Each range filters in index order and the ranges concatenate in
   order: extensionally [Seq.filter] over the whole array. *)
let filter ctx test arr =
  let chunks =
    map_ranges ctx ~n:(Array.length arr) (fun lo hi ->
        let out = ref [] in
        for i = hi - 1 downto lo do
          if test arr.(i) then out := arr.(i) :: !out
        done;
        Array.of_list !out)
  in
  match chunks with
  | [| out |] -> out
  | _ -> Array.concat (Array.to_list chunks)

let eval ctx ~id s delta_in =
  let t0 = now ctx in
  Device.check_tuples ctx.device ~n:(Array.length delta_in)
    ~comparisons:s.comparisons;
  let out = filter ctx s.test delta_in in
  let t1 = now ctx in
  charge_output ctx ~bf:s.bf (Array.length out);
  let t2 = now ctx in
  observe ctx ~id
    (measures s
       ~n_in:(float_of_int (Array.length delta_in))
       ~out:(float_of_int (Array.length out)))
    [ (Formulas.Step_check, t1 -. t0); (Formulas.Step_output, t2 -. t1) ];
  out
