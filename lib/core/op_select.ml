open Op_common

type t = {
  comparisons : int;
  test : Tuple.t -> bool;
  rows : (int -> bool) option;
  bf : int;
}

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

(* The column filter: [test] on each row of a leaf delta, marking the
   positions that pass, then the marked tuples in order. Inline: the
   test is a few int loads per row, cheaper than a pool job's
   hand-off. *)
let filter_rows test leaf arr =
  let n = Array.length arr in
  let mark = Bytes.make n '\000' in
  let count = ref 0 in
  let rows =
    iter_rows leaf (fun pos row ->
        if test row then begin
          Bytes.set mark pos '\001';
          incr count
        end)
  in
  if rows <> n then
    invalid_arg "Op_select.filter_rows: rows do not match the delta";
  if !count = 0 then [||]
  else begin
    let out = Array.make !count arr.(0) and k = ref 0 in
    for i = 0 to n - 1 do
      if Bytes.unsafe_get mark i <> '\000' then begin
        out.(!k) <- arr.(i);
        incr k
      end
    done;
    out
  end

let eval ctx ~id s ?leaf delta_in =
  let t0 = now ctx in
  Device.check_tuples ctx.device ~n:(Array.length delta_in)
    ~comparisons:s.comparisons;
  let out =
    match (s.rows, leaf) with
    | Some test, Some leaf -> filter_rows test leaf delta_in
    | _ -> filter ctx s.test delta_in
  in
  let t1 = now ctx in
  charge_output ctx ~bf:s.bf (Array.length out);
  let t2 = now ctx in
  observe ctx ~id
    (measures s
       ~n_in:(float_of_int (Array.length delta_in))
       ~out:(float_of_int (Array.length out)))
    [ (Formulas.Step_check, t1 -. t0); (Formulas.Step_output, t2 -. t1) ];
  out
