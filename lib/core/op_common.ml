module Tuple = Taqp_data.Tuple
module Clock = Taqp_storage.Clock
module Device = Taqp_storage.Device
module Cost_params = Taqp_storage.Cost_params
module Heap_file = Taqp_storage.Heap_file
module Formulas = Taqp_timecost.Formulas
module Cost_model = Taqp_timecost.Cost_model
module Cache = Taqp_cache.Cache
module Ops = Taqp_relational.Ops
module Pool = Taqp_parallel.Pool
module Shard = Taqp_parallel.Shard

let bf_of_bytes ~block_bytes bytes = Int.max 1 (block_bytes / Int.max 1 bytes)
let xlog n = if n > 1.0 then n *. (log n /. log 2.0) else n
let pages ~bf n = ceil (Float.max 0.0 n /. float_of_int bf)

let sum_lengths arrays =
  List.fold_left (fun acc a -> acc + Array.length a) 0 arrays

let rec drop n l =
  if n <= 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl

let take n l = List.filteri (fun i _ -> i < n) l

type ctx = {
  device : Device.t;
  cost_model : Cost_model.t;
  pool : Pool.t option;
}

type slice = {
  cache : Cache.t;
  file : Heap_file.t;
  kind : Cache.unit_kind;
  lo : int;
  hi : int;
}

type leaf = { units : int list; per_unit : int; n_rows : int }

let iter_rows leaf f =
  let pos = ref 0 in
  List.iter
    (fun u ->
      let lo = u * leaf.per_unit in
      for row = lo to Int.min (lo + leaf.per_unit) leaf.n_rows - 1 do
        f !pos row;
        incr pos
      done)
    leaf.units;
  !pos

let gather_keys leaf cols ~n =
  let w = Array.length cols in
  let keys = Array.make (n * w) 0 in
  let rows =
    iter_rows leaf (fun pos row ->
        for c = 0 to w - 1 do
          keys.((pos * w) + c) <- cols.(c).(row)
        done)
  in
  if rows <> n then
    invalid_arg "Op_common.gather_keys: rows do not match the delta";
  keys

type binary = {
  op : [ `Join | `Intersect ];
  key_l : int array;
  key_r : int array;
  residual : (Tuple.t -> bool) option;
  residual_comparisons : int;
  full : bool;
  bf : int;
  mutable deltas_l : Tuple.t array list;
  mutable deltas_r : Tuple.t array list;
}

(* ------------------------------------------------------------------ *)
(* The compute helper (docs/PARALLELISM.md)

   Jobs are pure compute over immutable arrays: they never touch a
   Clock, Device, Prng, Cache or tracer, so where they run changes wall
   time only. Every charge is issued by the operator on this domain. *)

(* Below this many tuples of work, jobs run inline: fan-out overhead
   would dominate. Not semantics-bearing, since both placements give
   the same results; the bit-identity tests lower it to 1. *)
let threshold = ref 2048

let run ctx ~work jobs =
  match ctx.pool with
  | Some pool when work >= !threshold && Array.length jobs > 1 ->
      Pool.run pool jobs
  | Some _ | None -> Array.map (fun job -> job ()) jobs

let map_ranges ctx ~n f =
  let k =
    match ctx.pool with
    | Some pool when n >= !threshold -> 4 * Pool.size pool
    | Some _ | None -> 1
  in
  run ctx ~work:n
    (Array.map (fun (r : Shard.range) () -> f r.lo r.hi) (Shard.ranges ~n ~k))

(* ------------------------------------------------------------------ *)
(* Charging and observing                                              *)

let now ctx = Clock.now (Device.clock ctx.device)

let charge_output ctx ~bf n =
  Device.output_tuples ctx.device ~n;
  Device.write_pages ctx.device ~n:(int_of_float (pages ~bf (float_of_int n)))

let with_output ~bf (m : Formulas.measures) n =
  { m with Formulas.out_tuples = n; out_pages = pages ~bf n }

let observe ctx ~id m steps =
  List.iter
    (fun (step, seconds) ->
      Cost_model.observe_step ctx.cost_model ~id ~step m
        ~seconds:(Device.measure ctx.device seconds))
    steps
