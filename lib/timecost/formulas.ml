type op_kind =
  | Scan
  | Select
  | Join
  | Intersect
  | Hash_join
  | Hash_intersect
  | Project
  | Overhead

type step =
  | Step_read
  | Step_check
  | Step_write_temp
  | Step_sort
  | Step_merge
  | Step_hash_build
  | Step_hash_probe
  | Step_output
  | Step_fixed

type measures = {
  blocks : float;
  n_input : float;
  comparisons : float;
  temp_pages : float;
  nlogn : float;
  merge_reads : float;
  build_tuples : float;
  probe_tuples : float;
  out_tuples : float;
  out_pages : float;
  pairings : float;
}

let zero_measures =
  {
    blocks = 0.0;
    n_input = 0.0;
    comparisons = 0.0;
    temp_pages = 0.0;
    nlogn = 0.0;
    merge_reads = 0.0;
    build_tuples = 0.0;
    probe_tuples = 0.0;
    out_tuples = 0.0;
    out_pages = 0.0;
    pairings = 0.0;
  }

let steps = function
  | Scan -> [ Step_read ]
  | Select -> [ Step_check; Step_output ]
  | Join | Intersect -> [ Step_write_temp; Step_sort; Step_merge; Step_output ]
  | Hash_join | Hash_intersect ->
      [ Step_hash_build; Step_hash_probe; Step_output ]
  | Project -> [ Step_write_temp; Step_sort; Step_check; Step_output ]
  | Overhead -> [ Step_fixed ]

(* The one definition of every step's features: feature [i] of [step]
   on [m]. Inlined into [step_predict], so a prediction boxes no
   feature. *)
let[@inline] feature step m i =
  match (step, i) with
  | Step_read, 0 -> m.blocks
  | Step_read, _ -> 1.0
  | Step_check, 0 -> m.n_input
  | Step_check, _ -> m.n_input *. m.comparisons
  | Step_write_temp, 0 -> m.n_input
  | Step_write_temp, _ -> m.temp_pages
  | Step_sort, 0 -> m.nlogn
  | Step_sort, _ -> m.n_input
  | Step_merge, 0 -> m.merge_reads
  | Step_merge, _ -> m.pairings
  | Step_hash_build, 0 -> m.build_tuples
  | Step_hash_build, _ -> 1.0
  | Step_hash_probe, 0 -> m.probe_tuples
  | Step_hash_probe, _ -> m.out_tuples
  | Step_output, 0 -> m.out_tuples
  | Step_output, _ -> m.out_pages
  | Step_fixed, _ -> 1.0

let step_dim = function Step_fixed -> 1 | _ -> 2
let step_features step m = Array.init (step_dim step) (feature step m)

(* [Least_squares.predict]'s sum, term for term in its order, without
   building the feature array. *)
let step_predict step (c : float array) m =
  let acc = ref 0.0 in
  for i = 0 to step_dim step - 1 do
    acc := !acc +. (c.(i) *. feature step m i)
  done;
  !acc

(* Designer constants, per Section 5 calibrated against the largest
   tuples (1 KB) and richest formulas the prototype supports - i.e.
   roughly 1.8x pessimistic for the default 200-byte workloads, so an
   untrained query is over-budgeted rather than overspent. The run-time
   per-step fit brings them down within a stage or two. *)
let step_initial = function
  | Step_read -> [| 0.065; 0.004 |]
  | Step_check -> [| 0.0036; 0.0022 |]
  | Step_write_temp -> [| 0.0009; 0.027 |]
  | Step_sort -> [| 0.00045; 0.0015 |]
  | Step_merge -> [| 0.0022; 0.014 |]
  | Step_hash_build -> [| 0.0020; 0.002 |]
  | Step_hash_probe -> [| 0.0017; 0.0015 |]
  | Step_output -> [| 0.0014; 0.027 |]
  | Step_fixed -> [| 0.220 |]

let kind_name = function
  | Scan -> "scan"
  | Select -> "select"
  | Join -> "join"
  | Intersect -> "intersect"
  | Hash_join -> "hash-join"
  | Hash_intersect -> "hash-intersect"
  | Project -> "project"
  | Overhead -> "overhead"

let step_name = function
  | Step_read -> "read"
  | Step_check -> "check"
  | Step_write_temp -> "write-temp"
  | Step_sort -> "sort"
  | Step_merge -> "merge"
  | Step_hash_build -> "hash-build"
  | Step_hash_probe -> "hash-probe"
  | Step_output -> "output"
  | Step_fixed -> "fixed"

let pp_measures ppf m =
  Format.fprintf ppf
    "blocks=%g n=%g cmp=%g tpages=%g nlogn=%g merge=%g build=%g probe=%g \
     out=%g pages=%g pairings=%g"
    m.blocks m.n_input m.comparisons m.temp_pages m.nlogn m.merge_reads
    m.build_tuples m.probe_tuples m.out_tuples m.out_pages m.pairings
