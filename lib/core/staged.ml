module Tuple = Taqp_data.Tuple
module Schema = Taqp_data.Schema
module Prng = Taqp_rng.Prng
module Clock = Taqp_storage.Clock
module Device = Taqp_storage.Device
module Heap_file = Taqp_storage.Heap_file
module Catalog = Taqp_storage.Catalog
module Cost_params = Taqp_storage.Cost_params
module Ra = Taqp_relational.Ra
module Predicate = Taqp_relational.Predicate
module Ops = Taqp_relational.Ops
module Plan = Taqp_sampling.Plan
module Stage_set = Taqp_sampling.Stage_set
module Fulfillment = Taqp_sampling.Fulfillment
module Selectivity = Taqp_estimators.Selectivity
module Count_estimator = Taqp_estimators.Count_estimator
module Goodman = Taqp_estimators.Goodman
module Inclusion_exclusion = Taqp_estimators.Inclusion_exclusion
module Formulas = Taqp_timecost.Formulas
module Cost_model = Taqp_timecost.Cost_model
module Sel_plus = Taqp_timecontrol.Sel_plus
module Tracer = Taqp_obs.Tracer
module Event = Taqp_obs.Event
module Cache = Taqp_cache.Cache

exception Compile_error of string

let compile_error fmt = Fmt.kstr (fun s -> raise (Compile_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Data structures                                                     *)

(* Where a scan's sample units come from. [Src_shared g] reads
   consecutive offsets of the cross-query sample prefix (generation [g]
   at adoption); an invalidation bumps the generation and the scan
   demotes itself — permanently — to [Src_fallback], drawing from its
   own untouched PRNG stream, which is a valid without-replacement
   continuation of the sample it already holds. [Src_private] is the
   cache-off path, bit-identical to the pre-cache engine. *)
type cache_src = Src_private | Src_shared of int | Src_fallback

(* One per base relation: the shared sample stream all terms read. *)
type scan = {
  scan_id : int;
  relation : string;
  file : Heap_file.t;
  units : Stage_set.t;
  unit_kind : Plan.unit_kind;
  mutable cache_src : cache_src;
  mutable stage_tuples : int list;  (** newest first: tuples per stage *)
  mutable drawn_tuples : int;
  mutable last_delta : Tuple.t array;
  mutable last_unit_deltas : Tuple.t array list;  (** per drawn unit *)
}

type node = {
  id : int;
  schema : Schema.t;
  out_bytes : int;  (** estimated output tuple width, for page math *)
  sel : Selectivity.t;
  subtree_points : float;  (** product of leaf cardinalities below *)
  mutable cum_out : float;
  mutable cum_points : float;
  kind : kind;
}

and kind =
  | Leaf of scan
  | Select_node of {
      comparisons : int;
      test : Tuple.t -> bool;
      child : node;
    }
  | Project_node of {
      positions : int list;
      names : string list;
      child : node;
      groups : (Tuple.t, int ref) Hashtbl.t;
    }
  | Binary_node of binary

(* Both physical paths' retained state lives side by side: the raw
   per-stage deltas are always kept (they are in memory regardless),
   the sorted files and the hash indexes only as far as their path has
   run — [files_*] may lag [deltas_*] under the hash path and
   [hashed_*] may lag under the sort path, and whichever path runs
   next catches its state up first (the priced switching cost). *)
and binary = {
  op : [ `Join | `Intersect ];
  key_l : int array;
  key_r : int array;
  cmp_l : Tuple.t -> Tuple.t -> int;  (** precompiled sort order *)
  cmp_r : Tuple.t -> Tuple.t -> int;
  residual : Tuple.t -> bool;
  residual_comparisons : int;
  left : node;
  right : node;
  hash_id : int;  (** cost-model node of the hash path *)
  mutable files_l : Tuple.t array list;  (** oldest first, sorted *)
  mutable files_r : Tuple.t array list;
  mutable deltas_l : Tuple.t array list;  (** oldest first, raw *)
  mutable deltas_r : Tuple.t array list;
  hash_l : Ops.Hash_index.t;  (** retained index over [deltas_l] *)
  hash_r : Ops.Hash_index.t;
  mutable hashed_l : int;  (** how many deltas are in [hash_l] *)
  mutable hashed_r : int;
}

type term = {
  sign : int;
  root : node;
  leaf_scans : scan list;
  agg_pos : int option;  (** attribute position for Sum/Avg *)
  mutable moments : Aggregate.moments;
  mutable block_counts : float list;
      (** per-sampled-unit output counts y_i, newest first — tracked
          only under [Cluster_exact] for single-relation Select chains *)
}

type t = {
  config : Config.t;
  cost_model : Cost_model.t;
  aggregate : Aggregate.t;
  terms : term list;
  scans : scan list;  (** one per distinct base relation *)
  overhead_id : int;
  block_bytes : int;
  cache : Cache.t option;  (** shared cross-query cache, when attached *)
  pool : Taqp_parallel.Pool.t option;
      (** worker domains for per-stage compute; [None] = domains 1,
          the historical sequential code path verbatim *)
  mutable stage : int;  (** completed stages *)
  mutable last_estimate : Count_estimator.t option;
}

(* ------------------------------------------------------------------ *)
(* Parallel regions (docs/PARALLELISM.md)

   Heavy pure compute — predicate filters, delta sorts, pairing merges,
   index probes — fans out over the pool, while every Device charge is
   issued by this domain in exactly the order the sequential code
   issues it (same calls, same arguments). Virtual time, jitter draws,
   deadline crossings, traces and ledgers are therefore bit-identical
   at any domain count; only wall time changes. Workers never touch a
   Clock, Device, Prng, Cache or tracer. *)

(* Below this many tuples a region stays sequential: fan-out overhead
   would dominate. A wall-time knob only — both paths produce the same
   bytes, so the exact value is not semantics-bearing. Settable so the
   bit-identity tests can force the parallel regions on on test-sized
   fixtures. *)
let par_threshold = ref 2048
let set_parallel_threshold n = par_threshold := Int.max 0 n

let par_chunks pool n =
  Taqp_parallel.Shard.ranges ~n ~k:(4 * Taqp_parallel.Pool.size pool)

(* Chunked filter: each range filters in index order, chunks concat in
   range order — extensionally equal to [Seq.filter] over the array. *)
let par_filter pool test arr =
  let ranges = par_chunks pool (Array.length arr) in
  let chunks =
    Taqp_parallel.Pool.run pool
      (Array.map
         (fun (r : Taqp_parallel.Shard.range) () ->
           let out = ref [] in
           for i = r.hi - 1 downto r.lo do
             if test arr.(i) then out := arr.(i) :: !out
           done;
           Array.of_list !out)
         ranges)
  in
  Array.concat (Array.to_list chunks)

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)

let bf_of_bytes ~block_bytes bytes = Int.max 1 (block_bytes / Int.max 1 bytes)

let xlog n = if n > 1.0 then n *. (log n /. log 2.0) else n

let pages ~bf n = ceil (Float.max 0.0 n /. float_of_int bf)

(* Prestored selectivities (Figure 3.2): seed the record with an
   overwhelming pseudo-sample at the oracle's value, so the run-time
   revision barely moves it and its variance is negligible. *)
let oracle_seed = 1e12

let apply_oracle (config : Config.t) node expr =
  match config.selectivity_oracle with
  | None -> ()
  | Some oracle ->
      let sel = Float.max 0.0 (Float.min 1.0 (oracle expr)) in
      Selectivity.set_cumulative node.sel ~points:oracle_seed
        ~tuples:(sel *. oracle_seed)

let initial_sel (config : Config.t) op =
  let ov = config.initial_selectivities in
  match op with
  | `Select -> Option.value ov.select ~default:(Selectivity.initial_for `Select)
  | `Join -> Option.value ov.join ~default:(Selectivity.initial_for `Join)
  | `Project ->
      Option.value ov.project ~default:(Selectivity.initial_for `Project)
  | `Intersect (n1, n2) ->
      Option.value ov.intersect
        ~default:(Selectivity.initial_for (`Intersect (n1, n2)))

let make_binary ~op ~key_l ~key_r ~residual ~residual_comparisons ~left ~right
    ~hash_id =
  {
    op;
    key_l;
    key_r;
    cmp_l = Ops.key_comparator ~arity:(Schema.arity left.schema) key_l;
    cmp_r = Ops.key_comparator ~arity:(Schema.arity right.schema) key_r;
    residual;
    residual_comparisons;
    left;
    right;
    hash_id;
    files_l = [];
    files_r = [];
    deltas_l = [];
    deltas_r = [];
    hash_l = Ops.Hash_index.create ~key:key_l;
    hash_r = Ops.Hash_index.create ~key:key_r;
    hashed_l = 0;
    hashed_r = 0;
  }

let compile ?(aggregate = Aggregate.Count) ?cache ~catalog ~config ~rng
    ~cost_model expr =
  Config.validate config;
  let lookup name =
    Option.map Heap_file.schema (Catalog.find_opt catalog name)
  in
  (* Fail fast on type errors before any state is created. *)
  ignore (Ra.infer ~lookup expr);
  let signed_terms = Inclusion_exclusion.rewrite expr in
  let next_id = ref 0 in
  let fresh_id () =
    let id = !next_id in
    incr next_id;
    id
  in
  let block_bytes = 1024 in
  let scans : (string, scan) Hashtbl.t = Hashtbl.create 8 in
  let scan_for name =
    match Hashtbl.find_opt scans name with
    | Some s -> s
    | None ->
        let file =
          match Catalog.find_opt catalog name with
          | Some f -> f
          | None -> compile_error "unknown relation %s" name
        in
        let n_units =
          match (config.plan : Plan.t).unit_kind with
          | Plan.Cluster -> Heap_file.n_blocks file
          | Plan.Simple_random -> Heap_file.n_tuples file
        in
        let scan_id = fresh_id () in
        Cost_model.register cost_model ~id:scan_id Formulas.Scan;
        let s =
          {
            scan_id;
            relation = name;
            file;
            units = Stage_set.create ~n_units (Prng.split rng);
            unit_kind = (config.plan : Plan.t).unit_kind;
            cache_src =
              (match cache with
              | None -> Src_private
              | Some c -> Src_shared (Cache.generation c file));
            stage_tuples = [];
            drawn_tuples = 0;
            last_delta = [||];
            last_unit_deltas = [];
          }
        in
        Hashtbl.replace scans name s;
        s
  in
  let with_oracle expr node leaves =
    apply_oracle config node expr;
    (node, leaves)
  in
  let rec build (e : Ra.t) : node * scan list =
    match e with
    | Ra.Relation { name; alias } ->
        let scan = scan_for name in
        let schema =
          Schema.qualify
            (Option.value alias ~default:name)
            (Heap_file.schema scan.file)
        in
        let tuples = Heap_file.n_tuples scan.file in
        ( {
            id = fresh_id ();
            schema;
            out_bytes = Heap_file.tuple_bytes scan.file;
            sel = Selectivity.create ~initial:1.0;
            subtree_points = float_of_int tuples;
            cum_out = 0.0;
            cum_points = 0.0;
            kind = Leaf scan;
          },
          [ scan ] )
    | Ra.Select (pred, c) ->
        let child, leaves = build c in
        let id = fresh_id () in
        Cost_model.register cost_model ~id Formulas.Select;
        with_oracle e
          {
            id;
            schema = child.schema;
            out_bytes = child.out_bytes;
            sel = Selectivity.create ~initial:(initial_sel config `Select);
            subtree_points = child.subtree_points;
            cum_out = 0.0;
            cum_points = 0.0;
            kind =
              Select_node
                {
                  comparisons = Predicate.comparisons pred;
                  test = Predicate.compile child.schema pred;
                  child;
                };
          }
          leaves
    | Ra.Project (names, c) ->
        let child, leaves = build c in
        let id = fresh_id () in
        Cost_model.register cost_model ~id Formulas.Project;
        let schema = Schema.project child.schema names in
        let positions =
          List.map (Schema.find child.schema) names
        in
        let out_bytes =
          Int.max 8
            (child.out_bytes * List.length names
            / Int.max 1 (Schema.arity child.schema))
        in
        with_oracle e
          {
            id;
            schema;
            out_bytes;
            sel = Selectivity.create ~initial:(initial_sel config `Project);
            subtree_points = child.subtree_points;
            cum_out = 0.0;
            cum_points = 0.0;
            kind =
              Project_node { positions; names; child; groups = Hashtbl.create 256 };
          }
          leaves
    | Ra.Join (pred, l, r) ->
        let left, ll = build l in
        let right, rl = build r in
        let id = fresh_id () in
        Cost_model.register cost_model ~id Formulas.Join;
        let hash_id = fresh_id () in
        Cost_model.register cost_model ~id:hash_id Formulas.Hash_join;
        let schema = Schema.concat left.schema right.schema in
        let (key_l, key_r), residual_pred =
          Ops.split_equi_pairs ~schema_l:left.schema ~schema_r:right.schema pred
        in
        with_oracle e
          {
            id;
            schema;
            out_bytes = left.out_bytes + right.out_bytes;
            sel = Selectivity.create ~initial:(initial_sel config `Join);
            subtree_points = left.subtree_points *. right.subtree_points;
            cum_out = 0.0;
            cum_points = 0.0;
            kind =
              Binary_node
                (make_binary ~op:`Join ~key_l ~key_r
                   ~residual:(Predicate.compile schema residual_pred)
                   ~residual_comparisons:(Predicate.comparisons residual_pred)
                   ~left ~right ~hash_id);
          }
          (ll @ rl)
    | Ra.Intersect (l, r) ->
        let left, ll = build l in
        let right, rl = build r in
        let id = fresh_id () in
        Cost_model.register cost_model ~id Formulas.Intersect;
        let hash_id = fresh_id () in
        Cost_model.register cost_model ~id:hash_id Formulas.Hash_intersect;
        let arity = Schema.arity left.schema in
        let key = Array.init arity (fun i -> i) in
        let n1 = int_of_float (Float.min 1e9 left.subtree_points) in
        let n2 = int_of_float (Float.min 1e9 right.subtree_points) in
        with_oracle e
          {
            id;
            schema = left.schema;
            out_bytes = left.out_bytes;
            sel =
              Selectivity.create ~initial:(initial_sel config (`Intersect (n1, n2)));
            subtree_points = left.subtree_points *. right.subtree_points;
            cum_out = 0.0;
            cum_points = 0.0;
            kind =
              Binary_node
                (make_binary ~op:`Intersect ~key_l:key ~key_r:key
                   ~residual:(fun _ -> true)
                   ~residual_comparisons:0 ~left ~right ~hash_id);
          }
          (ll @ rl)
    | Ra.Union (_, _) | Ra.Difference (_, _) ->
        compile_error
          "union/difference survived the inclusion-exclusion rewrite"
  in
  let terms =
    List.map
      (fun (sign, e) ->
        let root, leaf_scans = build e in
        let agg_pos =
          match Aggregate.attr aggregate with
          | None -> None
          | Some name -> (
              (match root.kind with
              | Project_node _ ->
                  compile_error
                    "%s over a projection is not supported (no estimator \
                     for sums over distinct groups)"
                    (Aggregate.name aggregate)
              | Leaf _ | Select_node _ | Binary_node _ -> ());
              match Schema.find root.schema name with
              | i -> (
                  match Schema.ty_at root.schema i with
                  | Taqp_data.Value.Tint | Taqp_data.Value.Tfloat -> Some i
                  | Taqp_data.Value.Tstring | Taqp_data.Value.Tbool ->
                      compile_error "%s: attribute %s is not numeric"
                        (Aggregate.name aggregate) name)
              | exception Schema.Schema_error msg -> compile_error "%s" msg)
        in
        {
          sign;
          root;
          leaf_scans;
          agg_pos;
          moments = Aggregate.zero_moments;
          block_counts = [];
        })
      signed_terms
  in
  let overhead_id = fresh_id () in
  Cost_model.register cost_model ~id:overhead_id Formulas.Overhead;
  let scans =
    List.sort
      (fun a b -> String.compare a.relation b.relation)
      (Hashtbl.fold (fun _ s acc -> s :: acc) scans [])
  in
  let pool =
    if config.domains > 1 then
      Some (Taqp_parallel.Pool.global ~domains:config.domains)
    else None
  in
  {
    config;
    cost_model;
    aggregate;
    terms;
    scans;
    overhead_id;
    block_bytes;
    cache;
    pool;
    stage = 0;
    last_estimate = None;
  }

let term_count t = List.length t.terms
let stages_done t = t.stage
let exhausted t = List.for_all (fun s -> Stage_set.exhausted s.units) t.scans

let relations t =
  List.map (fun s -> (s.relation, Stage_set.n_units s.units)) t.scans

let total_points t =
  (* Points of the original expression: the first (positive) term's
     leaves span the un-rewritten expression's dimensions. *)
  match t.terms with
  | { root; _ } :: _ -> root.subtree_points
  | [] -> 0.0

let overhead_id t = t.overhead_id

let rec node_op_ids node acc =
  match node.kind with
  | Leaf _ -> acc
  | Select_node { child; _ } -> node_op_ids child (node.id :: acc)
  | Project_node { child; _ } -> node_op_ids child (node.id :: acc)
  | Binary_node { left; right; _ } ->
      node_op_ids left (node_op_ids right (node.id :: acc))

let op_ids t =
  List.sort Int.compare
    (List.fold_left (fun acc term -> node_op_ids term.root acc) [] t.terms)

(* ------------------------------------------------------------------ *)
(* Planning                                                            *)

type sel_mode =
  | Plain
  | Inflated of { d_beta : float; zero_beta : float }
  | Override of (int * float) list

type node_plan = {
  plan_id : int;
  plan_op_id : int;
  plan_kind : Formulas.op_kind;
  plan_measures : Formulas.measures;
  sel_used : float;
  sel_plain : float;
  sel_variance : float;
}

let units_for scan ~f =
  let remaining = Stage_set.remaining scan.units in
  if remaining = 0 then 0
  else
    let n = float_of_int (Stage_set.n_units scan.units) in
    Int.min remaining (Int.max 1 (int_of_float ((f *. n) +. 0.5)))

let tuples_per_unit scan =
  match scan.unit_kind with
  | Plan.Cluster -> Heap_file.blocking_factor scan.file
  | Plan.Simple_random -> 1

let predicted_new_tuples scan ~f =
  let k = units_for scan ~f in
  let cap = Heap_file.n_tuples scan.file - scan.drawn_tuples in
  Int.min cap (k * tuples_per_unit scan)

(* The cache keys a scan's prefix by its sampling-unit population. *)
let cache_kind scan =
  match scan.unit_kind with
  | Plan.Cluster -> Cache.Blocks
  | Plan.Simple_random -> Cache.Tuples

(* The cache to share units through, if the scan is (still) on the
   shared prefix. Checked at every use: an invalidation since adoption
   bumps the generation, and the scan demotes itself permanently — the
   new prefix stream could re-issue units it already drew. *)
let scan_cache t scan =
  match (t.cache, scan.cache_src) with
  | Some c, Src_shared g when Cache.generation c scan.file = g -> Some c
  | Some _, Src_shared _ ->
      scan.cache_src <- Src_fallback;
      None
  | _ -> None

(* Block reads the next stage would actually charge: on the shared
   prefix the unit identities are known in advance, so cached blocks
   can be netted out — this is what makes a plan (and the admission
   price built from it) cover only the *residual* sample a hit leaves
   to fetch. Off the prefix the units are not knowable before the
   draw, so every unit is priced as a read. *)
let predicted_scan_misses t scan ~f =
  let k = units_for scan ~f in
  match scan_cache t scan with
  | Some c ->
      Cache.predict_misses c ~file:scan.file ~kind:(cache_kind scan)
        ~lo:(Stage_set.drawn scan.units) ~k
  | None -> k

(* Per-stage new/cumulative sizes used by the Figure 4.5 pairing cost:
   sizes of each side's retained deltas, oldest first, with the
   predicted new file appended. Delta sizes — not [files_*] sizes —
   because the sorted files may lag the deltas under the hash path. *)
let file_sizes files = List.map Array.length files

let sum_lengths files =
  List.fold_left (fun acc a -> acc + Array.length a) 0 files

let rec drop n l =
  if n <= 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl

let choose_sel t node ~mode ~m_next =
  let plain = Selectivity.estimate node.sel in
  let n_remaining = Float.max 0.0 (node.subtree_points -. node.cum_points) in
  let variance = Selectivity.variance_srs node.sel ~m_next ~n_remaining in
  let used =
    match mode with
    | Plain -> plain
    | Override overrides -> (
        match List.assoc_opt node.id overrides with
        | Some s -> s
        | None -> plain)
    | Inflated { d_beta; zero_beta } ->
        Sel_plus.compute node.sel ~d_beta ~zero_beta ~m_next ~n_remaining
  in
  ignore t;
  (used, plain, variance)

(* ------------------------------------------------------------------ *)
(* Physical-path costing, shared by planning, execution and the
   adaptive selection so all three price exactly the same work. Every
   builder is evaluated against the operator's retained state *before*
   this stage's deltas are appended, with [nl]/[nr] the (predicted or
   actual) delta sizes. *)

let is_full t = (t.config.plan : Plan.t).fulfillment = Plan.Full

(* Deltas retained but not yet sorted into files (resp. inserted into
   the hash indexes): the catch-up work a switch onto that path must
   perform first, and therefore part of its price. *)
let unsorted_deltas b =
  ( drop (List.length b.files_l) b.deltas_l,
    drop (List.length b.files_r) b.deltas_r )

let unhashed_deltas b = (drop b.hashed_l b.deltas_l, drop b.hashed_r b.deltas_r)

let binary_pairings t b =
  Fulfillment.pairings_at_stage
    ~stages_l:(List.length b.deltas_l + 1)
    ~stage:(List.length b.deltas_r + 1)
    (if is_full t then `Full else `Partial)

let sort_measures t ~node b ~nl ~nr ~out_new =
  let bf = bf_of_bytes ~block_bytes:t.block_bytes node.out_bytes in
  let bf_l = bf_of_bytes ~block_bytes:t.block_bytes b.left.out_bytes in
  let bf_r = bf_of_bytes ~block_bytes:t.block_bytes b.right.out_bytes in
  let missing_l, missing_r = unsorted_deltas b in
  let add_files side_bf files acc =
    List.fold_left
      (fun (ni, tp, nn) file ->
        let n = float_of_int (Array.length file) in
        (ni +. n, tp +. pages ~bf:side_bf n, nn +. xlog n))
      acc files
  in
  let acc =
    ( nl +. nr,
      pages ~bf:bf_l nl +. pages ~bf:bf_r nr,
      xlog nl +. xlog nr )
  in
  let n_input, temp_pages, nlogn =
    add_files bf_r missing_r (add_files bf_l missing_l acc)
  in
  let sizes_l = file_sizes b.deltas_l @ [ int_of_float nl ] in
  let sizes_r = file_sizes b.deltas_r @ [ int_of_float nr ] in
  let pairings = binary_pairings t b in
  let size_at sizes i =
    match List.nth_opt sizes (i - 1) with
    | Some s -> float_of_int s
    | None -> 0.0
  in
  let merge_reads =
    List.fold_left
      (fun acc (i, j) -> acc +. size_at sizes_l i +. size_at sizes_r j)
      0.0 pairings
  in
  {
    Formulas.zero_measures with
    Formulas.n_input;
    temp_pages;
    nlogn;
    merge_reads;
    out_tuples = out_new;
    out_pages = pages ~bf out_new;
    pairings = float_of_int (List.length pairings);
  }

let hash_measures t ~node b ~nl ~nr ~out_new =
  let bf = bf_of_bytes ~block_bytes:t.block_bytes node.out_bytes in
  let build_tuples, probe_tuples =
    if is_full t then begin
      let miss_l, miss_r = unhashed_deltas b in
      let catch_up = float_of_int (sum_lengths miss_l + sum_lengths miss_r) in
      (catch_up +. nl +. nr, nl +. nr)
    end
    else (* transient per-stage index: build left delta, probe right *)
      (nl, nr)
  in
  {
    Formulas.zero_measures with
    Formulas.build_tuples;
    probe_tuples;
    out_tuples = out_new;
    out_pages = pages ~bf out_new;
  }

let choose_path t ~node b ~nl ~nr ~out_guess =
  match t.config.physical with
  | Config.Sort_merge -> `Sort
  | Config.Hash -> `Hash
  | Config.Adaptive ->
      let sort_cost =
        Cost_model.predict t.cost_model ~id:node.id
          (sort_measures t ~node b ~nl ~nr ~out_new:out_guess)
      in
      let hash_cost =
        Cost_model.predict t.cost_model ~id:b.hash_id
          (hash_measures t ~node b ~nl ~nr ~out_new:out_guess)
      in
      if hash_cost < sort_cost then `Hash else `Sort

(* Returns (plans for this subtree, predicted new output tuples,
   cumulative output tuples so far). *)
let rec plan_node t ~f ~mode node : node_plan list * float * float =
  let bf = bf_of_bytes ~block_bytes:t.block_bytes node.out_bytes in
  match node.kind with
  | Leaf scan ->
      ([], float_of_int (predicted_new_tuples scan ~f), float_of_int scan.drawn_tuples)
  | Select_node { comparisons; child; _ } ->
      let plans, n_new, _ = plan_node t ~f ~mode child in
      let sel_used, sel_plain, sel_variance =
        choose_sel t node ~mode ~m_next:n_new
      in
      let out_new = sel_used *. n_new in
      let measures =
        {
          Formulas.zero_measures with
          Formulas.n_input = n_new;
          comparisons = float_of_int comparisons;
          out_tuples = out_new;
          out_pages = pages ~bf out_new;
        }
      in
      ( plans
        @ [
            {
              plan_id = node.id;
              plan_op_id = node.id;
              plan_kind = Formulas.Select;
              plan_measures = measures;
              sel_used;
              sel_plain;
              sel_variance;
            };
          ],
        out_new,
        node.cum_out )
  | Project_node { child; _ } ->
      let plans, n_new, _ = plan_node t ~f ~mode child in
      let sel_used, sel_plain, sel_variance =
        choose_sel t node ~mode ~m_next:n_new
      in
      let out_new = sel_used *. n_new in
      let measures =
        {
          Formulas.zero_measures with
          Formulas.n_input = n_new;
          temp_pages = pages ~bf n_new;
          nlogn = xlog n_new;
          out_tuples = out_new;
          out_pages = pages ~bf out_new;
        }
      in
      ( plans
        @ [
            {
              plan_id = node.id;
              plan_op_id = node.id;
              plan_kind = Formulas.Project;
              plan_measures = measures;
              sel_used;
              sel_plain;
              sel_variance;
            };
          ],
        out_new,
        node.cum_out )
  | Binary_node b ->
      let plans_l, nl, cum_l = plan_node t ~f ~mode b.left in
      let plans_r, nr, cum_r = plan_node t ~f ~mode b.right in
      let full = is_full t in
      let points_new =
        if full then (nl *. (cum_r +. nr)) +. (cum_l *. nr) else nl *. nr
      in
      let sel_used, sel_plain, sel_variance =
        choose_sel t node ~mode ~m_next:points_new
      in
      let out_new = sel_used *. points_new in
      (* Price whichever physical path will run: the plan entry carries
         that path's cost-model id, kind and measures, so QCOST and the
         executor's gradients see the work the stage will actually do. *)
      let plan_id, plan_kind, plan_measures =
        match (choose_path t ~node b ~nl ~nr ~out_guess:out_new, b.op) with
        | `Sort, `Join ->
            (node.id, Formulas.Join, sort_measures t ~node b ~nl ~nr ~out_new)
        | `Sort, `Intersect ->
            ( node.id,
              Formulas.Intersect,
              sort_measures t ~node b ~nl ~nr ~out_new )
        | `Hash, `Join ->
            ( b.hash_id,
              Formulas.Hash_join,
              hash_measures t ~node b ~nl ~nr ~out_new )
        | `Hash, `Intersect ->
            ( b.hash_id,
              Formulas.Hash_intersect,
              hash_measures t ~node b ~nl ~nr ~out_new )
      in
      ( plans_l @ plans_r
        @ [
            {
              plan_id;
              plan_op_id = node.id;
              plan_kind;
              plan_measures;
              sel_used;
              sel_plain;
              sel_variance;
            };
          ],
        out_new,
        node.cum_out )

let plan t ~f ~mode =
  if f <= 0.0 || f > 1.0 then invalid_arg "Staged.plan: f outside (0,1]";
  let scan_plans =
    List.map
      (fun scan ->
        {
          plan_id = scan.scan_id;
          plan_op_id = scan.scan_id;
          plan_kind = Formulas.Scan;
          plan_measures =
            {
              Formulas.zero_measures with
              Formulas.blocks = float_of_int (predicted_scan_misses t scan ~f);
            };
          sel_used = 1.0;
          sel_plain = 1.0;
          sel_variance = 0.0;
        })
      t.scans
  in
  let term_plans =
    List.concat_map
      (fun term ->
        let plans, _, _ = plan_node t ~f ~mode term.root in
        plans)
      t.terms
  in
  let overhead =
    {
      plan_id = t.overhead_id;
      plan_op_id = t.overhead_id;
      plan_kind = Formulas.Overhead;
      plan_measures = Formulas.zero_measures;
      sel_used = 1.0;
      sel_plain = 1.0;
      sel_variance = 0.0;
    }
  in
  scan_plans @ term_plans @ [ overhead ]

let predicted_cost t ~f ~mode =
  Cost_model.total t.cost_model
    (List.map (fun p -> (p.plan_id, p.plan_measures)) (plan t ~f ~mode))

(* ------------------------------------------------------------------ *)
(* Stage execution                                                     *)

type stage_result = {
  new_units : (string * int) list;
  estimate : Count_estimator.t;
  op_snapshots : Report.op_snapshot list;
  nodes_elapsed : float;
  scans_elapsed : float;
}

(* Serve one block through the shared cache when one is attached: a hit
   charges the probe price instead of the read, a miss does the real
   read and retains the contents (a fault raised mid-read propagates
   before the insert, so a failed fill never poisons the store). The
   block store is content-keyed, so it serves fallback scans too — only
   the *unit choice* needs the shared prefix, not the block cache.
   Returns the tuples plus whether it missed; with no cache the miss
   path is exactly the pre-cache read. *)
let cached_block t device file b =
  match t.cache with
  | None -> (Heap_file.read_block device file b, true)
  | Some c -> (
      match Cache.find_block c ~file b with
      | Some tuples ->
          Device.cache_probe device;
          (tuples, false)
      | None ->
          let tuples = Heap_file.read_block device file b in
          Cache.store_block c ~file b
            ~cost:(Device.params device).Cost_params.block_read tuples;
          (tuples, true))

let read_units t device scan unit_ids =
  let misses = ref 0 in
  let fetch b =
    let tuples, missed = cached_block t device scan.file b in
    if missed then incr misses;
    tuples
  in
  let per_unit =
    match scan.unit_kind with
    | Plan.Cluster -> List.map fetch unit_ids
    | Plan.Simple_random ->
        let bf = Heap_file.blocking_factor scan.file in
        List.map
          (fun tuple_idx -> [| (fetch (tuple_idx / bf)).(tuple_idx mod bf) |])
          unit_ids
  in
  scan.last_unit_deltas <- per_unit;
  (Array.concat per_unit, !misses)

let draw_and_scan t device ~f =
  let tracer = Device.tracer device in
  List.filter_map
    (fun scan ->
      let k = units_for scan ~f in
      if k = 0 then begin
        scan.last_delta <- [||];
        scan.last_unit_deltas <- [];
        scan.stage_tuples <- 0 :: scan.stage_tuples;
        None
      end
      else begin
        (* [t0] prices the read for the cost model and is always
           virtual; the span is stamped by the tracer's own clock *)
        let t0 = Clock.now (Device.clock device) in
        let span_t0 = Tracer.now tracer in
        let unit_ids =
          match scan_cache t scan with
          | Some c ->
              let fresh =
                Cache.prefix_units c ~file:scan.file ~kind:(cache_kind scan)
                  ~lo:(Stage_set.drawn scan.units) ~k
              in
              Stage_set.record_stage scan.units fresh;
              fresh
          | None -> Stage_set.draw_stage scan.units ~k
        in
        let tuples, misses = read_units t device scan unit_ids in
        scan.last_delta <- tuples;
        scan.stage_tuples <- Array.length tuples :: scan.stage_tuples;
        scan.drawn_tuples <- scan.drawn_tuples + Array.length tuples;
        let t1 = Clock.now (Device.clock device) in
        if Tracer.enabled tracer then
          Tracer.complete tracer ~cat:"scan" ~begin_ts:span_t0
            ("scan:" ^ scan.relation)
            ~args:
              [
                ("units", Event.Int (List.length unit_ids));
                ("tuples", Event.Int (Array.length tuples));
              ];
        (* [misses] equals the unit count on the cache-off path, so the
           fitted read rate stays the price of a *real* block read; on
           a cached run both the plan and the observation count only
           the residual reads a hit leaves to pay. *)
        Cost_model.observe_step t.cost_model ~id:scan.scan_id
          ~step:Formulas.Step_read
          {
            Formulas.zero_measures with
            Formulas.blocks = float_of_int misses;
          }
          ~seconds:(Device.measure device (t1 -. t0));
        Some (scan.relation, List.length unit_ids)
      end)
    t.scans

(* A sorted run or hash index over a leaf-fed side's stage delta is
   shared-cacheable: on the shared prefix the delta is a deterministic
   function of (relation, generation, unit kind, offset slice), so any
   job whose stage covers the same slice rebuilds the identical
   summary — serving the retained one instead is pure savings. The
   physical-identity check against [last_delta] pins the delta to the
   scan's most recent draw (a select or earlier binary in between
   changes the tuples, and a zero-draw stage leaves an empty delta). *)
let leaf_slice t node delta =
  match node.kind with
  | Leaf scan when delta == scan.last_delta && Array.length delta > 0 -> (
      match scan_cache t scan with
      | Some c ->
          let hi = Stage_set.drawn scan.units in
          let lo =
            hi - Stage_set.stage_size scan.units (Stage_set.stages scan.units)
          in
          Some (c, scan, lo, hi)
      | None -> None)
  | _ -> None

let node_label node =
  match node.kind with
  | Leaf scan -> "scan:" ^ scan.relation
  | Select_node _ -> "select"
  | Project_node _ -> "project"
  | Binary_node { op = `Join; _ } -> "join"
  | Binary_node { op = `Intersect; _ } -> "intersect"

(* Evaluate a node's stage delta; children first, own work timed and
   fed back to the cost model and selectivity records. [eval_node]
   wraps the real evaluator in an operator-category span (children
   recurse through the wrapper, so the span tree mirrors the operator
   tree); tuples-in is the number of sample-space points this stage
   added under the node, tuples-out the delta it produced. *)
let rec eval_node t device node : Tuple.t array =
  let tracer = Device.tracer device in
  if not (Tracer.enabled tracer) then eval_node_body t device node
  else begin
    let label = node_label node in
    let points_before = node.cum_points in
    Tracer.span_begin tracer ~cat:"operator" label
      ~args:[ ("node", Event.Int node.id) ];
    match eval_node_body t device node with
    | out ->
        Tracer.span_end tracer ~cat:"operator" label
          ~args:
            [
              ("node", Event.Int node.id);
              ("tuples_in", Event.Float (node.cum_points -. points_before));
              ("tuples_out", Event.Int (Array.length out));
              ("sel", Event.Float (Selectivity.estimate node.sel));
            ];
        out
    | exception e ->
        Tracer.span_end tracer ~cat:"operator" label
          ~args:[ ("node", Event.Int node.id); ("aborted", Event.Bool true) ];
        raise e
  end

and eval_node_body t device node : Tuple.t array =
  let clock = Device.clock device in
  let bf = bf_of_bytes ~block_bytes:t.block_bytes node.out_bytes in
  let charge_out n =
    Device.output_tuples device ~n;
    Device.write_pages device ~n:(int_of_float (pages ~bf (float_of_int n)))
  in
  match node.kind with
  | Leaf scan ->
      let n = float_of_int (Array.length scan.last_delta) in
      node.cum_out <- node.cum_out +. n;
      node.cum_points <- node.cum_points +. n;
      scan.last_delta
  | Select_node { comparisons; test; child } ->
      let delta_in = eval_node t device child in
      let t0 = Clock.now clock in
      Device.check_tuples device ~n:(Array.length delta_in) ~comparisons;
      let out =
        match t.pool with
        | Some pool when Array.length delta_in >= !par_threshold ->
            par_filter pool test delta_in
        | _ -> Array.of_seq (Seq.filter test (Array.to_seq delta_in))
      in
      let t1 = Clock.now clock in
      charge_out (Array.length out);
      let t2 = Clock.now clock in
      let n_in = float_of_int (Array.length delta_in) in
      let n_out = float_of_int (Array.length out) in
      Selectivity.observe node.sel ~points:n_in ~tuples:n_out;
      node.cum_points <- node.cum_points +. n_in;
      node.cum_out <- node.cum_out +. n_out;
      let m =
        {
          Formulas.zero_measures with
          Formulas.n_input = n_in;
          comparisons = float_of_int comparisons;
          out_tuples = n_out;
          out_pages = pages ~bf n_out;
        }
      in
      Cost_model.observe_step t.cost_model ~id:node.id ~step:Formulas.Step_check
        m ~seconds:(Device.measure device (t1 -. t0));
      Cost_model.observe_step t.cost_model ~id:node.id ~step:Formulas.Step_output
        m ~seconds:(Device.measure device (t2 -. t1));
      out
  | Project_node { positions; child; groups; _ } ->
      let delta_in = eval_node t device child in
      let t0 = Clock.now clock in
      let n_in = Array.length delta_in in
      (* Figure 4.7 steps 1-3 on the new tuples. *)
      let projected = Array.map (fun tp -> Tuple.project tp positions) delta_in in
      Device.write_temp_tuples device ~n:n_in;
      Device.write_pages device ~n:(int_of_float (pages ~bf (float_of_int n_in)));
      let t1 = Clock.now clock in
      Device.sort device ~n:n_in;
      let t2 = Clock.now clock in
      Device.merge_tuples device ~n:n_in;
      let fresh = ref [] in
      Array.iter
        (fun tp ->
          match Hashtbl.find_opt groups tp with
          | Some count -> incr count
          | None ->
              Hashtbl.replace groups tp (ref 1);
              fresh := tp :: !fresh)
        projected;
      let t3 = Clock.now clock in
      let out = Array.of_list (List.rev !fresh) in
      charge_out (Array.length out);
      let t4 = Clock.now clock in
      node.cum_points <- node.cum_points +. float_of_int n_in;
      node.cum_out <- float_of_int (Hashtbl.length groups);
      Selectivity.set_cumulative node.sel ~points:node.cum_points
        ~tuples:node.cum_out;
      let m =
        {
          Formulas.zero_measures with
          Formulas.n_input = float_of_int n_in;
          temp_pages = pages ~bf (float_of_int n_in);
          nlogn = xlog (float_of_int n_in);
          out_tuples = float_of_int (Array.length out);
          out_pages = pages ~bf (float_of_int (Array.length out));
        }
      in
      let ob step seconds =
        Cost_model.observe_step t.cost_model ~id:node.id ~step m
          ~seconds:(Device.measure device seconds)
      in
      ob Formulas.Step_write_temp (t1 -. t0);
      ob Formulas.Step_sort (t2 -. t1);
      ob Formulas.Step_check (t3 -. t2);
      ob Formulas.Step_output (t4 -. t3);
      out
  | Binary_node b ->
      let delta_l = eval_node t device b.left in
      let delta_r = eval_node t device b.right in
      let cum_l_prev = sum_lengths b.deltas_l in
      let cum_r_prev = sum_lengths b.deltas_r in
      let nl = float_of_int (Array.length delta_l) in
      let nr = float_of_int (Array.length delta_r) in
      let full = is_full t in
      let points_new =
        if full then
          (nl *. float_of_int cum_r_prev)
          +. (float_of_int cum_l_prev *. nr)
          +. (nl *. nr)
        else nl *. nr
      in
      let out_guess =
        Float.max 0.0 (Selectivity.estimate node.sel *. points_new)
      in
      let path = choose_path t ~node b ~nl ~nr ~out_guess in
      let out =
        match path with
        | `Sort ->
            (* Figure 4.4/4.6: temp-write and sort this stage's deltas
               (plus any deltas a hash stage left unsorted — catch-up),
               then one merge pass per Figure 4.5 pairing. Measures are
               taken before the retained state mutates so they match
               what [sort_measures] promised the planner. *)
            let m0 = sort_measures t ~node b ~nl ~nr ~out_new:0.0 in
            let pairings = binary_pairings t b in
            let bf_l = bf_of_bytes ~block_bytes:t.block_bytes b.left.out_bytes in
            let bf_r = bf_of_bytes ~block_bytes:t.block_bytes b.right.out_bytes in
            let missing_l, missing_r = unsorted_deltas b in
            let t0 = Clock.now clock in
            let write_side side_bf arr =
              Device.write_temp_tuples device ~n:(Array.length arr);
              Device.write_pages device
                ~n:
                  (int_of_float
                     (pages ~bf:side_bf (float_of_int (Array.length arr))))
            in
            List.iter (write_side bf_l) missing_l;
            List.iter (write_side bf_r) missing_r;
            write_side bf_l delta_l;
            write_side bf_r delta_r;
            let t1 = Clock.now clock in
            let sort_with cmp arr =
              Device.sort device ~n:(Array.length arr);
              let s = Array.copy arr in
              Array.sort cmp s;
              s
            in
            (* This stage's delta sorts go through the shared cache
               when the side is a leaf on the shared prefix: a hit
               charges one probe instead of the sort. Catch-up sorts of
               older deltas keep the plain path — their slices are
               job-specific. The runs are never mutated after this
               point, so sharing one array across jobs is safe. *)
            let sorted_delta side key cmp arr =
              match leaf_slice t side arr with
              | None -> sort_with cmp arr
              | Some (c, scan, lo, hi) -> (
                  let kind = cache_kind scan in
                  match
                    Cache.find_sorted_run c ~file:scan.file ~kind ~lo ~hi ~key
                  with
                  | Some run ->
                      Device.cache_probe device;
                      run
                  | None ->
                      let s = sort_with cmp arr in
                      let p = Device.params device in
                      let fn = float_of_int (Array.length arr) in
                      Cache.store_sorted_run c ~file:scan.file ~kind ~lo ~hi
                        ~key
                        ~cost:
                          ((p.Cost_params.sort_per_nlogn *. xlog fn)
                          +. (p.Cost_params.sort_per_tuple *. fn))
                        s;
                      s)
            in
            let sorted_l, sorted_r =
              let sort_tuples =
                List.fold_left
                  (fun acc a -> acc + Array.length a)
                  (Array.length delta_l + Array.length delta_r)
                  (missing_l @ missing_r)
              in
              match t.pool with
              | Some pool when t.cache = None && sort_tuples >= !par_threshold ->
                  (* The sorts are independent whole-array jobs, so they
                     fan out as-is (never splitting one sort — Array.sort
                     is not stable, but the same array under the same
                     comparator is deterministic). Charges are replayed
                     up front in the sequential call order; gated on no
                     cache because [sorted_delta] interleaves cache
                     probes with the charges. *)
                  let jobs =
                    Array.concat
                      [
                        Array.of_list
                          (List.map (fun a -> (b.cmp_l, a)) missing_l);
                        Array.of_list
                          (List.map (fun a -> (b.cmp_r, a)) missing_r);
                        [| (b.cmp_l, delta_l); (b.cmp_r, delta_r) |];
                      ]
                  in
                  Array.iter
                    (fun (_, a) -> Device.sort device ~n:(Array.length a))
                    jobs;
                  let sorted =
                    Taqp_parallel.Pool.run pool
                      (Array.map
                         (fun (cmp, a) () ->
                           let s = Array.copy a in
                           Array.sort cmp s;
                           s)
                         jobs)
                  in
                  let n_ml = List.length missing_l in
                  let n_mr = List.length missing_r in
                  b.files_l <-
                    b.files_l @ Array.to_list (Array.sub sorted 0 n_ml);
                  b.files_r <-
                    b.files_r @ Array.to_list (Array.sub sorted n_ml n_mr);
                  (sorted.(n_ml + n_mr), sorted.(n_ml + n_mr + 1))
              | _ ->
                  b.files_l <- b.files_l @ List.map (sort_with b.cmp_l) missing_l;
                  b.files_r <- b.files_r @ List.map (sort_with b.cmp_r) missing_r;
                  ( sorted_delta b.left b.key_l b.cmp_l delta_l,
                    sorted_delta b.right b.key_r b.cmp_r delta_r )
            in
            let t2 = Clock.now clock in
            b.files_l <- b.files_l @ [ sorted_l ];
            b.files_r <- b.files_r @ [ sorted_r ];
            let file_at files i = List.nth files (i - 1) in
            let out = ref [] in
            let merge_reads = ref 0 in
            let pair_files =
              Array.of_list
                (List.map
                   (fun (i, j) -> (file_at b.files_l i, file_at b.files_r j))
                   pairings)
            in
            let pair_tuples =
              Array.fold_left
                (fun acc (fl, fr) -> acc + Array.length fl + Array.length fr)
                0 pair_files
            in
            (match t.pool with
            | Some pool
              when Array.length pair_files > 1 && pair_tuples >= !par_threshold
              ->
                (* Each pairing merges on a worker with no device; the
                   master then replays the identical charge sequence —
                   merge_setup, merge_tuples |fl|+|fr|, one residual
                   check per candidate — in pairing order. The counted
                   variants report exactly how many candidate checks
                   the sequential merge would have charged. *)
                let computed =
                  Taqp_parallel.Pool.run pool
                    (Array.map
                       (fun (fl, fr) () ->
                         match b.op with
                         | `Join ->
                             Ops.merge_join_counted ~key_l:b.key_l
                               ~key_r:b.key_r ~residual:b.residual fl fr
                         | `Intersect ->
                             (Ops.merge_sorted_intersect fl fr, 0))
                       pair_files)
                in
                Array.iteri
                  (fun idx (produced, candidates) ->
                    let fl, fr = pair_files.(idx) in
                    Device.merge_setup device;
                    merge_reads :=
                      !merge_reads + Array.length fl + Array.length fr;
                    Device.merge_tuples device
                      ~n:(Array.length fl + Array.length fr);
                    for _ = 1 to candidates do
                      Device.check_tuples device ~n:1
                        ~comparisons:b.residual_comparisons
                    done;
                    out := List.rev_append produced !out)
                  computed
            | _ ->
                Array.iter
                  (fun (fl, fr) ->
                    Device.merge_setup device;
                    merge_reads :=
                      !merge_reads + Array.length fl + Array.length fr;
                    let produced =
                      match b.op with
                      | `Join ->
                          Ops.merge_sorted_join ~device ~key_l:b.key_l
                            ~key_r:b.key_r ~residual:b.residual
                            ~residual_comparisons:b.residual_comparisons fl fr
                      | `Intersect -> Ops.merge_sorted_intersect ~device fl fr
                    in
                    out := List.rev_append produced !out)
                  pair_files);
            let t3 = Clock.now clock in
            let out = Array.of_list (List.rev !out) in
            charge_out (Array.length out);
            let t4 = Clock.now clock in
            let n_out = float_of_int (Array.length out) in
            let m =
              {
                m0 with
                Formulas.merge_reads = float_of_int !merge_reads;
                out_tuples = n_out;
                out_pages = pages ~bf n_out;
              }
            in
            let ob step seconds =
              Cost_model.observe_step t.cost_model ~id:node.id ~step m
                ~seconds:(Device.measure device seconds)
            in
            ob Formulas.Step_write_temp (t1 -. t0);
            ob Formulas.Step_sort (t2 -. t1);
            ob Formulas.Step_merge (t3 -. t2);
            ob Formulas.Step_output (t4 -. t3);
            out
        | `Hash ->
            (* Incremental hash path: no temp files, no sorts, no
               re-reading of old sample units. Under full fulfillment
               the symmetric-hash order — probe the left delta against
               the old right index, insert it, probe the right delta
               against the now-current left index, insert it — covers
               exactly the full-fulfillment new point space
               nl*cum_r + cum_l*nr + nl*nr. Build and probe time are
               accumulated separately (they interleave) and observed
               into the hash path's own cost-model node. *)
            let m0 = hash_measures t ~node b ~nl ~nr ~out_new:0.0 in
            let build_s = ref 0.0 and probe_s = ref 0.0 in
            let timed acc f =
              let s = Clock.now clock in
              let r = f () in
              acc := !acc +. (Clock.now clock -. s);
              r
            in
            let probe_with index ~probe_key ~indexed_side probes =
              match t.pool with
              | Some pool when Array.length probes >= !par_threshold ->
                  (* The index is read-only during a probe, so disjoint
                     probe chunks fan out; chunk outputs concatenate in
                     chunk order = probe order. The master replays the
                     one hash_probe entry charge plus the per-candidate
                     checks the sequential probe would have made. *)
                  let chunks =
                    Taqp_parallel.Pool.run pool
                      (Array.map
                         (fun (r : Taqp_parallel.Shard.range) () ->
                           let sub =
                             Array.sub probes r.lo (r.hi - r.lo)
                           in
                           match (b.op, indexed_side) with
                           | `Join, _ ->
                               Ops.probe_join_counted ~index ~probe_key
                                 ~indexed_side ~residual:b.residual sub
                           | `Intersect, `Left ->
                               ( Ops.hash_probe_intersect ~index
                                   ~emit_side:`Indexed sub,
                                 0 )
                           | `Intersect, `Right ->
                               ( Ops.hash_probe_intersect ~index
                                   ~emit_side:`Probe sub,
                                 0 ))
                         (par_chunks pool (Array.length probes)))
                  in
                  Device.hash_probe device ~n:(Array.length probes);
                  Array.iter
                    (fun (_, candidates) ->
                      for _ = 1 to candidates do
                        Device.check_tuples device ~n:1
                          ~comparisons:b.residual_comparisons
                      done)
                    chunks;
                  List.concat_map fst (Array.to_list chunks)
              | _ -> (
                  match (b.op, indexed_side) with
                  | `Join, _ ->
                      Ops.hash_probe_join ~device ~index ~probe_key
                        ~indexed_side ~residual:b.residual
                        ~residual_comparisons:b.residual_comparisons probes
                  | `Intersect, `Left ->
                      Ops.hash_probe_intersect ~device ~index
                        ~emit_side:`Indexed probes
                  | `Intersect, `Right ->
                      Ops.hash_probe_intersect ~device ~index
                        ~emit_side:`Probe probes)
            in
            let produced =
              if full then begin
                let miss_l, miss_r = unhashed_deltas b in
                timed build_s (fun () ->
                    List.iter (Ops.Hash_index.add ~device b.hash_l) miss_l;
                    List.iter (Ops.Hash_index.add ~device b.hash_r) miss_r);
                b.hashed_l <- List.length b.deltas_l;
                b.hashed_r <- List.length b.deltas_r;
                let out_l =
                  timed probe_s (fun () ->
                      probe_with b.hash_r ~probe_key:b.key_l
                        ~indexed_side:`Right delta_l)
                in
                timed build_s (fun () ->
                    Ops.Hash_index.add ~device b.hash_l delta_l);
                b.hashed_l <- b.hashed_l + 1;
                let out_r =
                  timed probe_s (fun () ->
                      probe_with b.hash_l ~probe_key:b.key_r ~indexed_side:`Left
                        delta_r)
                in
                timed build_s (fun () ->
                    Ops.Hash_index.add ~device b.hash_r delta_r);
                b.hashed_r <- b.hashed_r + 1;
                List.rev_append (List.rev out_l) out_r
              end
              else begin
                (* Partial fulfillment evaluates only delta x delta: a
                   transient index, nothing retained by the node — but
                   shared-cacheable when the left side is a leaf on the
                   shared prefix, since any job staging the same slice
                   builds the identical index. Cached indexes are only
                   ever probed, never added to. *)
                let index =
                  match leaf_slice t b.left delta_l with
                  | None ->
                      let index = Ops.Hash_index.create ~key:b.key_l in
                      timed build_s (fun () ->
                          Ops.Hash_index.add ~device index delta_l);
                      index
                  | Some (c, scan, lo, hi) -> (
                      let kind = cache_kind scan in
                      match
                        Cache.find_hash_index c ~file:scan.file ~kind ~lo ~hi
                          ~key:b.key_l
                      with
                      | Some index ->
                          timed build_s (fun () -> Device.cache_probe device);
                          index
                      | None ->
                          let index = Ops.Hash_index.create ~key:b.key_l in
                          timed build_s (fun () ->
                              Ops.Hash_index.add ~device index delta_l);
                          let p = Device.params device in
                          Cache.store_hash_index c ~file:scan.file ~kind ~lo
                            ~hi ~key:b.key_l
                            ~cost:
                              (float_of_int (Array.length delta_l)
                              *. p.Cost_params.hash_build_per_tuple)
                            index;
                          index)
                in
                timed probe_s (fun () ->
                    probe_with index ~probe_key:b.key_r ~indexed_side:`Left
                      delta_r)
              end
            in
            let out = Array.of_list produced in
            let t_o0 = Clock.now clock in
            charge_out (Array.length out);
            let t_o1 = Clock.now clock in
            let n_out = float_of_int (Array.length out) in
            let m =
              { m0 with Formulas.out_tuples = n_out; out_pages = pages ~bf n_out }
            in
            let ob step seconds =
              Cost_model.observe_step t.cost_model ~id:b.hash_id ~step m
                ~seconds:(Device.measure device seconds)
            in
            ob Formulas.Step_hash_build !build_s;
            ob Formulas.Step_hash_probe !probe_s;
            ob Formulas.Step_output (t_o1 -. t_o0);
            out
      in
      b.deltas_l <- b.deltas_l @ [ delta_l ];
      b.deltas_r <- b.deltas_r @ [ delta_r ];
      let n_out = float_of_int (Array.length out) in
      Selectivity.observe node.sel ~points:points_new ~tuples:n_out;
      node.cum_points <- node.cum_points +. points_new;
      node.cum_out <- node.cum_out +. n_out;
      out

(* ------------------------------------------------------------------ *)
(* Estimation                                                          *)

(* A single-relation Select chain: the shape for which the exact
   cluster variance is implemented. Returns the scan, the predicate
   tests bottom-up, and the select nodes (for design-effect feedback). *)
let rec select_chain node =
  match node.kind with
  | Leaf scan -> Some (scan, [], [])
  | Select_node { test; child; _ } ->
      Option.map
        (fun (scan, tests, nodes) -> (scan, tests @ [ test ], nodes @ [ node ]))
        (select_chain child)
  | Project_node _ | Binary_node _ -> None

let count_through_chain tests tuples =
  Array.fold_left
    (fun acc tuple -> if List.for_all (fun test -> test tuple) tests then acc + 1 else acc)
    0 tuples

(* After a stage, refresh the term's per-block output counts and feed
   the measured design effect into the chain's selectivity records.
   Charges the sorting/bookkeeping the paper found too expensive. *)
let update_block_counts device term =
  match select_chain term.root with
  | None -> ()
  | Some (scan, tests, nodes) ->
      let new_counts =
        List.map
          (fun unit_tuples ->
            float_of_int (count_through_chain tests unit_tuples))
          scan.last_unit_deltas
      in
      (* Figure 3.3 discussion: determining space-block values requires
         sorting the outputs by disk number — charged here. *)
      let outputs = int_of_float (List.fold_left ( +. ) 0.0 new_counts) in
      Device.sort device ~n:outputs;
      Device.estimator_update device ~n:(List.length new_counts);
      term.block_counts <- List.rev_append new_counts term.block_counts;
      let counts = Array.of_list term.block_counts in
      let b = Array.length counts in
      if b >= 2 then begin
        let bf = float_of_int (Heap_file.blocking_factor scan.file) in
        let sum = Array.fold_left ( +. ) 0.0 counts in
        let mean = sum /. float_of_int b in
        let ss =
          Array.fold_left (fun acc y -> acc +. ((y -. mean) ** 2.0)) 0.0 counts
        in
        let s2 = ss /. float_of_int (b - 1) in
        let p = mean /. bf in
        if p > 0.0 && p < 1.0 then begin
          (* Binomial(bf, p) blocks would have s2 = bf p (1-p); the
             ratio is the intra-block design effect. *)
          let deff =
            Float.max 0.25 (Float.min (bf *. bf) (s2 /. (bf *. p *. (1.0 -. p))))
          in
          List.iter (fun node -> Selectivity.set_design_effect node.sel deff) nodes
        end
      end

let term_cluster_variance term =
  match select_chain term.root with
  | None -> None
  | Some (scan, _, _) ->
      let counts = Array.of_list term.block_counts in
      if Array.length counts < 2 then None
      else
        Some
          (Count_estimator.cluster_variance_estimate ~counts
             ~total_blocks:(float_of_int (Stage_set.n_units scan.units))
             ~points_per_block:
               (float_of_int (Heap_file.blocking_factor scan.file)))

let term_dims term =
  List.map
    (fun scan ->
      let sizes = List.rev scan.stage_tuples in
      let acc = ref 0 in
      Array.of_list (List.map (fun s -> acc := !acc + s; !acc) sizes))
    term.leaf_scans

let term_evaluated_points t term =
  let dims = term_dims term in
  match (t.config.plan : Plan.t).fulfillment with
  | Plan.Full -> Fulfillment.full_cumulative dims
  | Plan.Partial -> Fulfillment.partial_cumulative dims

let term_total_points term = term.root.subtree_points

let project_estimate t term ~evaluated ~total =
  match term.root.kind with
  | Project_node { groups; child; _ } ->
      let occupancies = Hashtbl.fold (fun _ c acc -> !c :: acc) groups [] in
      let qualifying_sample = child.cum_out in
      if qualifying_sample <= 0.0 then
        Count_estimator.of_sample ~hits:0.0 ~points:evaluated ~total_points:total
      else begin
        (* Estimated qualifying population, then Goodman on the groups. *)
        let population =
          Float.max qualifying_sample (total *. (qualifying_sample /. evaluated))
        in
        let sample = int_of_float qualifying_sample in
        let profile = Goodman.occupancy_profile occupancies in
        let distinct =
          match t.config.projection_estimator with
          | Config.Goodman_unbiased -> Goodman.unbiased ~population ~sample ~profile
          | Config.Goodman_first_order ->
              Goodman.first_order ~population ~sample ~profile
          | Config.Scale_up ->
              Goodman.scale_up ~population ~sample
                ~distinct:(Goodman.distinct_observed ~profile)
          | Config.Chao -> Goodman.chao ~profile
        in
        let p_hat = Float.min 1.0 (distinct /. total) in
        let var_p =
          Count_estimator.srs_variance_estimate ~p_hat ~m:evaluated ~n:total
        in
        {
          Count_estimator.estimate = distinct;
          variance = total *. total *. var_p;
          hits = term.root.cum_out;
          points = evaluated;
          total_points = total;
          is_exact = evaluated >= total;
        }
      end
  | Leaf _ | Select_node _ | Binary_node _ ->
      invalid_arg "Staged.project_estimate: root is not a projection"

let term_estimate t term =
  let evaluated = term_evaluated_points t term in
  let total = term_total_points term in
  if evaluated <= 0.0 then
    Count_estimator.of_sample ~hits:0.0 ~points:1.0 ~total_points:total
  else if evaluated >= total then
    Count_estimator.exact ~count:term.root.cum_out ~total_points:total
  else begin
    match term.root.kind with
    | Project_node _ -> project_estimate t term ~evaluated ~total
    | Leaf _ | Select_node _ | Binary_node _ -> (
        let base =
          Count_estimator.of_sample
            ~hits:(Float.min evaluated term.root.cum_out)
            ~points:evaluated ~total_points:total
        in
        match
          (t.config.variance_estimator, term_cluster_variance term)
        with
        | Config.Cluster_exact, Some variance ->
            { base with Count_estimator.variance }
        | (Config.Cluster_exact | Config.Srs_approximation), _ -> base)
  end

let term_sum_estimate t term =
  let evaluated = term_evaluated_points t term in
  let total = term_total_points term in
  if evaluated <= 0.0 then
    Aggregate.sum_estimator Aggregate.zero_moments ~points:1.0
      ~total_points:total
  else Aggregate.sum_estimator term.moments ~points:evaluated ~total_points:total

let combined_estimate t =
  let counts =
    List.map (fun term -> (term.sign, term_estimate t term)) t.terms
  in
  match t.aggregate with
  | Aggregate.Count -> Count_estimator.combine counts
  | Aggregate.Sum _ ->
      Count_estimator.combine
        (List.map (fun term -> (term.sign, term_sum_estimate t term)) t.terms)
  | Aggregate.Avg _ ->
      let count = Count_estimator.combine counts in
      let sum =
        Count_estimator.combine
          (List.map (fun term -> (term.sign, term_sum_estimate t term)) t.terms)
      in
      (* Within-term covariances add (sign^2 = 1); cross-term
         covariances are the usual independence approximation. *)
      let covariance =
        List.fold_left
          (fun acc term ->
            let evaluated = term_evaluated_points t term in
            if evaluated <= 0.0 then acc
            else
              acc
              +. Aggregate.covariance_estimate term.moments ~points:evaluated
                   ~total_points:(term_total_points term))
          0.0 t.terms
      in
      Aggregate.avg_of ~sum ~count ~covariance

let rec snapshot_node node acc =
  let snap =
    {
      Report.op_id = node.id;
      op_label = node_label node;
      selectivity = Selectivity.estimate node.sel;
      points_seen = node.cum_points;
      tuples_seen = node.cum_out;
    }
  in
  match node.kind with
  | Leaf _ -> acc
  | Select_node { child; _ } | Project_node { child; _ } ->
      snapshot_node child (snap :: acc)
  | Binary_node { left; right; _ } ->
      snapshot_node left (snapshot_node right (snap :: acc))

let current_estimate t = t.last_estimate

let group_estimates t =
  match t.terms with
  | [ { sign = 1; root = { kind = Project_node { groups; _ }; _ }; _ } as term ]
    ->
      let evaluated = term_evaluated_points t term in
      if evaluated <= 0.0 then None
      else begin
        let scale = term_total_points term /. evaluated in
        let all =
          Hashtbl.fold
            (fun tuple count acc ->
              (tuple, float_of_int !count *. scale) :: acc)
            groups []
        in
        Some
          (List.sort (fun (_, a) (_, b) -> Float.compare b a) all)
      end
  | _ -> None

let run_stage t ~device ~f =
  if f <= 0.0 || f > 1.0 then invalid_arg "Staged.run_stage: f outside (0,1]";
  if exhausted t then None
  else begin
    let clock = Device.clock device in
    let t_scan = Clock.now clock in
    let new_units = draw_and_scan t device ~f in
    let scans_elapsed = Clock.now clock -. t_scan in
    if new_units = [] then None
    else begin
      let t0 = Clock.now clock in
      let root_deltas =
        List.map (fun term -> eval_node t device term.root) t.terms
      in
      List.iter2
        (fun term delta ->
          match term.agg_pos with
          | None -> ()
          | Some pos ->
              term.moments <-
                Array.fold_left
                  (fun acc tuple ->
                    match Taqp_data.Value.to_float (Tuple.get tuple pos) with
                    | Some v -> Aggregate.add_tuple acc v
                    | None -> Aggregate.add_tuple acc 0.0)
                  term.moments delta)
        t.terms root_deltas;
      let nodes_elapsed = Clock.now clock -. t0 in
      List.iter
        (fun delta -> Device.estimator_update device ~n:(Array.length delta))
        root_deltas;
      if t.config.variance_estimator = Config.Cluster_exact then
        List.iter (fun term -> update_block_counts device term) t.terms;
      t.stage <- t.stage + 1;
      let estimate = combined_estimate t in
      t.last_estimate <- Some estimate;
      let op_snapshots =
        List.concat_map (fun term -> List.rev (snapshot_node term.root [])) t.terms
      in
      Some { new_units; estimate; op_snapshots; nodes_elapsed; scans_elapsed }
    end
  end

(* ------------------------------------------------------------------ *)
(* Checkpointing (Taqp_recover): capture every run-time-evolved piece
   of the compiled query — sample-set histories, selectivity records,
   retained binary-operator state, projection groups, aggregate
   moments — as plain data, and restore it into a {e freshly compiled}
   instance of the same query. Derived structures that are pure
   functions of the retained deltas (sorted files, hash indexes) are
   rebuilt rather than serialized: re-sorting the same arrays with the
   same comparators and re-inserting the same deltas in the same order
   reproduces them bit-for-bit, at a fraction of the journal bytes. *)

type scan_snapshot = {
  sn_relation : string;
  sn_stage_tuples : int list;  (** newest first *)
  sn_drawn_tuples : int;
  sn_units : Stage_set.dump;
}

type node_state = {
  ns_id : int;
  ns_cum_out : float;
  ns_cum_points : float;
  ns_sel : Selectivity.dump;
  ns_kind : node_kind_state;
}

and node_kind_state =
  | Ns_leaf
  | Ns_select of node_state
  | Ns_project of {
      np_groups : (Tuple.t * int) list;
          (** in reverse table-fold order, so re-inserting in list
              order reproduces the original fold order exactly (bucket
              chains are most-recently-inserted-first) *)
      np_child : node_state;
    }
  | Ns_binary of {
      nb_left : node_state;
      nb_right : node_state;
      nb_deltas_l : Tuple.t array list;  (** oldest first, raw *)
      nb_deltas_r : Tuple.t array list;
      nb_files_l : int;  (** how many deltas had been sorted into files *)
      nb_files_r : int;
      nb_hashed_l : int;  (** how many deltas were in the hash index *)
      nb_hashed_r : int;
    }

type term_snapshot = {
  tn_root : node_state;
  tn_moments : Aggregate.moments;
  tn_block_counts : float list;  (** newest first *)
}

type snapshot = {
  sn_stage : int;
  sn_last_estimate : Count_estimator.t option;
  sn_scans : scan_snapshot list;  (** in [t.scans] order *)
  sn_terms : term_snapshot list;
}

let rec snapshot_state node =
  let ns_kind =
    match node.kind with
    | Leaf _ -> Ns_leaf
    | Select_node { child; _ } -> Ns_select (snapshot_state child)
    | Project_node { child; groups; _ } ->
        Ns_project
          {
            np_groups = Hashtbl.fold (fun tp c acc -> (tp, !c) :: acc) groups [];
            np_child = snapshot_state child;
          }
    | Binary_node b ->
        Ns_binary
          {
            nb_left = snapshot_state b.left;
            nb_right = snapshot_state b.right;
            nb_deltas_l = b.deltas_l;
            nb_deltas_r = b.deltas_r;
            nb_files_l = List.length b.files_l;
            nb_files_r = List.length b.files_r;
            nb_hashed_l = b.hashed_l;
            nb_hashed_r = b.hashed_r;
          }
  in
  {
    ns_id = node.id;
    ns_cum_out = node.cum_out;
    ns_cum_points = node.cum_points;
    ns_sel = Selectivity.dump node.sel;
    ns_kind;
  }

let snapshot t =
  {
    sn_stage = t.stage;
    sn_last_estimate = t.last_estimate;
    sn_scans =
      List.map
        (fun scan ->
          {
            sn_relation = scan.relation;
            sn_stage_tuples = scan.stage_tuples;
            sn_drawn_tuples = scan.drawn_tuples;
            sn_units = Stage_set.dump scan.units;
          })
        t.scans;
    sn_terms =
      List.map
        (fun term ->
          {
            tn_root = snapshot_state term.root;
            tn_moments = term.moments;
            tn_block_counts = term.block_counts;
          })
        t.terms;
  }

let shape_error () =
  invalid_arg "Staged.restore: snapshot does not match the compiled query"

let take n l = List.filteri (fun i _ -> i < n) l

let rec restore_state node ns =
  if node.id <> ns.ns_id then shape_error ();
  node.cum_out <- ns.ns_cum_out;
  node.cum_points <- ns.ns_cum_points;
  Selectivity.restore node.sel ns.ns_sel;
  match (node.kind, ns.ns_kind) with
  | Leaf _, Ns_leaf -> ()
  | Select_node { child; _ }, Ns_select cs -> restore_state child cs
  | Project_node { child; groups; _ }, Ns_project { np_groups; np_child } ->
      Hashtbl.reset groups;
      List.iter (fun (tp, c) -> Hashtbl.replace groups tp (ref c)) np_groups;
      restore_state child np_child
  | Binary_node b, Ns_binary bs ->
      restore_state b.left bs.nb_left;
      restore_state b.right bs.nb_right;
      b.deltas_l <- bs.nb_deltas_l;
      b.deltas_r <- bs.nb_deltas_r;
      (* Sorted files and hash indexes are deterministic functions of
         the delta prefix each path had processed: rebuild them exactly
         as the sort/hash stages originally did (same arrays, same
         comparators, same insertion order — the structures come back
         bit-identical, probe emission order included). No device is
         charged: recovery pays journal-read time, not a replay of
         work that already happened. *)
      let sort_with cmp arr =
        let s = Array.copy arr in
        Array.sort cmp s;
        s
      in
      b.files_l <- List.map (sort_with b.cmp_l) (take bs.nb_files_l bs.nb_deltas_l);
      b.files_r <- List.map (sort_with b.cmp_r) (take bs.nb_files_r bs.nb_deltas_r);
      List.iter
        (fun d -> Ops.Hash_index.add b.hash_l d)
        (take bs.nb_hashed_l bs.nb_deltas_l);
      List.iter
        (fun d -> Ops.Hash_index.add b.hash_r d)
        (take bs.nb_hashed_r bs.nb_deltas_r);
      b.hashed_l <- bs.nb_hashed_l;
      b.hashed_r <- bs.nb_hashed_r
  | (Leaf _ | Select_node _ | Project_node _ | Binary_node _), _ ->
      shape_error ()

let restore t snap =
  if t.stage <> 0 then
    invalid_arg "Staged.restore: target must be freshly compiled";
  if
    List.length snap.sn_scans <> List.length t.scans
    || List.length snap.sn_terms <> List.length t.terms
  then shape_error ();
  List.iter2
    (fun scan ss ->
      if not (String.equal scan.relation ss.sn_relation) then shape_error ();
      Stage_set.restore scan.units ss.sn_units;
      scan.stage_tuples <- ss.sn_stage_tuples;
      scan.drawn_tuples <- ss.sn_drawn_tuples;
      (* within-stage scratch: the next draw_and_scan overwrites both,
         exactly as it would have at this boundary in the dead run *)
      scan.last_delta <- [||];
      scan.last_unit_deltas <- [];
      (* A resumed scan rejoins the shared prefix only if the dead
         run's drawn units are exactly the prefix's first [drawn]
         offsets under the current generation — then continuing at
         offset [drawn] is bit-identical to the uninterrupted cached
         run. Anything else (the dead run drew privately, or the prefix
         was invalidated since) falls back to the private stream the
         snapshot restored — still a valid without-replacement
         continuation. *)
      match t.cache with
      | None -> ()
      | Some c ->
          let drawn = Stage_set.drawn scan.units in
          let rejoin =
            drawn = 0
            || Cache.prefix_units c ~file:scan.file ~kind:(cache_kind scan)
                 ~lo:0 ~k:drawn
               = Stage_set.all_units scan.units
          in
          scan.cache_src <-
            (if rejoin then Src_shared (Cache.generation c scan.file)
             else Src_fallback))
    t.scans snap.sn_scans;
  List.iter2
    (fun term ts ->
      restore_state term.root ts.tn_root;
      term.moments <- ts.tn_moments;
      term.block_counts <- ts.tn_block_counts)
    t.terms snap.sn_terms;
  t.stage <- snap.sn_stage;
  t.last_estimate <- snap.sn_last_estimate
