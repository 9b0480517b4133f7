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
  mutable last_units : int list;  (** the units [last_delta] holds, in order *)
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
  | Select_node of { select : Op_select.t; child : node }
  | Project_node of { project : Op_project.t; child : node }
  | Binary_node of binary

(* Both physical paths' retained state lives side by side over the
   shared raw deltas ([shared.deltas_*], always kept): the sort path's
   files and the hash path's indexes only as far as their path has run,
   and whichever path runs next catches its state up first (the priced
   switching cost). *)
and binary = {
  shared : Op_common.binary;
  left : node;
  right : node;
  sort : Op_sort_merge.t;
  hash : Op_hash.t;
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
  cache : Cache.t option;  (** shared cross-query cache, when attached *)
  pool : Taqp_parallel.Pool.t option;
      (** worker domains for per-stage compute; [None] = domains 1 *)
  mutable stage : int;  (** completed stages *)
  mutable last_estimate : Count_estimator.t option;
}

(* Per-stage compute goes through [Op_common]'s helper, on the pool
   when the config grants worker domains (docs/PARALLELISM.md). *)
let set_parallel_threshold n = Op_common.threshold := Int.max 0 n

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)

(* Every operator's page arithmetic assumes 1 KiB blocks. *)
let bf_of_bytes = Op_common.bf_of_bytes ~block_bytes:1024

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

(* The relation a scan node reads. Its int columns are taken at
   compile time, on the domain that compiles the query, so no pool job
   ever builds one. *)
let leaf_file node =
  match node.kind with
  | Leaf scan -> Some scan.file
  | Select_node _ | Project_node _ | Binary_node _ -> None

(* The columns of a scan node's attributes at [positions], if every one
   has a column. *)
let leaf_columns node positions =
  Option.bind (leaf_file node) (fun file ->
      let cols = Array.map (Heap_file.int_column file) positions in
      if Array.for_all Option.is_some cols then Some (Array.map Option.get cols)
      else None)

let make_binary ~full ~op ~key_l ~key_r ~residual ~residual_comparisons ~left
    ~right ~hash_id ~out_bytes =
  let shared =
    {
      Op_common.op;
      key_l;
      key_r;
      residual;
      residual_comparisons;
      full;
      bf = bf_of_bytes out_bytes;
      deltas_l = [];
      deltas_r = [];
    }
  in
  Binary_node
    {
      shared;
      left;
      right;
      sort =
        Op_sort_merge.create shared ~arity_l:(Schema.arity left.schema)
          ~arity_r:(Schema.arity right.schema)
          ~cols_l:(leaf_columns left key_l) ~cols_r:(leaf_columns right key_r)
          ~bf_l:(bf_of_bytes left.out_bytes)
          ~bf_r:(bf_of_bytes right.out_bytes);
      hash = Op_hash.create shared ~id:hash_id;
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
  let full = (config.plan : Plan.t).fulfillment = Plan.Full in
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
            last_units = [];
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
                  select =
                    {
                      Op_select.comparisons = Predicate.comparisons pred;
                      test = Predicate.compile child.schema pred;
                      rows =
                        Option.bind (leaf_file child) (fun file ->
                            Predicate.compile_rows child.schema
                              ~column:(Heap_file.int_column file) pred);
                      bf = bf_of_bytes child.out_bytes;
                    };
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
              Project_node
                {
                  project =
                    {
                      Op_project.positions;
                      bf = bf_of_bytes out_bytes;
                      groups = Hashtbl.create 256;
                    };
                  child;
                };
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
        let out_bytes = left.out_bytes + right.out_bytes in
        with_oracle e
          {
            id;
            schema;
            out_bytes;
            sel = Selectivity.create ~initial:(initial_sel config `Join);
            subtree_points = left.subtree_points *. right.subtree_points;
            cum_out = 0.0;
            cum_points = 0.0;
            kind =
              make_binary ~full ~op:`Join ~key_l ~key_r
                ~residual:
                  (match residual_pred with
                  | Predicate.True -> None
                  | p -> Some (Predicate.compile schema p))
                ~residual_comparisons:(Predicate.comparisons residual_pred)
                ~left ~right ~hash_id ~out_bytes;
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
              make_binary ~full ~op:`Intersect ~key_l:key ~key_r:key
                ~residual:None
                ~residual_comparisons:0 ~left ~right ~hash_id
                ~out_bytes:left.out_bytes;
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

(* Block reads the next stage would actually charge, as a function of
   its unit count: on the shared prefix the unit identities are known
   in advance, so cached blocks can be netted out — this is what makes
   a plan (and the admission price built from it) cover only the
   *residual* sample a hit leaves to fetch. Off the prefix the units
   are not knowable before the draw, so every unit is priced as a read.
   Resolved once per planning call: the cache finds its memo here, not
   per probe. *)
let scan_misses t scan =
  match scan_cache t scan with
  | Some c ->
      Cache.misses_from c ~file:scan.file ~kind:(cache_kind scan)
        ~lo:(Stage_set.drawn scan.units)
  | None -> Fun.id

let scan_measures blocks =
  { Formulas.zero_measures with Formulas.blocks = float_of_int blocks }

(* How [mode] sets a node's selectivity, resolved once per planning
   call: a fixed value under Plain and Override, Sel+ at the stage's
   point count under Inflated. *)
type sel_rule = Sel_fixed of float | Sel_inflated of { d_beta : float; zero_beta : float }

let sel_rule node = function
  | Plain -> Sel_fixed (Selectivity.estimate node.sel)
  | Override overrides -> (
      match List.assoc_opt node.id overrides with
      | Some s -> Sel_fixed s
      | None -> Sel_fixed (Selectivity.estimate node.sel))
  | Inflated { d_beta; zero_beta } -> Sel_inflated { d_beta; zero_beta }

let n_remaining node = Float.max 0.0 (node.subtree_points -. node.cum_points)

let sel_at node rule ~m_next =
  match rule with
  | Sel_fixed s -> s
  | Sel_inflated { d_beta; zero_beta } ->
      Sel_plus.compute node.sel ~d_beta ~zero_beta ~m_next
        ~n_remaining:(n_remaining node)

let sel_variance node ~m_next =
  Selectivity.variance_srs node.sel ~m_next ~n_remaining:(n_remaining node)

let choose_sel node ~mode ~m_next =
  ( sel_at node (sel_rule node mode) ~m_next,
    Selectivity.estimate node.sel,
    sel_variance node ~m_next )

(* The points a binary operator's next stage adds, from its children's
   predicted deltas and the outputs they already produced. *)
let points_new ~full ~nl ~nr ~cum_l ~cum_r =
  if full then (nl *. (cum_r +. nr)) +. (cum_l *. nr) else nl *. nr

(* One physical path of a binary operator, priced against the retained
   state before the stage: its cost-model node (the operator's own id
   for sort-merge, its hash-path id for hash) with the coefficients
   resolved, and its module's measures over the prepared state. Each
   module's [measures] is its [measures_of] after its [prepare], so
   planning, the adaptive choice, the pricer and execution all price
   the same work. *)
type path = {
  path : [ `Sort | `Hash ];
  path_id : int;
  path_kind : Formulas.op_kind;
  path_cm : Cost_model.resolved;
  path_measures : nl:float -> nr:float -> out_new:float -> Formulas.measures;
}

type paths = Fixed of path | Adaptive of { sort : path; hash : path }

let paths t node b =
  let sort () =
    {
      path = `Sort;
      path_id = node.id;
      path_kind = Op_sort_merge.kind b.sort;
      path_cm = Cost_model.resolve t.cost_model ~id:node.id;
      path_measures = Op_sort_merge.measures_of (Op_sort_merge.prepare b.sort);
    }
  and hash () =
    {
      path = `Hash;
      path_id = b.hash.id;
      path_kind = Op_hash.kind b.hash;
      path_cm = Cost_model.resolve t.cost_model ~id:b.hash.id;
      path_measures = Op_hash.measures_of (Op_hash.prepare b.hash);
    }
  in
  match t.config.physical with
  | Config.Sort_merge -> Fixed (sort ())
  | Config.Hash -> Fixed (hash ())
  | Config.Adaptive -> Adaptive { sort = sort (); hash = hash () }

let path_cost p ~nl ~nr ~out_new =
  Cost_model.apply p.path_cm (p.path_measures ~nl ~nr ~out_new)

(* The path that will run: under [Adaptive], whichever the fitted cost
   model predicts cheaper, including any catch-up cost of switching. *)
let choose_path paths ~nl ~nr ~out_guess =
  match paths with
  | Fixed p -> p
  | Adaptive { sort; hash } ->
      let sort_cost = path_cost sort ~nl ~nr ~out_new:out_guess in
      let hash_cost = path_cost hash ~nl ~nr ~out_new:out_guess in
      if hash_cost < sort_cost then hash else sort

(* Scans and the overhead node pass [(1.0, 1.0, 0.0)]: no selectivity. *)
let plan_entry ~op_id ?(plan_id = op_id) plan_kind plan_measures
    (sel_used, sel_plain, sel_variance) =
  {
    plan_id;
    plan_op_id = op_id;
    plan_kind;
    plan_measures;
    sel_used;
    sel_plain;
    sel_variance;
  }

(* Returns (plans for this subtree, predicted new output tuples,
   cumulative output tuples so far). *)
let rec plan_node t ~f ~mode node : node_plan list * float * float =
  match node.kind with
  | Leaf scan ->
      ([], float_of_int (predicted_new_tuples scan ~f), float_of_int scan.drawn_tuples)
  | Select_node { select; child } ->
      plan_unary t ~f ~mode node child Formulas.Select (Op_select.measures select)
  | Project_node { project; child } ->
      plan_unary t ~f ~mode node child Formulas.Project
        (Op_project.measures project)
  | Binary_node b ->
      let plans_l, nl, cum_l = plan_node t ~f ~mode b.left in
      let plans_r, nr, cum_r = plan_node t ~f ~mode b.right in
      let points_new = points_new ~full:b.shared.full ~nl ~nr ~cum_l ~cum_r in
      let ((sel_used, _, _) as sel) = choose_sel node ~mode ~m_next:points_new in
      let out_new = sel_used *. points_new in
      (* Price whichever physical path will run: the plan entry carries
         that path's cost-model id, kind and measures, so QCOST and the
         executor's gradients see the work the stage will actually do. *)
      let p = choose_path (paths t node b) ~nl ~nr ~out_guess:out_new in
      let entry =
        plan_entry ~op_id:node.id ~plan_id:p.path_id p.path_kind
          (p.path_measures ~nl ~nr ~out_new)
          sel
      in
      (plans_l @ plans_r @ [ entry ], out_new, node.cum_out)

and plan_unary t ~f ~mode node child kind measures =
  let plans, n_new, _ = plan_node t ~f ~mode child in
  let ((sel_used, _, _) as sel) = choose_sel node ~mode ~m_next:n_new in
  let out = sel_used *. n_new in
  ( plans @ [ plan_entry ~op_id:node.id kind (measures ~n_in:n_new ~out) sel ],
    out,
    node.cum_out )

let check_fraction f =
  if f <= 0.0 || f > 1.0 then invalid_arg "Staged.plan: f outside (0,1]"

let plan t ~f ~mode =
  check_fraction f;
  let scan_plans =
    List.map
      (fun scan ->
        plan_entry ~op_id:scan.scan_id Formulas.Scan
          (scan_measures (scan_misses t scan (units_for scan ~f)))
          (1.0, 1.0, 0.0))
      t.scans
  in
  let term_plans =
    List.concat_map
      (fun term ->
        let plans, _, _ = plan_node t ~f ~mode term.root in
        plans)
      t.terms
  in
  scan_plans @ term_plans
  @ [
      plan_entry ~op_id:t.overhead_id Formulas.Overhead Formulas.zero_measures
        (1.0, 1.0, 0.0);
    ]

(* ------------------------------------------------------------------ *)
(* The stage pricer

   Sample-Size-Determine prices dozens of fractions against one
   unchanging state. A pricer resolves once what [plan] derives from
   that state — coefficients, each operator module's prepared retained
   state, selectivity rules, each scan's miss handle — and then prices
   f without building entries: every float expression that involves f
   is [plan]'s, and the node costs are summed in plan order, so a
   pricer is [Cost_model.total] over [plan] bit for bit. A pricer must
   not outlive the planning call that built it: the next stage (or
   another job's) moves the state it resolved. *)

type priced = {
  pnode : node;
  rule : sel_rule;
  cum : float;  (* the output a full-fulfillment parent pairs with *)
  pkind : priced_kind;
  mutable out : float;  (* predicted new output tuples at the last f *)
  mutable m_next : float;  (* the points the selectivity applied to *)
}

and priced_kind =
  | P_leaf of scan
  | P_unary of {
      child : priced;
      cm : Cost_model.resolved;
      measures : n_in:float -> out:float -> Formulas.measures;
    }
  | P_binary of { left : priced; right : priced; full : bool; paths : paths }

let rec priced t ~mode node =
  let unary child measures =
    P_unary
      {
        child = priced t ~mode child;
        cm = Cost_model.resolve t.cost_model ~id:node.id;
        measures;
      }
  in
  let pkind, cum =
    match node.kind with
    | Leaf scan -> (P_leaf scan, float_of_int scan.drawn_tuples)
    | Select_node { select; child } ->
        (unary child (Op_select.measures select), node.cum_out)
    | Project_node { project; child } ->
        (unary child (Op_project.measures project), node.cum_out)
    | Binary_node b ->
        ( P_binary
            {
              left = priced t ~mode b.left;
              right = priced t ~mode b.right;
              full = b.shared.full;
              paths = paths t node b;
            },
          node.cum_out )
  in
  { pnode = node; rule = sel_rule node mode; cum; pkind; out = 0.0; m_next = 0.0 }

(* A flat float record: adding to it allocates nothing. *)
type total = { mutable sum : float }

(* [plan_node]'s walk, adding each entry's cost to [acc] in entry
   order instead of listing the entry. *)
let rec price_node acc p ~f =
  match p.pkind with
  | P_leaf scan -> p.out <- float_of_int (predicted_new_tuples scan ~f)
  | P_unary u ->
      price_node acc u.child ~f;
      let n_new = u.child.out in
      let out = sel_at p.pnode p.rule ~m_next:n_new *. n_new in
      acc.sum <- acc.sum +. Cost_model.apply u.cm (u.measures ~n_in:n_new ~out);
      p.m_next <- n_new;
      p.out <- out
  | P_binary b ->
      price_node acc b.left ~f;
      price_node acc b.right ~f;
      let nl = b.left.out and nr = b.right.out in
      let points_new =
        points_new ~full:b.full ~nl ~nr ~cum_l:b.left.cum ~cum_r:b.right.cum
      in
      let out_new = sel_at p.pnode p.rule ~m_next:points_new *. points_new in
      let path = choose_path b.paths ~nl ~nr ~out_guess:out_new in
      acc.sum <- acc.sum +. path_cost path ~nl ~nr ~out_new;
      p.m_next <- points_new;
      p.out <- out_new

type resolved_plan = {
  scan_costs : (scan * (int -> int) * Cost_model.resolved) array;
  roots : priced array;
  overhead : float;  (* the Overhead entry's cost: it has no measures *)
  acc : total;
}

let resolve_plan t ~mode =
  {
    scan_costs =
      Array.of_list
        (List.map
           (fun scan ->
             ( scan,
               scan_misses t scan,
               Cost_model.resolve t.cost_model ~id:scan.scan_id ))
           t.scans);
    roots = Array.of_list (List.map (fun term -> priced t ~mode term.root) t.terms);
    overhead =
      Cost_model.predict t.cost_model ~id:t.overhead_id Formulas.zero_measures;
    acc = { sum = 0.0 };
  }

let price r f =
  check_fraction f;
  let acc = r.acc in
  acc.sum <- 0.0;
  for i = 0 to Array.length r.scan_costs - 1 do
    let scan, misses, cm = r.scan_costs.(i) in
    acc.sum <-
      acc.sum +. Cost_model.apply cm (scan_measures (misses (units_for scan ~f)))
  done;
  for i = 0 to Array.length r.roots - 1 do
    price_node acc r.roots.(i) ~f
  done;
  acc.sum +. r.overhead

let pricer t ~mode =
  let r = resolve_plan t ~mode in
  fun f -> price r f

let predicted_cost t ~f ~mode = pricer t ~mode f

(* The operator nodes in plan order: children's entries first, left
   before right, then the node's own. *)
let rec plan_order p =
  match p.pkind with
  | P_leaf _ -> []
  | P_unary u -> plan_order u.child @ [ p ]
  | P_binary b -> plan_order b.left @ plan_order b.right @ [ p ]

(* Delta method over the operators' selectivity variances, with
   numeric gradients: each operator's nudged selectivity depends only
   on its plain estimate, so its [Override] pricer is resolved once
   (on first need) and reused at every f. *)
let qcost_std t =
  let base = resolve_plan t ~mode:Plain in
  let ops =
    List.map
      (fun p ->
        let sel_plain = Selectivity.estimate p.pnode.sel in
        let delta = Float.max 1e-6 (0.01 *. Float.max sel_plain 1e-4) in
        ( p,
          delta,
          lazy (pricer t ~mode:(Override [ (p.pnode.id, sel_plain +. delta) ]))
        ))
      (List.concat_map plan_order (Array.to_list base.roots))
  in
  fun f ->
    let cost = price base f in
    let acc = ref 0.0 in
    List.iter
      (fun (p, delta, perturbed) ->
        let variance = sel_variance p.pnode ~m_next:p.m_next in
        if variance > 0.0 then begin
          let grad = (Lazy.force perturbed f -. cost) /. delta in
          acc := !acc +. (grad *. grad *. variance)
        end)
      ops;
    sqrt !acc

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
        scan.last_units <- [];
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
        scan.last_units <- unit_ids;
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
          ~step:Formulas.Step_read (scan_measures misses)
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
  | Leaf scan when delta == scan.last_delta && Array.length delta > 0 ->
      Option.map
        (fun cache ->
          let hi = Stage_set.drawn scan.units in
          let lo =
            hi - Stage_set.stage_size scan.units (Stage_set.stages scan.units)
          in
          { Op_common.cache; file = scan.file; kind = cache_kind scan; lo; hi })
        (scan_cache t scan)
  | _ -> None

let node_label node =
  match node.kind with
  | Leaf scan -> "scan:" ^ scan.relation
  | Select_node _ -> "select"
  | Project_node _ -> "project"
  | Binary_node { shared = { op = `Join; _ }; _ } -> "join"
  | Binary_node { shared = { op = `Intersect; _ }; _ } -> "intersect"

(* The row ids of a scan node's stage delta, for the column paths. *)
let leaf_rows node =
  match node.kind with
  | Leaf scan ->
      Some
        {
          Op_common.units = scan.last_units;
          per_unit = tuples_per_unit scan;
          n_rows = Heap_file.n_tuples scan.file;
        }
  | Select_node _ | Project_node _ | Binary_node _ -> None

(* One stage's selectivity observation and point-space bookkeeping. *)
let record_stage node ~points n_out =
  let n_out = float_of_int n_out in
  Selectivity.observe node.sel ~points ~tuples:n_out;
  node.cum_points <- node.cum_points +. points;
  node.cum_out <- node.cum_out +. n_out

(* [f ()] is a node's stage, [size] its output's tuple count. Wraps it
   in an operator-category span (children recurse through the wrapper,
   so the span tree mirrors the operator tree); tuples-in is the number
   of sample-space points this stage added under the node, tuples-out
   the delta it produced. *)
let traced ctx node ~size f =
  let tracer = Device.tracer ctx.Op_common.device in
  if not (Tracer.enabled tracer) then f ()
  else begin
    let label = node_label node in
    let points_before = node.cum_points in
    Tracer.span_begin tracer ~cat:"operator" label
      ~args:[ ("node", Event.Int node.id) ];
    match f () with
    | out ->
        Tracer.span_end tracer ~cat:"operator" label
          ~args:
            [
              ("node", Event.Int node.id);
              ("tuples_in", Event.Float (node.cum_points -. points_before));
              ("tuples_out", Event.Int (size out));
              ("sel", Event.Float (Selectivity.estimate node.sel));
            ];
        out
    | exception e ->
        Tracer.span_end tracer ~cat:"operator" label
          ~args:[ ("node", Event.Int node.id); ("aborted", Event.Bool true) ];
        raise e
  end

(* Evaluate a node's stage delta; children first, then the operator
   module's own charged, timed and observed work. *)
let rec eval_node t ctx node : Tuple.t array =
  traced ctx node ~size:Array.length (fun () -> eval_op t ctx node)

(* The stage of a COUNT root, whose output nothing reads but its size:
   a sort-merge join or intersect counts it instead of building it,
   with the same charges; any other operator builds it as
   [eval_node] does. *)
and count_node t ctx node : int =
  traced ctx node ~size:Fun.id (fun () ->
      match node.kind with
      | Binary_node b -> eval_binary t ctx node b Op_sort_merge.Count
      | Leaf _ | Select_node _ | Project_node _ ->
          Array.length (eval_op t ctx node))

and eval_op t ctx node : Tuple.t array =
  match node.kind with
  | Leaf scan ->
      let n = float_of_int (Array.length scan.last_delta) in
      node.cum_out <- node.cum_out +. n;
      node.cum_points <- node.cum_points +. n;
      scan.last_delta
  | Select_node { select; child } ->
      let delta = eval_node t ctx child in
      let out =
        Op_select.eval ctx ~id:node.id select ?leaf:(leaf_rows child) delta
      in
      record_stage node
        ~points:(float_of_int (Array.length delta))
        (Array.length out);
      out
  | Project_node { project; child } ->
      let delta = eval_node t ctx child in
      let out = Op_project.eval ctx ~id:node.id project delta in
      node.cum_points <- node.cum_points +. float_of_int (Array.length delta);
      node.cum_out <- float_of_int (Hashtbl.length project.groups);
      Selectivity.set_cumulative node.sel ~points:node.cum_points
        ~tuples:node.cum_out;
      out
  | Binary_node b -> eval_binary t ctx node b Op_sort_merge.Tuples

and eval_binary : type a.
    t -> Op_common.ctx -> node -> binary -> a Op_sort_merge.want -> a =
 fun t ctx node b want ->
  let delta_l = eval_node t ctx b.left in
  let delta_r = eval_node t ctx b.right in
  let shared = b.shared in
  let nl = float_of_int (Array.length delta_l) in
  let nr = float_of_int (Array.length delta_r) in
  let points_new =
    if shared.full then
      (nl *. float_of_int (Op_common.sum_lengths shared.deltas_r))
      +. (float_of_int (Op_common.sum_lengths shared.deltas_l) *. nr)
      +. (nl *. nr)
    else nl *. nr
  in
  let out_guess = Float.max 0.0 (Selectivity.estimate node.sel *. points_new) in
  let slice_l = leaf_slice t b.left delta_l in
  let out : a =
    match (choose_path (paths t node b) ~nl ~nr ~out_guess).path with
    | `Sort ->
        Op_sort_merge.eval ctx ~id:node.id b.sort ~want ~slice_l
          ~slice_r:(leaf_slice t b.right delta_r) ~leaf_l:(leaf_rows b.left)
          ~leaf_r:(leaf_rows b.right) delta_l delta_r
    | `Hash -> (
        let out = Op_hash.eval ctx b.hash ~slice_l delta_l delta_r in
        match want with
        | Op_sort_merge.Tuples -> out
        | Op_sort_merge.Count -> Array.length out)
  in
  shared.deltas_l <- shared.deltas_l @ [ delta_l ];
  shared.deltas_r <- shared.deltas_r @ [ delta_r ];
  let n_out =
    match want with
    | Op_sort_merge.Tuples -> Array.length out
    | Op_sort_merge.Count -> out
  in
  record_stage node ~points:points_new n_out;
  out

(* ------------------------------------------------------------------ *)
(* Estimation                                                          *)

(* A single-relation Select chain: the shape for which the exact
   cluster variance is implemented. Returns the scan, the predicate
   tests bottom-up, and the select nodes (for design-effect feedback). *)
let rec select_chain node =
  match node.kind with
  | Leaf scan -> Some (scan, [], [])
  | Select_node { select; child } ->
      Option.map
        (fun (scan, tests, nodes) ->
          (scan, tests @ [ select.test ], nodes @ [ node ]))
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
  | Project_node { project; child } ->
      let occupancies =
        Hashtbl.fold (fun _ c acc -> !c :: acc) project.groups []
      in
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
  | [
      { sign = 1; root = { kind = Project_node { project = { groups; _ }; _ }; _ }; _ }
      as term;
    ] ->
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
      let ctx = { Op_common.device; cost_model = t.cost_model; pool = t.pool } in
      (* A COUNT term needs only its root's output size; a SUM or AVG
         term folds the root's tuples into its moments. *)
      let root_sizes =
        List.map
          (fun term ->
            match term.agg_pos with
            | None -> count_node t ctx term.root
            | Some pos ->
                let delta = eval_node t ctx term.root in
                term.moments <-
                  Array.fold_left
                    (fun acc tuple ->
                      match Taqp_data.Value.to_float (Tuple.get tuple pos) with
                      | Some v -> Aggregate.add_tuple acc v
                      | None -> Aggregate.add_tuple acc 0.0)
                    term.moments delta;
                Array.length delta)
          t.terms
      in
      let nodes_elapsed = Clock.now clock -. t0 in
      List.iter (fun n -> Device.estimator_update device ~n) root_sizes;
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
   same deterministic sort and re-inserting the same deltas in the same
   order reproduces them bit-for-bit, at a fraction of the journal
   bytes. *)

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
    | Project_node { project; child } ->
        Ns_project
          {
            np_groups = Op_project.snapshot project;
            np_child = snapshot_state child;
          }
    | Binary_node b ->
        Ns_binary
          {
            nb_left = snapshot_state b.left;
            nb_right = snapshot_state b.right;
            nb_deltas_l = b.shared.deltas_l;
            nb_deltas_r = b.shared.deltas_r;
            nb_files_l = List.length b.sort.files_l;
            nb_files_r = List.length b.sort.files_r;
            nb_hashed_l = b.hash.hashed_l;
            nb_hashed_r = b.hash.hashed_r;
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

let rec restore_state node ns =
  if node.id <> ns.ns_id then shape_error ();
  node.cum_out <- ns.ns_cum_out;
  node.cum_points <- ns.ns_cum_points;
  Selectivity.restore node.sel ns.ns_sel;
  match (node.kind, ns.ns_kind) with
  | Leaf _, Ns_leaf -> ()
  | Select_node { child; _ }, Ns_select cs -> restore_state child cs
  | Project_node { project; child }, Ns_project { np_groups; np_child } ->
      Op_project.restore project np_groups;
      restore_state child np_child
  | Binary_node b, Ns_binary bs ->
      restore_state b.left bs.nb_left;
      restore_state b.right bs.nb_right;
      b.shared.deltas_l <- bs.nb_deltas_l;
      b.shared.deltas_r <- bs.nb_deltas_r;
      (* Sorted files and hash indexes are deterministic functions of
         the delta prefix each path had processed: rebuilding them from
         the same arrays, with the same sorts and insertion order, gives
         them back bit-identical, probe emission order included. No
         device is charged: recovery pays journal-read time, not a
         replay of work that already happened. *)
      Op_sort_merge.restore b.sort ~files_l:bs.nb_files_l ~files_r:bs.nb_files_r;
      Op_hash.restore b.hash ~hashed_l:bs.nb_hashed_l ~hashed_r:bs.nb_hashed_r
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
      scan.last_units <- [];
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
