(* The benchmark's inputs: one catalog, four job streams, and the
   server settings each stream runs under. Everything here is a pure
   function of the seed and the scale, so two runs with one seed send
   byte-identical job lines to identically configured servers. *)

module Generator = Taqp_workload.Generator
module Catalog = Taqp_storage.Catalog
module Ra = Taqp_relational.Ra
module P = Taqp_relational.Predicate
module Prng = Taqp_rng.Prng
module Admission = Taqp_sched.Admission

type t = Select_dash | Journaled_select | Join_heavy | Mixed_cache

(* Also the order of a multi-workload run. *)
let all = [ Select_dash; Journaled_select; Join_heavy; Mixed_cache ]

let name = function
  | Select_dash -> "select_dash"
  | Journaled_select -> "journaled_select"
  | Join_heavy -> "join_heavy"
  | Mixed_cache -> "mixed_cache"

let of_name s = List.find_opt (fun w -> name w = s) all

(* Relation sizes. [big] is sr, jr1/jr2 and ir1/ir2; [small] is
   tr1-tr3. At full scale the catalog is 575k tuples of the paper's
   200 bytes in 1 KiB blocks (112 MiB on the simulated device), 7x the
   16 MB cache. *)
type scale = { big : int; small : int }

let full = { big = 100_000; small = 25_000 }
let smoke = { big = 2_000; small = 500 }

(* A query class: the query text and its exact COUNT, which the
   generator fixes by construction. *)
type cls = { label : string; query : Ra.t; exact : float }

type catalog = { catalog : Catalog.t; classes : (string * cls) list }

let cls c label = List.assoc label c.classes

let join_group = 7 (* ~7 join pairs per tuple: 7e5 pairs at full scale *)
let join3_group = 3

(* Tuple ordinals [0, n) keyed in groups of [g]: every key holds [g]
   ordinals except a short last group, so an arity-[a] equi-join has
   sum over keys of size^a result tuples. *)
let grouped_count ~n ~g ~arity =
  let full_groups = n / g and rest = n mod g in
  let pow x = Float.pow (float_of_int x) (float_of_int arity) in
  (float_of_int full_groups *. pow g) +. pow rest

(* The catalog is the fixed database the queries run against; only the
   job stream follows [--seed]. Under mixed_cache every job of a
   relation reads the cache's one shared sample prefix, and which cache
   regime a run settles in depends on the data: with only the catalog
   redrawn, five seeds gave 281 to 16,050 evictions and a median error
   from 0.04 to 0.19. *)
let catalog_seed = 1989

let build scale =
  let rng = Prng.create catalog_seed in
  let spec n = { Generator.paper_spec with Generator.n_tuples = n } in
  let rel ?key n = Generator.relation ~spec:(spec n) ?key ~rng () in
  let n = scale.big and m = scale.small in
  let catalog = Catalog.create () in
  let add name file = Catalog.add catalog name file in
  add "sr" (rel n);
  let jkey i = i / join_group in
  add "jr1" (rel ~key:jkey n);
  add "jr2" (rel ~key:jkey n);
  let ir1 = rel n in
  add "ir1" ir1;
  add "ir2"
    (Generator.partial_copy ~rng ~keep:(n / 2) ~fresh_ids_from:n ir1);
  let tkey i = i / join3_group in
  add "tr1" (rel ~key:tkey m);
  add "tr2" (rel ~key:tkey m);
  add "tr3" (rel ~key:tkey m);
  let r ?alias name = Ra.relation ?alias name in
  let eq a b = P.Cmp (P.Eq, P.Attr a, P.Attr b) in
  let select pct =
    let k = n * pct / 100 in
    ( Printf.sprintf "sel%d" pct,
      {
        label = Printf.sprintf "sel%d" pct;
        query =
          Ra.Select
            ( P.Cmp (P.Lt, P.Attr "sel", P.Const (Taqp_data.Value.Int k)),
              r ~alias:"r" "sr" );
        exact = float_of_int k;
      } )
  in
  let classes =
    [
      select 1;
      select 10;
      select 50;
      ( "join",
        {
          label = "join";
          query =
            Ra.Join (eq "r1.key" "r2.key", r ~alias:"r1" "jr1", r ~alias:"r2" "jr2");
          exact = grouped_count ~n ~g:join_group ~arity:2;
        } );
      ( "join3",
        {
          label = "join3";
          query =
            Ra.Join
              ( eq "r2.key" "r3.key",
                Ra.Join
                  (eq "r1.key" "r2.key", r ~alias:"r1" "tr1", r ~alias:"r2" "tr2"),
                r ~alias:"r3" "tr3" );
          exact = grouped_count ~n:m ~g:join3_group ~arity:3;
        } );
      ( "inter",
        {
          label = "inter";
          query = Ra.Intersect (r ~alias:"r1" "ir1", r ~alias:"r2" "ir2");
          exact = float_of_int (n / 2);
        } );
    ]
  in
  { catalog; classes }

(* How the workload's server is configured; the in-process replay
   builds its engine from the same record. *)
type settings = {
  cache_mb : float option;
  admission : Admission.t option;
  journal : bool;
}

let settings = function
  | Select_dash | Join_heavy ->
      { cache_mb = None; admission = None; journal = false }
  | Journaled_select -> { cache_mb = None; admission = None; journal = true }
  | Mixed_cache ->
      {
        cache_mb = Some 16.0;
        admission = Some (Admission.make ~max_queue:8 ~headroom:1.2 ());
        journal = false;
      }

(* One submitted query: its wire line and the class it asks. *)
type job = { line : string; cls : cls }

(* A round's slots as (class label, relative deadline in virtual s).
   mixed_cache draws each slot from a Zipf(1.1) over its five classes,
   most popular first. *)
let mixed_slots =
  [| ("sel10", 10.0); ("sel1", 10.0); ("join", 40.0); ("inter", 30.0);
     ("join3", 40.0) |]

let mixed_zipf = lazy (Taqp_rng.Zipf.create ~n:(Array.length mixed_slots) ~s:1.1)

let round_slots w rng =
  match w with
  | Select_dash | Journaled_select ->
      [ ("sel1", 5.0); ("sel10", 5.0); ("sel50", 5.0); ("sel10", 10.0) ]
  | Join_heavy -> [ ("join", 200.0); ("join3", 100.0) ]
  | Mixed_cache ->
      List.init 4 (fun _ ->
          mixed_slots.(Taqp_rng.Zipf.draw (Lazy.force mixed_zipf) rng))

(* Rounds per second of [--seconds]: sizes the run to about that long
   on a 2-vCPU x86 host. It is a constant, so the job stream never
   depends on the host's speed. The two select workloads run about
   two thirds of that: the server keeps every report it served
   (~2.5 KB per job), and at full length select_dash's server peaked
   at 570 MB with a tail that grew with its heap. *)
let rounds_per_second = function
  | Select_dash -> 2500.0
  | Journaled_select -> 2000.0
  | Join_heavy -> 125.0
  | Mixed_cache -> 290.0

(* The whole stream, [segments] x [rounds] rounds. journaled_select
   replays select_dash's stream exactly, so their gap is the journal's
   cost alone. [--seed] draws every job's sampling seed. mixed_cache's
   class order comes from a fixed stream instead: the cache's state is
   path-dependent, and with the order redrawn per seed, five seeds gave
   546 to 25,110 evictions and 1.8 to 21 block reads per job from the
   same class mix. *)
let stream c w ~seed ~segments ~rounds =
  let root, tag =
    match w with
    | Select_dash | Journaled_select -> (Select_dash, 1)
    | Join_heavy -> (Join_heavy, 2)
    | Mixed_cache -> (Mixed_cache, 3)
  in
  let seeds = Prng.create ((seed * 8) + tag) in
  let order = Prng.create (catalog_seed + tag) in
  Array.init segments (fun _ ->
      Array.init rounds (fun _ ->
          round_slots root order
          |> List.map (fun (label, slack) ->
                 let k = cls c label in
                 {
                   line =
                     Printf.sprintf "0 | %g | %s | seed=%d,label=%s" slack
                       (Ra.to_string k.query)
                       (Prng.int seeds 1_000_000_000)
                       label;
                   cls = k;
                 })
          |> Array.of_list))
