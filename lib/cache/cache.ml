module Heap_file = Taqp_storage.Heap_file
module Tuple = Taqp_data.Tuple
module Ops = Taqp_relational.Ops
module Prng = Taqp_rng.Prng
module Metrics = Taqp_obs.Metrics
module Tracer = Taqp_obs.Tracer
module Json = Taqp_obs.Json

type unit_kind = Blocks | Tuples

let kind_tag = function Blocks -> 0 | Tuples -> 1

(* One shared without-replacement permutation prefix per (relation,
   unit kind). [p_units.(0 .. p_len)] is a uniformly random sequence of
   distinct units, extended on demand from [p_rng]; any prefix of it is
   a simple random sample, so a consumer holding offsets [0, m) has
   exactly the sample its private stream would have given it — just the
   *same* one every other consumer holds. *)
type prefix = {
  p_n : int;
  mutable p_units : int array;
  mutable p_len : int;
  p_drawn : (int, unit) Hashtbl.t;
  p_rng : Prng.t;
}

type value =
  | Block of Tuple.t array
  | Sorted of Tuple.t array
  | Hashed of Ops.Hash_index.t

(* Evictable entries, one table for all three kinds so eviction can
   rank them uniformly. Summary keys carry the relation generation;
   block keys do not need to (invalidation removes them eagerly). *)
type key =
  | K_block of int * int  (* uid, block *)
  | K_sorted of int * int * int * int * int * int list
      (* uid, gen, kind tag, lo, hi, key — lo/hi are prefix *offsets*,
         whose meaning depends on the unit kind *)
  | K_hash of int * int * int * int * int * int list

let key_uid = function
  | K_block (u, _) | K_sorted (u, _, _, _, _, _) | K_hash (u, _, _, _, _, _) ->
      u

type stored = {
  s_bytes : int;
  s_cost : float;  (* virtual seconds to rebuild on a miss *)
  mutable s_last_use : int;  (* logical access tick *)
  s_value : value;
}

type binding = {
  b_hits : Metrics.Counter.t;
  b_misses : Metrics.Counter.t;
  b_evictions : Metrics.Counter.t;
  b_bytes : Metrics.Counter.t;
  b_hit_ratio : Metrics.Gauge.t;
  b_bytes_gauge : Metrics.Gauge.t;
}

type stats = { hits : int; misses : int; evictions : int; bytes : int }

(* A [predict_misses] running count for one prefix and start offset
   [lo]: [m_cum.(j)] is the reads serving offsets [lo, lo+j) costs, for
   [j <= m_len]; [m_filled] holds the uncached blocks those offsets
   already counted, so a second tuple of one block costs nothing. *)
type memo = {
  mutable m_cum : int array;
  mutable m_len : int;
  m_filled : (int, unit) Hashtbl.t;
}

type t = {
  budget_bytes : int;
  seed : int;
  store : (key, stored) Hashtbl.t;
  prefixes : (int * int, prefix) Hashtbl.t;  (* (uid, kind tag) *)
  generations : (int, int) Hashtbl.t;
  mutable bytes : int;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable binding : binding option;
  memos : (int * int * int, memo) Hashtbl.t;
      (* (uid, kind tag, lo); dropped by every store insert or removal
         and every prefix extension. The prefix drop in
         [invalidate_relation] needs no drop of its own: a re-created
         prefix reaches a memo only once extended. *)
}

let create ?(budget_mb = 16.0) ?(seed = 0) () =
  {
    budget_bytes = int_of_float (budget_mb *. 1024.0 *. 1024.0);
    seed;
    store = Hashtbl.create 1024;
    prefixes = Hashtbl.create 16;
    generations = Hashtbl.create 16;
    bytes = 0;
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    binding = None;
    memos = Hashtbl.create 16;
  }

let budget_bytes t = t.budget_bytes

let stats (t : t) : stats =
  { hits = t.hits; misses = t.misses; evictions = t.evictions; bytes = t.bytes }

let hit_ratio (t : t) =
  let total = t.hits + t.misses in
  if total = 0 then 0.0 else float_of_int t.hits /. float_of_int total

let sync_binding t =
  match t.binding with
  | None -> ()
  | Some b ->
      Metrics.Counter.set b.b_hits t.hits;
      Metrics.Counter.set b.b_misses t.misses;
      Metrics.Counter.set b.b_evictions t.evictions;
      Metrics.Counter.set b.b_bytes t.bytes;
      Metrics.Gauge.set b.b_hit_ratio (hit_ratio t);
      Metrics.Gauge.set b.b_bytes_gauge (float_of_int t.bytes)

let bind_metrics t m =
  t.binding <-
    Some
      {
        b_hits = Metrics.counter m "cache.hits";
        b_misses = Metrics.counter m "cache.misses";
        b_evictions = Metrics.counter m "cache.evictions";
        b_bytes = Metrics.counter m "cache.bytes";
        b_hit_ratio = Metrics.gauge m "cache.hit_ratio";
        b_bytes_gauge = Metrics.gauge m "cache.bytes_stored";
      };
  sync_binding t

let hit (t : t) = t.hits <- t.hits + 1; sync_binding t
let miss (t : t) = t.misses <- t.misses + 1; sync_binding t
let drop_memos t = Hashtbl.reset t.memos

(* ------------------------------------------------------------------ *)
(* Generations and invalidation                                        *)

let gen_of_uid t uid =
  match Hashtbl.find_opt t.generations uid with Some g -> g | None -> 0

let generation t file = gen_of_uid t (Heap_file.uid file)

let remove_entry t k s =
  Hashtbl.remove t.store k;
  t.bytes <- t.bytes - s.s_bytes;
  drop_memos t

let invalidate_relation t file =
  let uid = Heap_file.uid file in
  Hashtbl.replace t.generations uid (gen_of_uid t uid + 1);
  Hashtbl.remove t.prefixes (uid, kind_tag Blocks);
  Hashtbl.remove t.prefixes (uid, kind_tag Tuples);
  let doomed =
    Hashtbl.fold
      (fun k s acc -> if key_uid k = uid then (k, s) :: acc else acc)
      t.store []
  in
  List.iter (fun (k, s) -> remove_entry t k s) doomed;
  sync_binding t

(* ------------------------------------------------------------------ *)
(* Eviction: lowest refetch-cost-per-age first, by an O(n) scan of the
   whole store per evicted entry. A store that has filled its budget
   stays at it, so once warm nearly every insert evicts and pays one
   full scan. That scan is the cache's largest host cost (nearly a
   quarter of the e2e benchmark's mixed_cache replay time,
   docs/CACHING.md). *)

let evict_until_fits t =
  while t.bytes > t.budget_bytes && Hashtbl.length t.store > 0 do
    let victim =
      Hashtbl.fold
        (fun k s acc ->
          let age = float_of_int (t.tick - s.s_last_use + 1) in
          let score = s.s_cost /. age in
          match acc with
          | Some (_, _, best) when best <= score -> acc
          | _ -> Some (k, s, score))
        t.store None
    in
    match victim with
    | None -> ()
    | Some (k, s, _) ->
        remove_entry t k s;
        t.evictions <- t.evictions + 1
  done;
  sync_binding t

let insert t k ~bytes ~cost v =
  if bytes <= t.budget_bytes && not (Hashtbl.mem t.store k) then begin
    t.tick <- t.tick + 1;
    Hashtbl.replace t.store k
      { s_bytes = bytes; s_cost = cost; s_last_use = t.tick; s_value = v };
    t.bytes <- t.bytes + bytes;
    drop_memos t;
    evict_until_fits t
  end

let lookup t k =
  t.tick <- t.tick + 1;
  match Hashtbl.find_opt t.store k with
  | Some s ->
      s.s_last_use <- t.tick;
      hit t;
      Some s.s_value
  | None ->
      miss t;
      None

(* ------------------------------------------------------------------ *)
(* Shared sample prefixes                                              *)

let population file = function
  | Blocks -> Heap_file.n_blocks file
  | Tuples -> Heap_file.n_tuples file

(* The stream is derived from (cache seed, uid, kind) only — not the
   generation — so re-creating the prefix after an invalidation draws
   exactly what a cold cache would: post-write estimates match a cold
   run by construction. *)
let prefix_for t file kind =
  let uid = Heap_file.uid file in
  let key = (uid, kind_tag kind) in
  match Hashtbl.find_opt t.prefixes key with
  | Some p -> p
  | None ->
      let root =
        Prng.create ((1_000_003 * t.seed) + (8191 * uid) + kind_tag kind)
      in
      let p =
        {
          p_n = population file kind;
          p_units = Array.make 64 0;
          p_len = 0;
          p_drawn = Hashtbl.create 64;
          p_rng = Prng.split root;
        }
      in
      Hashtbl.replace t.prefixes key p;
      p

let extend_prefix t p upto =
  if upto > p.p_len then begin
    drop_memos t;
    let need = Int.min upto p.p_n - p.p_len in
    let fresh =
      Taqp_rng.Sample.from_excluding p.p_rng ~k:need ~n:p.p_n
        ~excluded:(Hashtbl.mem p.p_drawn) ~excluded_count:p.p_len
    in
    if Array.length p.p_units < p.p_len + need then begin
      let grown =
        Array.make (Int.max (p.p_len + need) (2 * Array.length p.p_units)) 0
      in
      Array.blit p.p_units 0 grown 0 p.p_len;
      p.p_units <- grown
    end;
    List.iter
      (fun u ->
        Hashtbl.add p.p_drawn u ();
        p.p_units.(p.p_len) <- u;
        p.p_len <- p.p_len + 1)
      fresh
  end

let prefix_units t ~file ~kind ~lo ~k =
  let p = prefix_for t file kind in
  if lo < 0 || k < 0 || lo + k > p.p_n then
    invalid_arg "Cache.prefix_units: offsets exceed population";
  extend_prefix t p (lo + k);
  List.init k (fun i -> p.p_units.(lo + i))

let block_of_unit file kind u =
  match kind with Blocks -> u | Tuples -> u / Heap_file.blocking_factor file

(* Extend [m] to cover offsets [lo, lo+upto), all materialized. *)
let extend_memo t ~file ~kind p ~lo m upto =
  if upto > m.m_len then begin
    if Array.length m.m_cum <= upto then begin
      let size = Int.max (upto + 1) (2 * Array.length m.m_cum) in
      let grown = Array.make size 0 in
      Array.blit m.m_cum 0 grown 0 (m.m_len + 1);
      m.m_cum <- grown
    end;
    let uid = Heap_file.uid file in
    for j = m.m_len to upto - 1 do
      let b = block_of_unit file kind p.p_units.(lo + j) in
      (* blocks the stage will have filled itself by the time it needs
         them again (two tuples of one uncached block cost one read) *)
      let read =
        (not (Hashtbl.mem t.store (K_block (uid, b))))
        && not (Hashtbl.mem m.m_filled b)
      in
      if read then Hashtbl.add m.m_filled b ();
      m.m_cum.(j + 1) <- (m.m_cum.(j) + if read then 1 else 0)
    done;
    m.m_len <- upto
  end

(* Stage planning bisects on the sample fraction and prices every probe
   here, at one [lo] and many [k], with no cache mutation in between;
   the memo turns each repeat into a lookup instead of a rescan. *)
let predict_misses t ~file ~kind ~lo ~k =
  let uid = Heap_file.uid file in
  match Hashtbl.find_opt t.prefixes (uid, kind_tag kind) with
  | Some p when lo < p.p_len && k > 0 ->
      let mat = Int.min k (p.p_len - lo) in
      let key = (uid, kind_tag kind, lo) in
      let m =
        match Hashtbl.find_opt t.memos key with
        | Some m -> m
        | None ->
            let m =
              {
                m_cum = Array.make 64 0;
                m_len = 0;
                m_filled = Hashtbl.create 16;
              }
            in
            Hashtbl.replace t.memos key m;
            m
      in
      extend_memo t ~file ~kind p ~lo m mat;
      m.m_cum.(mat) + (k - mat)
  | Some _ | None -> k

(* ------------------------------------------------------------------ *)
(* Blocks and summaries                                                *)

let find_block t ~file i =
  match lookup t (K_block (Heap_file.uid file, i)) with
  | Some (Block a) -> Some a
  | Some _ | None -> None

let store_block t ~file i ~cost tuples =
  insert t
    (K_block (Heap_file.uid file, i))
    ~bytes:(Array.length tuples * Heap_file.tuple_bytes file)
    ~cost (Block tuples)

let summary_key ctor t file ~kind ~lo ~hi ~key =
  let uid = Heap_file.uid file in
  ctor uid (gen_of_uid t uid) (kind_tag kind) lo hi (Array.to_list key)

let k_sorted u g kd lo hi key = K_sorted (u, g, kd, lo, hi, key)
let k_hash u g kd lo hi key = K_hash (u, g, kd, lo, hi, key)

let find_sorted_run t ~file ~kind ~lo ~hi ~key =
  match lookup t (summary_key k_sorted t file ~kind ~lo ~hi ~key) with
  | Some (Sorted a) -> Some a
  | Some _ | None -> None

let store_sorted_run t ~file ~kind ~lo ~hi ~key ~cost tuples =
  insert t
    (summary_key k_sorted t file ~kind ~lo ~hi ~key)
    ~bytes:(Array.length tuples * Heap_file.tuple_bytes file)
    ~cost (Sorted tuples)

let find_hash_index t ~file ~kind ~lo ~hi ~key =
  match lookup t (summary_key k_hash t file ~kind ~lo ~hi ~key) with
  | Some (Hashed h) -> Some h
  | Some _ | None -> None

let store_hash_index t ~file ~kind ~lo ~hi ~key ~cost index =
  (* buckets + chain links roughly double the payload *)
  insert t
    (summary_key k_hash t file ~kind ~lo ~hi ~key)
    ~bytes:(2 * Ops.Hash_index.length index * Heap_file.tuple_bytes file)
    ~cost (Hashed index)

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)

let emit_counters t tracer =
  if Tracer.enabled tracer then begin
    let c name v = Tracer.counter tracer ~cat:"cache" name v in
    c "cache.hits" (float_of_int t.hits);
    c "cache.misses" (float_of_int t.misses);
    c "cache.evictions" (float_of_int t.evictions);
    c "cache.bytes" (float_of_int t.bytes);
    c "cache.hit_ratio" (hit_ratio t)
  end

let stats_json t =
  Json.Obj
    [
      ("hits", Json.Num (float_of_int t.hits));
      ("misses", Json.Num (float_of_int t.misses));
      ("evictions", Json.Num (float_of_int t.evictions));
      ("bytes", Json.Num (float_of_int t.bytes));
      ("hit_ratio", Json.Num (hit_ratio t));
    ]
