module Heap_file = Taqp_storage.Heap_file
module Tuple = Taqp_data.Tuple
module Ops = Taqp_relational.Ops
module Sorted_run = Taqp_relational.Sorted_run
module Prng = Taqp_rng.Prng
module Metrics = Taqp_obs.Metrics
module Tracer = Taqp_obs.Tracer
module Json = Taqp_obs.Json

type unit_kind = Blocks | Tuples

let kind_tag = function Blocks -> 0 | Tuples -> 1

(* A [predict_misses] running count for one prefix and start offset
   [lo]: [m_cum.(j)] is the reads serving offsets [lo, lo+j) costs, for
   [j <= m_len]; under [Tuples], [m_filled] holds the uncached blocks
   those offsets already counted, so a second tuple of one block costs
   nothing. *)
type memo = {
  mutable m_cum : int array;
  mutable m_len : int;
  m_filled : (int, unit) Hashtbl.t;
}

(* One shared without-replacement permutation prefix per (relation,
   unit kind). [p_units.(0 .. p_len)] is a uniformly random sequence of
   distinct units, extended on demand from [p_rng]; any prefix of it is
   a simple random sample, so a consumer holding offsets [0, m) has
   exactly the sample its private stream would have given it — just the
   *same* one every other consumer holds.

   [p_memos] holds the prefix's miss memos by [lo]. A memo counts only
   [K_block] residency of its own relation at offsets it has already
   materialized, so only a block insert or removal of that relation
   can move it ([drop_memos]); a summary store cannot, and an
   extension only appends offsets past every counted one. *)
type prefix = {
  p_n : int;
  mutable p_units : int array;
  mutable p_len : int;
  p_drawn : (int, unit) Hashtbl.t;
  p_rng : Prng.t;
  p_memos : (int, memo) Hashtbl.t;
}

type value =
  | Block of Tuple.t array
  | Sorted of Sorted_run.t
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

(* Each entry sits in the ring of its cost class: every entry of one
   [s_cost], oldest [s_last_use] first, linked through a sentinel whose
   [s_next] is the head and [s_prev] the tail. A sentinel is a [stored]
   too, holding no value, and is its own [s_ring]. *)
type stored = {
  s_key : key;
  s_bytes : int;
  s_cost : float;  (* virtual seconds to rebuild on a miss *)
  mutable s_last_use : int;  (* logical access tick *)
  s_value : value;
  s_ring : stored;  (* the sentinel of this entry's cost class *)
  mutable s_prev : stored;
  mutable s_next : stored;
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

type t = {
  budget_bytes : int;
  seed : int;
  store : (key, stored) Hashtbl.t;
  classes : (float, stored) Hashtbl.t;
      (* cost -> sentinel of that cost's ring; a class leaves with its
         last entry *)
  prefixes : (int * int, prefix) Hashtbl.t;  (* (uid, kind tag) *)
  generations : (int, int) Hashtbl.t;
  mutable bytes : int;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable binding : binding option;
  resident : (int, Bytes.t) Hashtbl.t;
      (* uid -> byte [b] nonzero iff block [b] is in [store]: what a miss
         memo walks, read without hashing a key per block *)
}

let create ?(budget_mb = 16.0) ?(seed = 0) () =
  {
    budget_bytes = int_of_float (budget_mb *. 1024.0 *. 1024.0);
    seed;
    store = Hashtbl.create 1024;
    classes = Hashtbl.create 16;
    prefixes = Hashtbl.create 16;
    generations = Hashtbl.create 16;
    bytes = 0;
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    binding = None;
    resident = Hashtbl.create 16;
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

(* Every miss memo of relation [uid], both unit kinds: what a change to
   the relation's block residency can move. *)
let drop_memos t uid =
  List.iter
    (fun kind ->
      match Hashtbl.find_opt t.prefixes (uid, kind_tag kind) with
      | Some p -> Hashtbl.reset p.p_memos
      | None -> ())
    [ Blocks; Tuples ]

let resident_blocks t uid =
  Option.value (Hashtbl.find_opt t.resident uid) ~default:Bytes.empty

let is_resident bm b = b < Bytes.length bm && Bytes.get bm b <> '\000'

(* Grown on demand, by doubling, to cover the highest block stored. *)
let set_resident t uid b v =
  let bm = resident_blocks t uid in
  let bm =
    if b < Bytes.length bm || not v then bm
    else begin
      let grown = Bytes.make (Int.max (b + 1) (2 * Bytes.length bm)) '\000' in
      Bytes.blit bm 0 grown 0 (Bytes.length bm);
      Hashtbl.replace t.resident uid grown;
      grown
    end
  in
  if b < Bytes.length bm then Bytes.set bm b (if v then '\001' else '\000')

(* Only block residency reaches a memo. *)
let store_changed t ~stored = function
  | K_block (uid, b) ->
      set_resident t uid b stored;
      drop_memos t uid
  | K_sorted _ | K_hash _ -> ()

let memo_count t =
  Hashtbl.fold (fun _ p acc -> acc + Hashtbl.length p.p_memos) t.prefixes 0

(* ------------------------------------------------------------------ *)
(* Cost classes                                                        *)

let ring_of t cost =
  match Hashtbl.find_opt t.classes cost with
  | Some ring -> ring
  | None ->
      let rec ring =
        {
          s_key = K_block (-1, -1);
          s_bytes = 0;
          s_cost = cost;
          s_last_use = 0;
          s_value = Block [||];
          s_ring = ring;
          s_prev = ring;
          s_next = ring;
        }
      in
      Hashtbl.replace t.classes cost ring;
      ring

let unlink s =
  s.s_prev.s_next <- s.s_next;
  s.s_next.s_prev <- s.s_prev

let link_tail s =
  let ring = s.s_ring in
  s.s_prev <- ring.s_prev;
  s.s_next <- ring;
  ring.s_prev.s_next <- s;
  ring.s_prev <- s

let remove_entry t s =
  Hashtbl.remove t.store s.s_key;
  unlink s;
  if s.s_ring.s_next == s.s_ring then Hashtbl.remove t.classes s.s_cost;
  t.bytes <- t.bytes - s.s_bytes;
  store_changed t ~stored:false s.s_key

(* ------------------------------------------------------------------ *)
(* Generations and invalidation                                        *)

let gen_of_uid t uid =
  match Hashtbl.find_opt t.generations uid with Some g -> g | None -> 0

let generation t file = gen_of_uid t (Heap_file.uid file)

let invalidate_relation t file =
  let uid = Heap_file.uid file in
  Hashtbl.replace t.generations uid (gen_of_uid t uid + 1);
  (* The relation's memos go with its prefixes, whether or not it has
     stored entries for [remove_entry] to drop them. *)
  Hashtbl.remove t.prefixes (uid, kind_tag Blocks);
  Hashtbl.remove t.prefixes (uid, kind_tag Tuples);
  let doomed =
    Hashtbl.fold
      (fun k s acc -> if key_uid k = uid then s :: acc else acc)
      t.store []
  in
  List.iter (remove_entry t) doomed;
  sync_binding t

(* ------------------------------------------------------------------ *)
(* Eviction: the entry with the lowest refetch cost per age of ticks
   goes first; an exact tie goes to the older [s_last_use]. Within a
   cost class the ring's head is the oldest entry, so it has the class's
   lowest score, and the victim is the best of the heads: one score per
   class, not per entry. Costs are non-negative, which keeps a class's
   score order its age order. *)

let score t s = s.s_cost /. float_of_int (t.tick - s.s_last_use + 1)

let victim t =
  Hashtbl.fold
    (fun _ ring best ->
      let s = ring.s_next in
      let sc = score t s in
      match best with
      | Some (b, bc) when bc < sc || (bc = sc && b.s_last_use < s.s_last_use)
        ->
          best
      | Some _ | None -> Some (s, sc))
    t.classes None

let evict_until_fits t =
  while t.bytes > t.budget_bytes && Hashtbl.length t.store > 0 do
    match victim t with
    | None -> ()
    | Some (s, _) ->
        remove_entry t s;
        t.evictions <- t.evictions + 1
  done;
  sync_binding t

let insert t k ~bytes ~cost v =
  if not (cost >= 0.0) then invalid_arg "Cache: refetch cost < 0 or NaN";
  if bytes <= t.budget_bytes && not (Hashtbl.mem t.store k) then begin
    t.tick <- t.tick + 1;
    let ring = ring_of t cost in
    let s =
      {
        s_key = k;
        s_bytes = bytes;
        s_cost = cost;
        s_last_use = t.tick;
        s_value = v;
        s_ring = ring;
        s_prev = ring;
        s_next = ring;
      }
    in
    link_tail s;
    Hashtbl.replace t.store k s;
    t.bytes <- t.bytes + bytes;
    store_changed t ~stored:true k;
    evict_until_fits t
  end

let lookup t k =
  t.tick <- t.tick + 1;
  match Hashtbl.find_opt t.store k with
  | Some s ->
      s.s_last_use <- t.tick;
      unlink s;
      link_tail s;
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
          p_memos = Hashtbl.create 8;
        }
      in
      Hashtbl.replace t.prefixes key p;
      p

let extend_prefix p upto =
  if upto > p.p_len then begin
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
  extend_prefix p (lo + k);
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
    let resident = resident_blocks t (Heap_file.uid file) in
    (* A [Blocks] prefix never repeats a unit, so no block is counted
       twice and [m_filled] stays empty. *)
    let repeats = match kind with Blocks -> false | Tuples -> true in
    for j = m.m_len to upto - 1 do
      let b = block_of_unit file kind p.p_units.(lo + j) in
      (* blocks the stage will have filled itself by the time it needs
         them again (two tuples of one uncached block cost one read) *)
      let read =
        (not (is_resident resident b))
        && not (repeats && Hashtbl.mem m.m_filled b)
      in
      if read && repeats then Hashtbl.add m.m_filled b ();
      m.m_cum.(j + 1) <- (m.m_cum.(j) + if read then 1 else 0)
    done;
    m.m_len <- upto
  end

(* A memo lives until a block of its relation enters or leaves the
   store; past this many start offsets on one prefix the table starts
   over, which bounds it without changing an answer. *)
let max_memos = 64

(* Stage planning bisects on the sample fraction and prices every probe
   at one [lo] and many [k], with no cache mutation in between: the
   prefix and memo are found once, and each probe is an array read
   plus the offsets beyond the furthest one already counted. *)
let misses_from t ~file ~kind ~lo =
  let uid = Heap_file.uid file in
  match Hashtbl.find_opt t.prefixes (uid, kind_tag kind) with
  | Some p when lo < p.p_len ->
      let m =
        match Hashtbl.find_opt p.p_memos lo with
        | Some m -> m
        | None ->
            if Hashtbl.length p.p_memos >= max_memos then
              Hashtbl.reset p.p_memos;
            let m =
              {
                m_cum = Array.make 64 0;
                m_len = 0;
                m_filled = Hashtbl.create 16;
              }
            in
            Hashtbl.replace p.p_memos lo m;
            m
      in
      fun k ->
        if k <= 0 then k
        else begin
          let mat = Int.min k (p.p_len - lo) in
          extend_memo t ~file ~kind p ~lo m mat;
          m.m_cum.(mat) + (k - mat)
        end
  | Some _ | None -> Fun.id

let predict_misses t ~file ~kind ~lo ~k = misses_from t ~file ~kind ~lo k

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

let mem_block t ~file i = is_resident (resident_blocks t (Heap_file.uid file)) i

let summary_key ctor t file ~kind ~lo ~hi ~key =
  let uid = Heap_file.uid file in
  ctor uid (gen_of_uid t uid) (kind_tag kind) lo hi (Array.to_list key)

let k_sorted u g kd lo hi key = K_sorted (u, g, kd, lo, hi, key)
let k_hash u g kd lo hi key = K_hash (u, g, kd, lo, hi, key)

let find_sorted_run t ~file ~kind ~lo ~hi ~key =
  match lookup t (summary_key k_sorted t file ~kind ~lo ~hi ~key) with
  | Some (Sorted a) -> Some a
  | Some _ | None -> None

let mem_sorted_run t ~file ~kind ~lo ~hi ~key =
  Hashtbl.mem t.store (summary_key k_sorted t file ~kind ~lo ~hi ~key)

(* The byte charge counts the tuples only: the keys are a host-side
   copy of fields already counted, and charging them would move every
   eviction decision. *)
let store_sorted_run t ~file ~kind ~lo ~hi ~key ~cost ?keys tuples =
  insert t
    (summary_key k_sorted t file ~kind ~lo ~hi ~key)
    ~bytes:(Array.length tuples * Heap_file.tuple_bytes file)
    ~cost (Sorted { Sorted_run.tuples; keys })

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
