(** The shared cross-query cache: one per device, shared by every
    scheduler job running against it (see docs/CACHING.md).

    Three kinds of entry, all keyed by {!Taqp_storage.Heap_file.uid}
    (relation {e names} collide across catalogs):

    - {b block contents} keyed [(relation, block)] — a hit replaces the
      {!Taqp_storage.Device.read_block} charge with the much cheaper
      {!Taqp_storage.Device.cache_probe};
    - {b sample prefixes}: one shared without-replacement unit
      permutation per (relation, unit kind), drawn from the cache's own
      PRNG stream. Consumers take consecutive offsets, so every
      consumer's cumulative sample is a simple random sample and two
      jobs sampling the same hot relation draw the {e same} units —
      which is what makes the block cache hit across queries;
    - {b stage summaries}: sorted runs and hash indexes built by
      [Staged] over prefix slices, reusable by any job whose stage
      covers the same slice.

    The cache never touches a device: it only stores, finds and
    predicts. Charging the hit/miss price is the caller's job, which
    keeps every spend on the audited {!Taqp_storage.Device} funnel.

    Eviction is LRU-by-virtual-cost: when stored bytes exceed the
    budget, the entry with the lowest [refetch_cost / age] goes first,
    where [age] counts the ticks (lookups and inserts) since its last
    use. An exact tie goes to the entry used longer ago. Entries are
    kept in one LRU list per distinct refetch cost, so within a list the
    head scores lowest; picking a victim compares the list heads only.
    One eviction costs O(number of distinct costs), not O(entries):
    blocks share one cost, and sorted runs and hash indexes have one per
    size. A lookup hit moves its entry to the tail of its list in O(1).
    Sample prefixes are the correctness backbone (without-replacement
    bookkeeping) and are never evicted; they are a few words per unit.

    Invalidation ({!invalidate_relation}) drops every entry of the
    relation and bumps its generation; in-flight consumers observe the
    bump and fall back to their private PRNG streams, and because a
    relation's prefix stream is derived from [(cache seed, uid)] alone,
    a consumer compiled after the invalidation draws exactly what a
    cold cache would — estimates after a write match a cold run. *)

type t

type unit_kind = Blocks | Tuples
(** The sampling unit of a consumer's plan: disk blocks under cluster
    sampling, tuples under simple random sampling. Each kind has its
    own shared prefix (their populations differ). *)

val create : ?budget_mb:float -> ?seed:int -> unit -> t
(** A fresh cache. [budget_mb] (default 16) bounds the stored bytes;
    [seed] (default 0) roots the per-relation prefix streams. *)

val budget_bytes : t -> int

(** {2 Relation generations} *)

val generation : t -> Taqp_storage.Heap_file.t -> int
(** Bumped by every {!invalidate_relation} of this relation. A consumer
    adopts the generation when it starts sharing the prefix and must
    stop (fall back to its private stream) if the two ever differ. *)

val invalidate_relation : t -> Taqp_storage.Heap_file.t -> unit
(** A write (or detected fault) hit the relation: drop its blocks,
    summaries and prefix, and bump its generation. *)

(** {2 Shared sample prefixes} *)

val prefix_units : t -> file:Taqp_storage.Heap_file.t -> kind:unit_kind ->
  lo:int -> k:int -> int list
(** Units at offsets [lo, lo+k) of the relation's shared permutation,
    extending it (from the cache's own stream) as needed.
    @raise Invalid_argument if [lo + k] exceeds the population. *)

val predict_misses : t -> file:Taqp_storage.Heap_file.t -> kind:unit_kind ->
  lo:int -> k:int -> int
(** How many block reads serving offsets [lo, lo+k) would cost right
    now: distinct uncached blocks among the already-materialized
    offsets, plus every unmaterialized one. Read-only — consumes no
    randomness, so planners and admission pricing can call it freely.
    This is the number the stage planner reports as its [blocks]
    measure, which is how admission prices the {e residual} sample a
    hit leaves to fetch.

    Memoized: per relation, unit kind and [lo], the cache keeps the
    running miss count of offsets [lo, lo+j), extended only as far as
    a call needs. A memo counts block residency of its own relation
    only, so only inserting or removing one of that relation's blocks
    (a store, an eviction, {!invalidate_relation}) drops its memos;
    summary stores and prefix extensions drop none. Between those a
    call costs a hash lookup plus the offsets beyond the furthest one
    already counted (amortized O(1)). The results are the unmemoized
    ones exactly. On the e2e benchmark's [mixed_cache] workload the
    memo cut [timecontrol.plan_us] from 522 to 116 µs per stage and
    raised [qps] from 778 to 1210 (medians of 10 pairs of runs,
    docs/CACHING.md). [predict_misses t ~file ~kind ~lo ~k] is
    [misses_from t ~file ~kind ~lo k]. *)

val misses_from : t -> file:Taqp_storage.Heap_file.t -> kind:unit_kind ->
  lo:int -> int -> int
(** [misses_from t ~file ~kind ~lo] finds the prefix and the memo at
    [lo] once and returns [k -> predict_misses t ~file ~kind ~lo ~k]:
    what a stage planner resolves per scan per planning call, so each
    bisection probe is an array read. Valid until the cache next
    changes (any store, eviction, invalidation or draw): do not keep
    it past the planning call. *)

val memo_count : t -> int
(** How many miss memos are live, over every relation and unit kind.
    Read-only, like {!mem_block}: for tests of which changes drop
    them. *)

(** {2 Blocks} *)

val find_block : t -> file:Taqp_storage.Heap_file.t -> int ->
  Taqp_data.Tuple.t array option
(** The cached contents of block [i], counting a hit or a miss. *)

val store_block : t -> file:Taqp_storage.Heap_file.t -> int -> cost:float ->
  Taqp_data.Tuple.t array -> unit
(** Retain block [i] read at virtual [cost] seconds (the refetch price
    eviction weighs against age). May evict, the new block included.
    Every [store_*] function takes a [cost >= 0]: only then is a
    cost's LRU list in score order.
    @raise Invalid_argument if [cost] is negative or NaN. *)

val mem_block : t -> file:Taqp_storage.Heap_file.t -> int -> bool
(** Whether block [i] is resident. Read-only: counts no hit or miss and
    moves no tick, so it changes no eviction. *)

(** {2 Stage summaries} *)

val find_sorted_run : t -> file:Taqp_storage.Heap_file.t -> kind:unit_kind ->
  lo:int -> hi:int -> key:int array -> Taqp_relational.Sorted_run.t option
(** A sorted run over [kind]-prefix offsets [lo, hi) of the relation's
    current generation, ordered by tuple positions [key], with the int
    keys it was stored with. Counts hit/miss. *)

val mem_sorted_run : t -> file:Taqp_storage.Heap_file.t -> kind:unit_kind ->
  lo:int -> hi:int -> key:int array -> bool
(** Whether that sorted run is resident, read-only like {!mem_block}. *)

val store_sorted_run : t -> file:Taqp_storage.Heap_file.t -> kind:unit_kind ->
  lo:int -> hi:int -> key:int array -> cost:float -> ?keys:int array ->
  Taqp_data.Tuple.t array -> unit
(** Retain sorted [tuples] and, when given, their int keys
    ({!Taqp_relational.Sorted_run.t}). Charges [n * tuple_bytes], keys
    or not. May evict. *)

val find_hash_index : t -> file:Taqp_storage.Heap_file.t -> kind:unit_kind ->
  lo:int -> hi:int -> key:int array -> Taqp_relational.Ops.Hash_index.t option
(** A hash index over [kind]-prefix offsets [lo, hi), keyed on [key].
    Cached indexes are probe-only for consumers. Counts hit/miss. *)

val store_hash_index : t -> file:Taqp_storage.Heap_file.t -> kind:unit_kind ->
  lo:int -> hi:int -> key:int array -> cost:float ->
  Taqp_relational.Ops.Hash_index.t -> unit

(** {2 Accounting} *)

type stats = { hits : int; misses : int; evictions : int; bytes : int }

val stats : t -> stats
val hit_ratio : t -> float
(** [hits / (hits + misses)]; 0 before any lookup. *)

val bind_metrics : t -> Taqp_obs.Metrics.t -> unit
(** Mirror the counters into a registry as [cache.hits], [cache.misses],
    [cache.evictions], [cache.bytes] plus a [cache.hit_ratio] gauge,
    kept current from then on. *)

val emit_counters : t -> Taqp_obs.Tracer.t -> unit
(** Emit the current totals as counter events (category ["cache"]) —
    what the summary sink prints and trace files carry. *)

val stats_json : t -> Taqp_obs.Json.t
