(** Metrics registry: named counters, gauges, and log2-bucketed
    histograms, cheaply recordable from simulation hot paths.

    Handles resolve their name once, at registration; every record
    operation afterwards is a plain field update (no hashing, no
    allocation). Registration is idempotent by name — two subsystems
    registering the same name share one series — and clashing on the
    metric type raises [Invalid_argument].

    Snapshots are deterministic (sorted by name, values copied out), so
    fleets of identical boards render byte-identical output regardless
    of registration order or domain placement. *)

type t
(** A registry. *)

type counter
type gauge
type histogram

val create : unit -> t

val counter : t -> string -> counter
val gauge : t -> string -> gauge
val histogram : t -> string -> histogram

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int
val counter_name : counter -> string

val set : gauge -> int -> unit

val set_max : gauge -> int -> unit
(** Raise the gauge to [v] if above its current value — peak tracking
    (e.g. the fleet scheduler's live-group high-water mark). Note
    {!merge} still {e sums} gauges, so a cross-domain merge of peaks is
    an upper bound, not a global peak. *)

val gauge_value : gauge -> int
val gauge_name : gauge -> string

val observe : histogram -> int -> unit
(** Record one value: count, sum, and the log2 bucket. *)

val histogram_count : histogram -> int
val histogram_sum : histogram -> int
val histogram_name : histogram -> string

val buckets : int
(** Number of histogram buckets (64). *)

val bucket_index : int -> int
(** [bucket_index v]: 0 for [v <= 0]; otherwise [floor(log2 v) + 1],
    clamped to [buckets - 1] — i.e. bucket [b >= 1] holds values in
    [\[2^(b-1), 2^b)]. *)

val bucket_lower_bound : int -> int
(** Smallest value a bucket can hold ([min_int] for bucket 0). *)

val on_snapshot : t -> (unit -> unit) -> unit
(** Register a sync hook run (in registration order) at the start of
    every {!snapshot} — used to publish externally-held state (process
    tables, ring drop counts) as gauges without touching hot paths. *)

(** {2 Snapshots} *)

type hist_snapshot = { hs_count : int; hs_sum : int; hs_buckets : int array }

type value = Counter of int | Gauge of int | Histogram of hist_snapshot

type snapshot = (string * value) list
(** Sorted by name. *)

val snapshot : t -> snapshot

val quantile : hist_snapshot -> float -> int
(** Upper bound of the bucket holding the q-quantile observation
    (0 when empty, [max_int] from the top bucket): within 2x of the
    true quantile, monotone in q. *)

val merge : snapshot list -> snapshot
(** Merge by name: counters and gauges sum, histograms add bucket-wise.
    [Invalid_argument] if one name carries two metric types.

    {b Associativity contract.} A registry is its own accumulator
    ({!Accum}): every merge path — [merge] over snapshots, packed
    images folded in with {!Accum.add_packed}, per-domain registries
    tree-merged with {!Accum.absorb} — sums into a registry's records
    through one add routine (counter + counter, gauge + gauge,
    histogram count/sum/buckets element-wise). Integer sums are
    associative {e and} commutative, so any merge tree over the same
    multiset of inputs produces the same snapshot, rendered sorted by
    name. The fleet runner relies on this to merge per-board stats as
    groups retire, in whatever order domains finish, and still emit
    byte-identical output. *)

(** {2 Packed snapshots}

    A [snapshot] assoc list costs ~10 kB of boxed heap per board; a
    100k-board fleet cannot afford to retain that. [packed] stores the
    same information as a shared immutable {!schema} (sorted names +
    kinds — pooled globally, so every board built from the same recipe
    physically shares one) plus one flat byte blob private to the
    board. The blob is a string, so the major GC never scans retained
    fleet stats — re-marking 100k boards' worth of boxed snapshots was
    the dominant cost of large fleets. Equal registries pack to
    structurally equal values regardless of domain placement: the
    layout is a pure function of the sorted (name, kind, value)
    sequence, never of global mutable ids. *)

type schema = {
  sc_names : string array;  (** sorted ascending *)
  sc_kinds : string;  (** ['c'|'g'|'h'] per sorted entry *)
}

type packed = {
  p_schema : schema;
  p_blob : string;
      (** int64-LE words, no-scan. Words [0, n): per sorted entry, the
          counter/gauge value or the absolute word offset of the
          entry's histogram record. Words [n, ...): per histogram at
          its offset: count; sum; npairs; then npairs (bucket index,
          bucket count) pairs, ascending *)
}

val packed_of : t -> packed
(** Snapshot a registry directly into packed form (runs the same sync
    hooks as {!snapshot}) — the one blob encoder.
    [unpack (packed_of t) = snapshot t]. Sorting cost is paid once per
    distinct registration sequence via a pooled pack plan; subsequent
    boards pay two array fills. *)

val pack : snapshot -> packed
(** [packed_of] over a fresh registry filled from the snapshot. *)

val iter_packed :
  packed ->
  counter:(string -> int -> unit) ->
  gauge:(string -> int -> unit) ->
  hist:(string -> count:int -> sum:int -> 'a) ->
  bucket:('a -> int -> int -> unit) ->
  (unit, string) result
(** The one reader of a packed image: every other reader below is a
    walk through it. Series go by in schema order; a histogram surfaces
    as its count and sum, and the handle [hist] returns is passed to
    [bucket] with each non-empty (bucket index, n) pair, ascending.
    Every offset, pair count and bucket index is range-checked before
    use: a damaged image stops the walk with [Error], never an
    exception (series before the damage have already been visited). *)

val validate_packed : packed -> (unit, string) result
(** Structural check of a packed image against its own schema: names
    strictly ascending, and the blob length, histogram offsets, pair
    counts and bucket indices all in range. Images built by
    {!packed_of}/{!pack} pass by construction; images rebuilt from
    external bytes may not. *)

val unpack : packed -> (snapshot, string) result
(** Validate, add into a fresh registry, snapshot: a truncated or
    bit-flipped image yields [Error], never an exception. *)

val packed_codec : packed Codec.t
(** The binary form: series count, then per series a length-prefixed
    name and its kind byte, then the blob. Decoding runs
    {!validate_packed}: truncated or corrupted input yields [Error],
    never an exception. Unframed — board witnesses and flight
    artifacts nest it inside their own checksummed frame. *)

val packed_to_string : packed -> string
(** [Codec.encode packed_codec]: compact and deterministic (for digests
    and stats keys). *)

val packed_of_string : string -> (packed, string) result
(** [Codec.decode packed_codec]. *)

val restore_packed : t -> packed -> (unit, string) result
(** Overwrite the registry's values from a packed image — the thaw side
    of board freeze/thaw, and the {!Accum.add_packed} walk with
    overwrite in place of add. Series missing from the registry are
    created. [Error], never an exception, if the image fails
    {!validate_packed}, if a name exists with a different metric type,
    or if the registry holds series the image does not (their stale
    values would survive the restore); the registry may then be partly
    overwritten. *)

(** {2 Accumulation}

    A registry is its own accumulator: {!Accum.t} {e is} {!t}, and
    every add goes into the registry's own counter, gauge and
    histogram records. [add_packed] builds no snapshot: scalars add in
    place and histogram pairs add into the registry's bucket arrays. *)

module Accum : sig
  type nonrec t = t

  val create : unit -> t

  val add : t -> snapshot -> unit

  val add_packed : t -> packed -> unit
  (** Add a packed image through {!iter_packed}. [Invalid_argument] if
      the image is damaged (images from {!packed_of} never are; check
      external ones with {!validate_packed} first) or a name clashes
      in type. *)

  val absorb : into:t -> t -> unit
  (** Add a whole registry's {!snapshot} into [into] (tree merge across
      domains). [src] is unchanged. *)

  val to_snapshot : t -> snapshot
  (** {!snapshot}: the accumulated totals, sorted by name —
      byte-identical for any grouping/order of the same inputs (see the
      associativity contract on {!val-merge}). *)
end

val render_text : snapshot -> string
(** Aligned human-readable table, histograms as count/sum/p50/p99. *)

val render_json : snapshot -> string
(** Deterministic JSON object keyed by metric name; histograms as
    [{"count", "sum", "buckets": [[index, n], ...]}] (empty buckets
    omitted). *)
