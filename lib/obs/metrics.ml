(* The metrics registry: named counters, gauges, and log2-bucketed
   histograms, designed for hot-path recording.

   - Handles are resolved by name once, at registration time; the record
     operations ([incr]/[add]/[set]/[observe]) are plain field updates
     with no hashing, no allocation, and no branching beyond bounds.
   - Registration is idempotent by name, so independent subsystems that
     agree on a name share one series (used deliberately: the two boards
     of a radio group share their sim-level hardware counters).
   - Snapshots are deterministic: entries sorted by name, with values
     copied out, so a fleet of boards renders byte-identical output for
     identical work regardless of registration order or domain placement.

   Histograms bucket by log2: bucket 0 holds values <= 0, bucket b >= 1
   holds [2^(b-1), 2^b). 64 buckets cover the whole int range; cycle
   latencies at any plausible clock rate fit with room to spare. *)

let buckets = 64

type counter = { c_name : string; mutable c_value : int }

type gauge = { g_name : string; mutable g_value : int }

type histogram = {
  h_name : string;
  mutable h_count : int;
  mutable h_sum : int;
  h_buckets : int array; (* length [buckets] *)
}

type metric = Mc of counter | Mg of gauge | Mh of histogram

type t = {
  by_name : (string, metric) Hashtbl.t;
  mutable sync_hooks : (unit -> unit) list; (* run (in registration order)
                                               before every snapshot *)
}

let create () = { by_name = Hashtbl.create 64; sync_hooks = [] }

let clash name = invalid_arg ("Metrics: " ^ name ^ " registered with another type")

let counter t name =
  match Hashtbl.find_opt t.by_name name with
  | Some (Mc c) -> c
  | Some _ -> clash name
  | None ->
      let c = { c_name = name; c_value = 0 } in
      Hashtbl.replace t.by_name name (Mc c);
      c

let gauge t name =
  match Hashtbl.find_opt t.by_name name with
  | Some (Mg g) -> g
  | Some _ -> clash name
  | None ->
      let g = { g_name = name; g_value = 0 } in
      Hashtbl.replace t.by_name name (Mg g);
      g

let histogram t name =
  match Hashtbl.find_opt t.by_name name with
  | Some (Mh h) -> h
  | Some _ -> clash name
  | None ->
      let h =
        { h_name = name; h_count = 0; h_sum = 0; h_buckets = Array.make buckets 0 }
      in
      Hashtbl.replace t.by_name name (Mh h);
      h

let incr c = c.c_value <- c.c_value + 1

let add c n = c.c_value <- c.c_value + n

let counter_value c = c.c_value

let counter_name c = c.c_name

let set g v = g.g_value <- v

let set_max g v = if v > g.g_value then g.g_value <- v

let gauge_value g = g.g_value

let gauge_name g = g.g_name

let bucket_index v =
  if v <= 0 then 0
  else begin
    (* floor(log2 v) + 1, clamped: v=1 -> 1, v in [2^(b-1), 2^b) -> b. *)
    let i = ref 0 and v = ref v in
    while !v > 0 do
      i := !i + 1;
      v := !v lsr 1
    done;
    if !i > buckets - 1 then buckets - 1 else !i
  end

let bucket_lower_bound b =
  if b <= 0 then min_int else 1 lsl (b - 1)

let observe h v =
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v;
  let b = bucket_index v in
  h.h_buckets.(b) <- h.h_buckets.(b) + 1

let histogram_count h = h.h_count

let histogram_sum h = h.h_sum

let histogram_name h = h.h_name

let on_snapshot t hook = t.sync_hooks <- t.sync_hooks @ [ hook ]

(* ---- snapshots ---- *)

type hist_snapshot = { hs_count : int; hs_sum : int; hs_buckets : int array }

type value = Counter of int | Gauge of int | Histogram of hist_snapshot

type snapshot = (string * value) list

let snapshot t =
  List.iter (fun hook -> hook ()) t.sync_hooks;
  Hashtbl.fold
    (fun name m acc ->
      let v =
        match m with
        | Mc c -> Counter c.c_value
        | Mg g -> Gauge g.g_value
        | Mh h ->
            Histogram
              { hs_count = h.h_count; hs_sum = h.h_sum;
                hs_buckets = Array.copy h.h_buckets }
      in
      (name, v) :: acc)
    t.by_name []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let quantile hs q =
  (* Upper bound of the bucket holding the q-quantile observation: exact
     enough for latency reporting (within 2x), monotone in q. *)
  if hs.hs_count = 0 then 0
  else begin
    let rank =
      let r = int_of_float (ceil (q *. float_of_int hs.hs_count)) in
      if r < 1 then 1 else if r > hs.hs_count then hs.hs_count else r
    in
    let b = ref 0 and seen = ref 0 in
    (try
       for i = 0 to buckets - 1 do
         seen := !seen + hs.hs_buckets.(i);
         if !seen >= rank then begin
           b := i;
           raise Exit
         end
       done
     with Exit -> ());
    if !b = 0 then 0
    else if !b >= buckets - 1 then max_int
    else (1 lsl !b) - 1
  end

(* ---- packed snapshots ----

   A snapshot as an assoc list costs ~10 kB of boxed heap per board —
   prohibitive retained state for 100k-board fleets. The packed form
   splits a snapshot into an immutable *schema* (sorted names + metric
   kinds), shared by every board whose registry registered the same
   series, and one flat byte blob private to the board: scalars
   (counter/gauge values, or word offsets into the histogram area) and
   a sparse histogram area (count, sum, pair count, then non-empty
   (bucket, n) pairs per histogram), all int64-LE words. The blob is a
   string, so the major GC never scans it: a fleet retaining 100k of
   these pays ~a dozen marked words per board, not ~150 — re-marking
   retained stats was the dominant cost of large single-process fleets
   (wall time at 40k boards dropped ~3x when the arrays became
   no-scan).

   Schemas and the iteration-order pack plans are pooled in a global
   mutex-guarded table: a fleet of identical boards shares one schema
   object (the "registry name table", hoisted fleet-level) and pays the
   name sort exactly once. Packing is therefore a cache hit plus two
   array-fill passes per board. Equal registries pack to structurally
   equal values whatever the domain interleaving: the layout is a pure
   function of (sorted names, kinds, values). *)

type schema = {
  sc_names : string array; (* sorted ascending *)
  sc_kinds : string;       (* 'c' | 'g' | 'h' per sorted entry *)
}

type packed = {
  p_schema : schema;
  p_blob : string;
      (* int64-LE words, no-scan. Words [0, n): per sorted entry, the
         counter/gauge value or the absolute word offset of its
         histogram record. Words [n, ...): histogram area — per
         histogram, at its offset: count; sum; npairs; then npairs
         (bucket index, bucket count) pairs in ascending bucket order *)
}

let kind_char = function Mc _ -> 'c' | Mg _ -> 'g' | Mh _ -> 'h'

(* A pack plan: the schema plus the registry-iteration-order -> sorted
   rank mapping, keyed by the names+kinds in iteration order. Identical
   board recipes register identically, so a whole fleet resolves to a
   handful of plans. The table is cross-domain shared state: guarded. *)
type pack_plan = {
  pl_schema : schema;
  pl_order : int array; (* pl_order.(rank) = index in iteration order *)
}

let plans_mutex = Mutex.create ()

(* otock-lint: allow domain-safety the only access path is [plan_for], whose lookup/insert runs entirely under [Mutex.protect plans_mutex]; stored plans are immutable once built *)
let plans : (string, pack_plan) Hashtbl.t = Hashtbl.create 16

let make_plan names kinds_it =
  let n = Array.length names in
  let order = Array.init n Fun.id in
  Array.sort (fun a b -> compare names.(a) names.(b)) order;
  let sc_names = Array.map (fun i -> names.(i)) order in
  let sc_kinds = String.init n (fun rank -> kinds_it.(order.(rank))) in
  { pl_schema = { sc_names; sc_kinds }; pl_order = order }

let plan_for names kinds_it =
  let key =
    let b = Buffer.create 1024 in
    Array.iteri
      (fun i nm ->
        Buffer.add_string b nm;
        Buffer.add_char b kinds_it.(i);
        Buffer.add_char b '\x00')
      names;
    Buffer.contents b
  in
  Mutex.protect plans_mutex (fun () ->
      match Hashtbl.find_opt plans key with
      | Some p -> p
      | None ->
          let p = make_plan names kinds_it in
          Hashtbl.replace plans key p;
          p)

let hist_pairs h_buckets =
  let nz = ref 0 in
  Array.iter (fun v -> if v <> 0 then Stdlib.incr nz) h_buckets;
  !nz

let packed_of t =
  List.iter (fun hook -> hook ()) t.sync_hooks;
  let n = Hashtbl.length t.by_name in
  let names = Array.make n "" in
  let ms = Array.make n (Mc { c_name = ""; c_value = 0 }) in
  let kinds_it = Array.make n 'c' in
  let i = ref 0 in
  Hashtbl.iter
    (fun name m ->
      names.(!i) <- name;
      ms.(!i) <- m;
      kinds_it.(!i) <- kind_char m;
      Stdlib.incr i)
    t.by_name;
  let plan = plan_for names kinds_it in
  let order = plan.pl_order in
  (* Histogram area size, walking in rank order so offsets are a pure
     function of the sorted layout. *)
  let hist_words = ref 0 in
  Array.iter
    (fun it ->
      match ms.(it) with
      | Mh h -> hist_words := !hist_words + 3 + (2 * hist_pairs h.h_buckets)
      | _ -> ())
    order;
  let blob = Bytes.create (8 * (n + !hist_words)) in
  let set i v = Bytes.set_int64_le blob (8 * i) (Int64.of_int v) in
  let cursor = ref n in
  Array.iteri
    (fun rank it ->
      match ms.(it) with
      | Mc c -> set rank c.c_value
      | Mg g -> set rank g.g_value
      | Mh h ->
          let off = !cursor in
          set rank off;
          set off h.h_count;
          set (off + 1) h.h_sum;
          let np = ref 0 in
          let j = ref (off + 3) in
          Array.iteri
            (fun b v ->
              if v <> 0 then begin
                set !j b;
                set (!j + 1) v;
                j := !j + 2;
                Stdlib.incr np
              end)
            h.h_buckets;
          set (off + 2) !np;
          cursor := !j)
    order;
  { p_schema = plan.pl_schema; p_blob = Bytes.unsafe_to_string blob }

(* The one reader of the blob layout. Series go by in schema order:
   counters and gauges surface as their value; a histogram surfaces as
   its count and sum ([hist] returns a handle for it), then each of its
   non-empty (bucket, n) pairs goes to [bucket] with that handle. Every
   word is range-checked before it is read or handed on, so a truncated
   or bit-flipped image stops the walk with [Error], never an
   exception; the callbacks may have seen the series before the
   damage. *)
exception Damaged of string

let blob_word blob i = Int64.to_int (String.get_int64_le blob (8 * i))

let iter_packed p ~counter ~gauge ~hist ~bucket =
  let sc = p.p_schema and blob = p.p_blob in
  let n = Array.length sc.sc_names and words = String.length blob / 8 in
  let damaged fmt = Printf.ksprintf (fun m -> raise (Damaged m)) fmt in
  match
    if String.length sc.sc_kinds <> n then
      damaged "schema has %d names but %d kinds" n (String.length sc.sc_kinds);
    if String.length blob mod 8 <> 0 || words < n then
      damaged "blob is %d bytes for %d series" (String.length blob) n;
    for rank = 0 to n - 1 do
      let name = sc.sc_names.(rank) in
      match sc.sc_kinds.[rank] with
      | 'c' -> counter name (blob_word blob rank)
      | 'g' -> gauge name (blob_word blob rank)
      | 'h' ->
          let off = blob_word blob rank in
          if off < n || off > words - 3 then
            damaged "series %s: histogram offset %d out of range" name off;
          let np = blob_word blob (off + 2) in
          if np < 0 || np > buckets || off + 3 + (2 * np) > words then
            damaged "series %s: %d histogram pairs out of range" name np;
          let a =
            hist name ~count:(blob_word blob off) ~sum:(blob_word blob (off + 1))
          in
          for j = 0 to np - 1 do
            let b = blob_word blob (off + 3 + (2 * j)) in
            if b < 0 || b >= buckets then
              damaged "series %s: bucket %d out of range" name b;
            bucket a b (blob_word blob (off + 4 + (2 * j)))
          done
      | k -> damaged "series %s: unknown kind %C" name k
    done
  with
  | () -> Ok ()
  | exception Damaged m -> Error ("packed: " ^ m)

(* ---- accumulation ----

   A registry is its own accumulator. Merging is a per-name integer sum
   into the registry's records (counters and gauges add; histograms add
   count, sum and each bucket), so it is associative and commutative:
   any grouping or ordering of the same inputs accumulates the same
   totals, and [snapshot] renders them sorted by name — byte-identical
   output however the merge tree was shaped. The four [add_*] below are
   the one add routine behind every merge path: snapshots, packed
   images and whole registries. *)

let add_counter t name v =
  let c = counter t name in
  c.c_value <- c.c_value + v

let add_gauge t name v =
  let g = gauge t name in
  g.g_value <- g.g_value + v

let add_hist t name ~count ~sum =
  let h = histogram t name in
  h.h_count <- h.h_count + count;
  h.h_sum <- h.h_sum + sum;
  h.h_buckets

let add_bucket a b n = a.(b) <- a.(b) + n

module Accum = struct
  type nonrec t = t

  let create = create

  let add t snap =
    List.iter
      (fun (name, v) ->
        match v with
        | Counter n -> add_counter t name n
        | Gauge n -> add_gauge t name n
        | Histogram hs ->
            let a = add_hist t name ~count:hs.hs_count ~sum:hs.hs_sum in
            Array.iteri (add_bucket a) hs.hs_buckets)
      snap

  let add_packed t p =
    match
      iter_packed p ~counter:(add_counter t) ~gauge:(add_gauge t)
        ~hist:(add_hist t) ~bucket:add_bucket
    with
    | Ok () -> ()
    | Error e -> invalid_arg ("Metrics.Accum.add_packed: " ^ e)

  let absorb ~into src = add into (snapshot src)

  let to_snapshot = snapshot
end

let merge snaps =
  let t = create () in
  List.iter (Accum.add t) snaps;
  snapshot t

(* A snapshot packs through a registry, so [packed_of] stays the only
   blob encoder. *)
let pack snap =
  let t = create () in
  Accum.add t snap;
  packed_of t

(* Structural validation of a packed image against its own schema:
   names strictly ascending (no series twice), and every word the
   walker reads in range. [packed_of]/[pack] build images that pass by
   construction; images rebuilt from bytes (board witnesses,
   flight-recorder artifacts) may be truncated or bit-flipped, and the
   contract mirrors the board-witness hardening: [Error] with a
   diagnostic, never an exception. *)
let names_ascending p =
  let names = p.p_schema.sc_names in
  let rec from i =
    i >= Array.length names
    || (String.compare names.(i - 1) names.(i) < 0 && from (i + 1))
  in
  if from 1 then Ok () else Error "packed: series names not strictly ascending"

let validate_packed p =
  Result.bind (names_ascending p) (fun () ->
      iter_packed p
        ~counter:(fun _ _ -> ())
        ~gauge:(fun _ _ -> ())
        ~hist:(fun _ ~count:_ ~sum:_ -> ())
        ~bucket:(fun () _ _ -> ()))

let unpack p =
  match validate_packed p with
  | Error e -> Error e
  | Ok () ->
      let t = create () in
      Accum.add_packed t p;
      Ok (snapshot t)

(* The wire form: the schema as a counted list of (name, kind) entries,
   then the blob, which already is the canonical int64-LE value image.
   Decoding validates the rebuilt image, so external bytes that decode
   are safe for every reader. *)
let packed_codec =
  Codec.(conv
           (fun p ->
             let sc = p.p_schema in
             (Array.mapi (fun rank nm -> (nm, sc.sc_kinds.[rank])) sc.sc_names, p.p_blob))
           (fun (entries, blob) ->
             let p =
               { p_schema =
                   { sc_names = Array.map fst entries;
                     sc_kinds = String.init (Array.length entries) (fun i -> snd entries.(i)) };
                 p_blob = blob }
             in
             match validate_packed p with Ok () -> p | Error e -> fail "%s" e)
           (pair (array (pair string char)) rest))

let packed_to_string p = Codec.encode packed_codec p

let packed_of_string s = Codec.decode packed_codec s

(* Overwrite a registry's values from a packed image: the thaw path of
   board freeze/thaw, and the accumulation walk with [<-] in place of
   [+]. Series missing from the registry are created (snapshot hooks
   mint gauges lazily, so a freshly-built board has fewer series than
   its frozen image). A name registered with another kind, or a
   registry series absent from the image (its stale value would
   survive), is an [Error]; so is a damaged image, which the walk may
   have half applied by then. *)
let restore_packed t p =
  let overwrite () =
    iter_packed p
      ~counter:(fun name v -> (counter t name).c_value <- v)
      ~gauge:(fun name v -> (gauge t name).g_value <- v)
      ~hist:(fun name ~count ~sum ->
        let h = histogram t name in
        h.h_count <- count;
        h.h_sum <- sum;
        Array.fill h.h_buckets 0 buckets 0;
        h.h_buckets)
      ~bucket:(fun a b n -> a.(b) <- n)
  in
  (* Ascending names first: the stale-series count below is only sound
     when no name repeats. *)
  match Result.bind (names_ascending p) overwrite with
  | exception Invalid_argument m -> Error ("restore_packed: " ^ m)
  | Error e -> Error e
  | Ok () ->
      let n = Array.length p.p_schema.sc_names in
      if Hashtbl.length t.by_name <> n then
        Error
          (Printf.sprintf
             "restore_packed: registry has %d series, image has %d — stale \
              series would survive"
             (Hashtbl.length t.by_name) n)
      else Ok ()

(* ---- rendering ---- *)

let render_text snap =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, v) ->
      match v with
      | Counter n -> Buffer.add_string buf (Printf.sprintf "%-44s %12d\n" name n)
      | Gauge n ->
          Buffer.add_string buf (Printf.sprintf "%-44s %12d (gauge)\n" name n)
      | Histogram hs ->
          Buffer.add_string buf
            (Printf.sprintf "%-44s count=%d sum=%d p50<=%d p99<=%d\n" name
               hs.hs_count hs.hs_sum (quantile hs 0.5) (quantile hs 0.99)))
    snap;
  Buffer.contents buf

let render_json snap =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  let first = ref true in
  List.iter
    (fun (name, v) ->
      if not !first then Buffer.add_string buf ",\n";
      first := false;
      (match v with
      | Counter n -> Buffer.add_string buf (Printf.sprintf "  %S: %d" name n)
      | Gauge n -> Buffer.add_string buf (Printf.sprintf "  %S: %d" name n)
      | Histogram hs ->
          Buffer.add_string buf
            (Printf.sprintf "  %S: {\"count\": %d, \"sum\": %d, \"buckets\": ["
               name hs.hs_count hs.hs_sum);
          let firstb = ref true in
          Array.iteri
            (fun i n ->
              if n > 0 then begin
                if not !firstb then Buffer.add_string buf ", ";
                firstb := false;
                Buffer.add_string buf (Printf.sprintf "[%d, %d]" i n)
              end)
            hs.hs_buckets;
          Buffer.add_string buf "]}"))
    snap;
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf
