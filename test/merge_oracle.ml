(* Test-only reference merge, sharing no code with the library's
   accumulator: a [Map] fold over assoc-list snapshots. Counters and
   gauges add; histograms add count, sum and each bucket. The library
   sends every merge path (pairwise, streaming, tree, packed, the fleet
   run) through one add routine, so the tests hold that routine against
   this independent sum, over blobs read by an independent decoder,
   rather than against itself. *)

module Metrics = Tock_obs.Metrics
module By_name = Map.Make (String)

let sum (snaps : Metrics.snapshot list) : Metrics.snapshot =
  let add acc (name, v) =
    By_name.update name
      (fun prev ->
        match (prev, v) with
        | None, v -> Some v
        | Some (Metrics.Counter a), Metrics.Counter b -> Some (Metrics.Counter (a + b))
        | Some (Metrics.Gauge a), Metrics.Gauge b -> Some (Metrics.Gauge (a + b))
        | Some (Metrics.Histogram a), Metrics.Histogram b ->
            Some
              (Metrics.Histogram
                 {
                   Metrics.hs_count = a.Metrics.hs_count + b.Metrics.hs_count;
                   hs_sum = a.hs_sum + b.hs_sum;
                   hs_buckets = Array.map2 ( + ) a.hs_buckets b.hs_buckets;
                 })
        | Some _, _ -> Alcotest.failf "Merge_oracle.sum: %s changes type" name)
      acc
  in
  By_name.bindings (List.fold_left (List.fold_left add) By_name.empty snaps)

(* A second reader of the packed blob, written from the layout that
   [Metrics.packed] documents and sharing no code with the library's
   reader: int64-LE words; word [rank] holds each sorted series' value,
   or the word offset of its histogram record (count, sum, npairs, then
   npairs (bucket, n) pairs). *)
let decode (p : Metrics.packed) : Metrics.snapshot =
  let word i = Int64.to_int (String.get_int64_le p.Metrics.p_blob (8 * i)) in
  let sc = p.Metrics.p_schema in
  List.init (Array.length sc.Metrics.sc_names) (fun rank ->
      let v = word rank in
      ( sc.Metrics.sc_names.(rank),
        match sc.Metrics.sc_kinds.[rank] with
        | 'c' -> Metrics.Counter v
        | 'g' -> Metrics.Gauge v
        | 'h' ->
            let hs_buckets = Array.make Metrics.buckets 0 in
            for k = 0 to word (v + 2) - 1 do
              hs_buckets.(word (v + 3 + (2 * k))) <- word (v + 4 + (2 * k))
            done;
            Metrics.Histogram { Metrics.hs_count = word v; hs_sum = word (v + 1); hs_buckets }
        | k -> Alcotest.failf "Merge_oracle.decode: series kind %C" k ))

(* The reference for a fleet run's [fr_metrics]: the sum over the
   packed snapshots it retains per board, read by [decode]. *)
let merged_metrics (stats : Tock_fleet.Fleet.board_stats array) =
  sum (Array.to_list (Array.map (fun bs -> decode bs.Tock_fleet.Fleet.bs_metrics) stats))
