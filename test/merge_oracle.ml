(* Test-only reference merge, sharing no code with the library's
   accumulator: a [Map] fold over assoc-list snapshots. Counters and
   gauges add; histograms add count, sum and each bucket. The library
   sends every merge path (pairwise, streaming, tree, packed, the fleet
   run) through one add routine, so the tests hold that routine against
   this independent sum rather than against itself. *)

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

(* The reference for a fleet run's [fr_metrics]: the sum over the
   packed snapshots it retains per board. *)
let merged_metrics (stats : Tock_fleet.Fleet.board_stats array) =
  sum
    (Array.to_list
       (Array.map
          (fun bs ->
            match Metrics.unpack bs.Tock_fleet.Fleet.bs_metrics with
            | Ok snap -> snap
            | Error e -> Alcotest.fail ("unpack: " ^ e))
          stats))
