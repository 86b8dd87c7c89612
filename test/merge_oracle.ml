(* Test-only reference merge: the pairwise fold over the packed
   snapshots a fleet run retains per board. [Fleet.run_fleet] streams
   the same merge into [fr_metrics] through the one shared kernel (see
   the associativity contract in Tock_obs.Metrics); tests hold the two
   byte-identical. *)

let merged_metrics (stats : Tock_fleet.Fleet.board_stats array) =
  match
    Tock_obs.Metrics.merge_packed
      (Array.to_list
         (Array.map (fun bs -> bs.Tock_fleet.Fleet.bs_metrics) stats))
  with
  | Ok snap -> snap
  | Error e -> Alcotest.fail ("merge_packed: " ^ e)
