(* The fleet workloads: [Fleet.run_fleet] timed end to end, and a replay
   of the same boards through the public calls [Fleet] itself makes —
   [group_seed], [Board.build], [add_app] with the same app mix table,
   [run_to_deadline] in [batch] quanta, [sleep_to], [freeze] and a
   fresh-board [thaw] at the park threshold, and the retire step — which
   must reproduce the timed run's [fr_stats] byte for byte. With spans
   off the replay is the output checker; with spans on it is the traced
   run that splits host time across the layers. *)

module Fleet = Tock_fleet.Fleet
module Board = Tock_boards.Board
module Kernel = Tock.Kernel
module Metrics = Tock_obs.Metrics
module Rollup = Tock_obs.Rollup
module Apps = Tock_userland.Apps

type shape = {
  boards : int;
  domains : int;
  cycles : int;
  park : bool;
  park_min_quanta : int;
  health : bool;
}

(* fleet-boot: a 1k-cycle budget, so construction, app load and retire
   are nearly all of each board's work. *)
let boot = { boards = 20_000; domains = 1; cycles = 1_000; park = false;
             park_min_quanta = Fleet.default.Fleet.park_min_quanta; health = true }

(* fleet-park: 4M cycles at the default 250k batch with a 3-quantum park
   threshold, so boards sleeping through sensor-logger periods freeze to
   witnesses and thaw back, on two work-stealing domains. *)
let park = { boards = 20_000; domains = 2; cycles = 4_000_000; park = true;
             park_min_quanta = 3; health = false }

(* The seed picks the fleet seed and adds 0-20 boards, so each seed also
   shifts the mix/jitter phase of the fleet's tail. *)
let config ?fault_board shape ~seed =
  {
    Fleet.default with
    Fleet.boards = shape.boards + (((seed mod 21) + 21) mod 21);
    fault_board;
    domains = shape.domains;
    cycles = shape.cycles;
    park = shape.park;
    park_min_quanta = shape.park_min_quanta;
    health = shape.health;
    seed = Fleet.group_seed 0xF1EE_2026L seed;
  }

(* ---- the fleet's board recipe, rebuilt from public pieces ---- *)

(* One app of a board: its name, body, and the line it prints last
   before exiting (checked whenever the budget let it finish). *)
type app = { name : string; main : Tock_userland.Emu.app -> unit; last : string option }

(* The fleet's mix table: 3 mixes x 7 jitters, chosen by absolute board
   index. It must stay in step with [Fleet]'s own table; the replay's
   byte-for-byte comparison against [fr_stats] fails if it drifts. *)
let mixes =
  Array.init 3 (fun mix ->
      Array.init 7 (fun jitter ->
          match mix with
          | 0 ->
              [
                { name = "counter";
                  main = Apps.counter ~n:8 ~period_ticks:(200 + (17 * jitter));
                  last = Some "counter: count 8\r\n" };
                { name = "hello"; main = Apps.hello; last = Some "Hello from hello!\r\n" };
              ]
          | 1 ->
              [
                { name = "blink";
                  main = Apps.blink ~led:0 ~period_ticks:(150 + (13 * jitter)) ~blinks:10;
                  last = None };
                { name = "sensors";
                  main = Apps.sensor_logger ~samples:4 ~period_ticks:(900 + (31 * jitter));
                  last = Some "sample 4: " };
              ]
          | _ ->
              [
                { name = "kv"; main = Apps.kv_user ~rounds:4;
                  last = Some "kv: 4/4 roundtrips ok\r\n" };
                { name = "hello"; main = Apps.hello; last = Some "Hello from hello!\r\n" };
              ]))

let apps_of (cfg : Fleet.config) idx =
  if cfg.Fleet.fault_board = Some idx then
    [ { name = "crasher"; main = Apps.fault_injector ~delay_ticks:200; last = None } ]
  else mixes.(idx mod 3).(idx mod 7)

let build (cfg : Fleet.config) idx =
  let sim = Tock_hw.Sim.create ~seed:(Fleet.group_seed cfg.Fleet.seed idx) ~trace_capacity:0 () in
  let chip = Tock_hw.Chip.sam4l_like sim in
  if cfg.Fleet.fault_board = Some idx then
    Board.build
      ~config:{ (Kernel.default_config ()) with Kernel.fault_policy = Kernel.Stop_on_fault }
      chip
  else Board.build chip

let load b apps idx =
  List.iter
    (fun a ->
      match Board.add_app b ~name:a.name a.main with
      | Ok _ -> ()
      | Error e ->
          failwith (Printf.sprintf "board %d app %s: %s" idx a.name (Tock.Error.to_string e)))
    apps

let stats_of ~idx ~seed (b : Board.t) =
  let s = Kernel.stats b.Board.kernel in
  let sim = b.Board.sim in
  let out = Board.output b in
  {
    Fleet.bs_board = idx;
    bs_seed = seed;
    bs_cycles = Tock_hw.Sim.now sim;
    bs_active_cycles = Tock_hw.Sim.active_cycles sim;
    bs_sleep_cycles = Tock_hw.Sim.sleep_cycles sim;
    bs_syscalls = s.Kernel.syscalls;
    bs_context_switches = s.Kernel.context_switches;
    bs_upcalls = s.Kernel.upcalls_delivered;
    bs_output_bytes = String.length out;
    bs_output_digest = Digest.to_hex (Digest.string out);
    bs_metrics = Metrics.packed_of (Kernel.metrics b.Board.kernel);
  }

(* Every field of a board's stats, packed metrics included. *)
let stats_key (bs : Fleet.board_stats) =
  Printf.sprintf "%d|%Ld|%d|%d|%d|%d|%d|%d|%d|%s|%s" bs.Fleet.bs_board bs.Fleet.bs_seed
    bs.Fleet.bs_cycles bs.Fleet.bs_active_cycles bs.Fleet.bs_sleep_cycles
    bs.Fleet.bs_syscalls bs.Fleet.bs_context_switches bs.Fleet.bs_upcalls
    bs.Fleet.bs_output_bytes bs.Fleet.bs_output_digest
    (Metrics.packed_to_string bs.Fleet.bs_metrics)

let fleet_hash stats =
  Digest.to_hex
    (Digest.string
       (String.concat "" (Array.to_list (Array.map (fun bs -> Digest.string (stats_key bs)) stats))))

let fingerprint stats =
  let sum f = Array.fold_left (fun a bs -> a + f bs) 0 stats in
  {
    Report.fp_active = sum (fun bs -> bs.Fleet.bs_active_cycles);
    fp_sleep = sum (fun bs -> bs.Fleet.bs_sleep_cycles);
    fp_syscalls = sum (fun bs -> bs.Fleet.bs_syscalls);
    fp_upcalls = sum (fun bs -> bs.Fleet.bs_upcalls);
    fp_outputs =
      Digest.to_hex
        (Digest.string
           (String.concat "" (Array.to_list (Array.map (fun bs -> bs.Fleet.bs_output_digest) stats))));
  }

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec matches i j = j = m || (s.[i + j] = sub.[j] && matches i (j + 1)) in
  let rec at i = i + m <= n && (matches i 0 || at (i + 1)) in
  at 0

(* The output checks of one retired board: no fault, no stall, and every
   app that exited printed its final line. *)
let check_board apps (b : Board.t) ~stalled =
  let k = b.Board.kernel in
  if (Kernel.stats k).Kernel.faults > 0 then Some "process fault"
  else if stalled && not (Board.all_processes_done b) then Some "stalled with live processes"
  else
    let out = Board.output b in
    List.find_map
      (fun p ->
        let pname = Tock.Process.name p in
        match Tock.Process.state p with
        | Tock.Process.Faulted _ -> Some (pname ^ " faulted")
        | Tock.Process.Terminated { code } when code <> 0 ->
            Some (Printf.sprintf "%s exited %d" pname code)
        | Tock.Process.Terminated _ -> (
            match List.find_opt (fun a -> a.name = pname) apps with
            | Some { last = Some line; _ } when not (contains out line) ->
                Some (Printf.sprintf "%s: final line %S missing" pname line)
            | _ -> None)
        | _ -> None)
      (Kernel.processes k)

(* ---- the replay ---- *)

type replay = {
  stats : Fleet.board_stats array;
  failures : (int * string) list;  (* boards failing a check, board order *)
  metrics : Metrics.snapshot;  (* kernel-side registries, merged *)
  hw : Metrics.snapshot;  (* Sim registries, merged *)
  health : string option;  (* Rollup.render_json of the health report *)
  parks : int;
  thaw_fallbacks : int;
}

(* Drive one board exactly as the fleet scheduler drives a single-board
   group: [batch] quanta up to the budget, parked sleeps taken as one
   [sleep_to] before the next quantum, the rest of the budget warped
   over when the wake lies beyond it, and (with [park]) a freeze plus a
   fresh-board thaw when the sleep spans the park threshold. *)
let run_board sp (cfg : Fleet.config) wbuf idx ~parks ~fallbacks =
  let apps = apps_of cfg idx in
  let fresh () =
    let b = Spans.span sp Spans.Construct ~arg:idx (fun () -> build cfg idx) in
    Spans.span sp Spans.Load ~arg:idx (fun () -> load b apps idx);
    b
  in
  let b = ref (fresh ()) in
  let wake = ref (-1) and fin = ref false and stalled = ref false in
  while not !fin do
    let bd = !b in
    let k = bd.Board.kernel and cap = bd.Board.main_cap in
    if !wake >= 0 then begin
      let w = !wake in
      Spans.span sp Spans.Sleep_to ~arg:idx (fun () -> Kernel.sleep_to k ~cap w);
      wake := -1
    end;
    let now = Tock_hw.Sim.now bd.Board.sim in
    let deadline = min (now + cfg.Fleet.batch) cfg.Fleet.cycles in
    match Spans.span sp Spans.Quantum ~arg:idx (fun () -> Kernel.run_to_deadline k ~cap ~deadline) with
    | `Budget -> if Tock_hw.Sim.now bd.Board.sim >= cfg.Fleet.cycles then fin := true
    | `Stalled ->
        fin := true;
        stalled := true
    | `Asleep w when w >= cfg.Fleet.cycles ->
        Spans.span sp Spans.Sleep_to ~arg:idx (fun () -> Kernel.sleep_to k ~cap cfg.Fleet.cycles);
        fin := true
    | `Asleep w
      when cfg.Fleet.park
           && w - Tock_hw.Sim.now bd.Board.sim >= cfg.Fleet.park_min_quanta * cfg.Fleet.batch ->
        let witness = Spans.span sp Spans.Freeze ~arg:idx (fun () -> Kernel.freeze ~buf:wbuf k) in
        incr parks;
        b :=
          Spans.span sp Spans.Resume ~arg:idx (fun () ->
              let nb = fresh () in
              match
                Spans.span sp Spans.Thaw ~arg:idx (fun () ->
                    Kernel.thaw nb.Board.kernel ~cap:nb.Board.main_cap witness)
              with
              | Ok () -> nb
              | Error _ -> (
                  incr fallbacks;
                  let rb = fresh () in
                  match Kernel.restore rb.Board.kernel ~cap:rb.Board.main_cap witness with
                  | Ok () -> rb
                  | Error e -> failwith (Printf.sprintf "board %d: restore: %s" idx e)));
        wake := w
    | `Asleep w -> wake := w
  done;
  (!b, !stalled)

(* The fleet's per-domain GC tuning for board churn (a 4M-word minor
   heap and space_overhead 240), applied around the single-domain
   replay so both runs see the same collector settings. *)
let with_fleet_gc f =
  let saved = Gc.get () in
  Gc.set { saved with Gc.minor_heap_size = 1 lsl 22; space_overhead = 240 };
  Fun.protect ~finally:(fun () -> Gc.set saved) f

let replay ?(sp = Spans.off) (cfg : Fleet.config) =
  with_fleet_gc @@ fun () ->
  let n = cfg.Fleet.boards in
  let wbuf = Buffer.create (64 * 1024) in
  let accum = Metrics.Accum.create () and hw = Metrics.Accum.create () in
  let roll = if cfg.Fleet.health then Some (Rollup.create ~cohorts:3) else None in
  let parks = ref 0 and fallbacks = ref 0 and failures = ref [] in
  let stats =
    Array.init n (fun idx ->
        let b, stalled = run_board sp cfg wbuf idx ~parks ~fallbacks in
        let seed = Fleet.group_seed cfg.Fleet.seed idx in
        let bs = Spans.span sp Spans.Retire ~arg:idx (fun () -> stats_of ~idx ~seed b) in
        Spans.span sp Spans.Merge ~arg:idx (fun () ->
            Metrics.Accum.add_packed accum bs.Fleet.bs_metrics);
        (match roll with
        | Some r ->
            Spans.span sp Spans.Rollup_add ~arg:idx (fun () ->
                Rollup.add_packed r ~cohort:(idx mod 3) bs.Fleet.bs_metrics)
        | None -> ());
        Metrics.Accum.add hw (Metrics.snapshot (Tock_hw.Sim.metrics b.Board.sim));
        (match check_board (apps_of cfg idx) b ~stalled with
        | Some why -> failures := (idx, why) :: !failures
        | None -> ());
        bs)
  in
  let metrics = Spans.span sp Spans.Merge ~arg:(-1) (fun () -> Metrics.Accum.to_snapshot accum) in
  let health =
    Option.map
      (fun r ->
        Rollup.render_json
          (Rollup.evaluate r ~slos:Fleet.default_slos ~iter_boards:(fun f ->
               Array.iter
                 (fun bs ->
                   f ~cohort:(bs.Fleet.bs_board mod 3) ~board:bs.Fleet.bs_board
                     bs.Fleet.bs_metrics)
                 stats)))
      roll
  in
  {
    stats;
    failures = List.rev !failures;
    metrics;
    hw = Metrics.Accum.to_snapshot hw;
    health;
    parks = !parks;
    thaw_fallbacks = !fallbacks;
  }

(* Compare a replay with a fleet result. Returns the boards that fail
   (a check, or a stats mismatch) and whether the fleet-wide merged
   metrics and health report also match. *)
let compare_replay (r : Fleet.fleet_result) rp =
  let mismatched = ref [] in
  Array.iteri
    (fun i bs ->
      if not (String.equal (stats_key bs) (stats_key rp.stats.(i))) then
        mismatched := (i, "stats differ from the replay") :: !mismatched)
    r.Fleet.fr_stats;
  let failing =
    List.sort_uniq (fun (a, _) (b, _) -> compare a b) (rp.failures @ !mismatched)
  in
  let metrics_ok =
    String.equal (Metrics.render_json r.Fleet.fr_metrics) (Metrics.render_json rp.metrics)
  in
  let health_ok =
    match (r.Fleet.fr_health, rp.health) with
    | None, None -> true
    | Some h, Some j -> String.equal (Rollup.render_json h) j
    | _ -> false
  in
  (failing, metrics_ok && health_ok)

let report_failures label failing =
  List.iteri
    (fun i (b, why) -> if i < 5 then Printf.printf "%s: board %d: %s\n" label b why)
    failing

(* ---- measurement ---- *)

let warmup cfg = ignore (Fleet.run_fleet { cfg with Fleet.boards = min cfg.Fleet.boards 256 })

type rep = {
  wall_ns : int;
  retained : int;  (* live words *)
  active : int;
  syscalls : int;
  hash : string;
}

let timed_rep cfg =
  let base = Gcwatch.live_words () in
  let t0 = Clock.now_ns () in
  let r = Fleet.run_fleet cfg in
  let wall_ns = Clock.now_ns () - t0 in
  let retained = Gcwatch.live_words () - base in
  let fp = fingerprint r.Fleet.fr_stats in
  ( { wall_ns; retained; active = fp.Report.fp_active; syscalls = fp.Report.fp_syscalls;
      hash = fleet_hash r.Fleet.fr_stats },
    r )

(* The checker must be able to fail: a small fleet with the fault
   injector on one board has to be flagged, and only on that board. *)
let fault_probe ~seed =
  let cfg =
    { Fleet.default with Fleet.boards = 24; cycles = 2_000_000; fault_board = Some 7;
      seed = Fleet.group_seed 0xFA17L seed }
  in
  let r = Fleet.run_fleet cfg in
  let failing, _ = compare_replay r (replay cfg) in
  let flagged = List.map fst failing in
  Printf.printf "fault probe: %d/%d boards flagged (%s)\n" (List.length flagged)
    cfg.Fleet.boards
    (String.concat "," (List.map string_of_int flagged));
  flagged = [ 7 ]

(* Timed reps of the whole fleet until [seconds] have passed (at least
   two), then the checks on the last rep's result. *)
let run ?fault_board ~shape ~seed ~seconds ~t0 () =
  let cfg = config ?fault_board shape ~seed in
  warmup cfg;
  let setup_s = Clock.s_of_ns (Clock.now_ns () - t0) in
  let start = Clock.now_ns () in
  let rec loop acc =
    let rep, r = timed_rep cfg in
    let acc = rep :: acc in
    if List.length acc >= 2 && Clock.s_of_ns (Clock.now_ns () - start) >= seconds then (List.rev acc, r)
    else loop acc
  in
  let reps, last = loop [] in
  let peak = Gcwatch.peak_heap_mb () in
  let boards = cfg.Fleet.boards in
  let nreps = List.length reps in
  let med f = Samples.median_float (List.map f reps) in
  let ns r = float_of_int r.wall_ns in
  let values =
    [
      ("wall_s", med (fun r -> ns r /. 1e9));
      ("boards_per_s", med (fun r -> float_of_int boards /. (ns r /. 1e9)));
      ("ns_per_active_cycle", med (fun r -> ns r /. float_of_int r.active));
      ("ns_per_syscall", med (fun r -> ns r /. float_of_int r.syscalls));
      ("setup_s", setup_s);
      ( "retained_bytes_per_board",
        med (fun r -> float_of_int (r.retained * (Sys.word_size / 8)) /. float_of_int boards) );
      ("peak_heap_mb", peak);
    ]
  in
  Printf.printf "reps: %d, walls_s: %s\n" nreps
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.4f" (ns r /. 1e9)) reps));
  (* Checks, outside every timed window. *)
  let last_hash = fleet_hash last.Fleet.fr_stats in
  let bad_reps = List.length (List.filter (fun r -> not (String.equal r.hash last_hash)) reps) in
  let failing, fleet_ok = compare_replay last (replay cfg) in
  report_failures "check" failing;
  let park_ok =
    (not cfg.Fleet.park)
    || String.equal last_hash
         (fleet_hash (Fleet.run_fleet { cfg with Fleet.park = false; domains = 1 }).Fleet.fr_stats)
  in
  if not park_ok then print_endline "check: parked fleet differs from park-off 1-domain fleet";
  if not fleet_ok then print_endline "check: merged metrics or health differ from the replay";
  if bad_reps > 0 then Printf.printf "check: %d reps differ from the last\n" bad_reps;
  let probe_ok = fault_probe ~seed in
  let failed = List.length failing + (bad_reps * boards) in
  {
    Report.correct = failed = 0 && fleet_ok && park_ok && probe_ok;
    attempted = boards * nreps;
    failed;
    values;
    fp = fingerprint last.Fleet.fr_stats;
  }

(* Host time to the first timed simulated cycle, for run.py's set-up
   probes. *)
let setup ~shape ~seed ~t0 =
  warmup (config shape ~seed);
  Clock.s_of_ns (Clock.now_ns () - t0)

let sched_metrics ~domains_wall (r : Fleet.fleet_result) ~layer_s =
  let c name = Report.counter r.Fleet.fr_sched ("fleet.sched." ^ name) in
  let f = float_of_int in
  let resumes = c "board_resumes" and fallbacks = c "thaw_fallbacks" and parks = c "board_parks" in
  [
    ("fleet.dispatches", f (c "dispatches"));
    ("fleet.steals", f (c "steals"));
    ("fleet.fast_forwards", f (c "fast_forwards"));
    ("fleet.board_parks", f parks);
    ("fleet.board_resumes", f resumes);
    ("fleet.thaw_fallbacks", f fallbacks);
    ( "fleet.thaw_ok_ratio",
      if resumes = 0 then 1. else f (resumes - fallbacks) /. f resumes );
    ("fleet.live_groups_peak", f (c "live_groups_peak"));
    ( "fleet.witness_bytes_per_park",
      if parks = 0 then 0. else f (c "witness_bytes") /. f parks );
    ("fleet.residual_s", domains_wall -. layer_s);
  ]

(* The traced run: untraced [run_fleet] reps for the scheduler counts,
   GC deltas and pauses; then the replay twice over the same boards,
   spans off and on, both checked against [fr_stats]. *)
let traced ~shape ~seed ~seconds ~trace_file =
  let cfg = config shape ~seed in
  warmup cfg;
  let gw = Gcwatch.create () in
  let start = Clock.now_ns () in
  let rec loop n win walls =
    let t0 = Clock.now_ns () in
    let r, win = Gcwatch.window gw win (fun () -> Fleet.run_fleet cfg) in
    let walls = Clock.s_of_ns (Clock.now_ns () - t0) :: walls in
    if n + 1 >= 2 && Clock.s_of_ns (Clock.now_ns () - start) >= seconds /. 2. then
      (n + 1, win, walls, r)
    else loop (n + 1) win walls
  in
  let nreps, win, walls, r = loop 0 Gcwatch.zero [] in
  let timed_replay sp =
    let t0 = Clock.now_ns () in
    let rp = replay ~sp cfg in
    (rp, Clock.now_ns () - t0)
  in
  (* The untraced replay is checked and dropped before the traced one
     runs, so both see the same live heap. *)
  let (fail_off, ok_off), off_ns =
    let rp, ns = timed_replay Spans.off in
    (compare_replay r rp, ns)
  in
  let sp = Spans.create ~on:true in
  let rp_on, on_ns = timed_replay sp in
  let fail_on, ok_on = compare_replay r rp_on in
  report_failures "replay" fail_on;
  let replay_ok = fail_off = [] && fail_on = [] && ok_off && ok_on in
  Printf.printf "replay: %s fr_stats of %d boards (%d parks, %d thaw fallbacks); gc events lost: %d\n"
    (if replay_ok then "reproduces" else "DOES NOT reproduce")
    cfg.Fleet.boards rp_on.parks rp_on.thaw_fallbacks !(gw.Gcwatch.lost);
  Out_channel.with_open_bin trace_file (fun oc -> output_string oc (Spans.chrome_json sp));
  let domains = min cfg.Fleet.domains cfg.Fleet.boards in
  let fp = fingerprint r.Fleet.fr_stats in
  let values =
    Report.span_metrics sp
    @ Report.layer_counts ~kernel:r.Fleet.fr_metrics ~hw:rp_on.hw
    @ [
        ("sim.active_cycles", float_of_int fp.Report.fp_active);
        ("sim.sleep_cycles", float_of_int fp.Report.fp_sleep);
        ("trace.overhead_s", Clock.s_of_ns (on_ns - off_ns));
      ]
    @ sched_metrics r
        ~domains_wall:(float_of_int domains *. Samples.median_float walls)
        ~layer_s:(Spans.top_s sp)
    @ Report.gc_metrics ~boards:cfg.Fleet.boards win gw ~reps:nreps
  in
  {
    Report.correct = replay_ok;
    attempted = cfg.Fleet.boards;
    failed = List.length fail_on;
    values;
    fp;
  }

(* Only the fingerprint: one untimed fleet run. *)
let fingerprint_only ~shape ~seed =
  fingerprint (Fleet.run_fleet (config shape ~seed)).Fleet.fr_stats
