(* Observability overhead benchmark: proves the instrumentation layer is
   free when off and cheap when on, and captures a reference latency
   profile from a real board run. Writes BENCH_obs.json; gates are
   reported through [Timing.report]:

   - the instrumented Sim hot loop (tracing disabled) stays within 3% of
     a seed-replica loop that carries no observability state at all
     (full mode);
   - counter/histogram/trace-emit primitive costs are sampled so a
     regression in the record path is visible in the JSON history;
   - the disabled-mode Trace.emit is truly free: zero minor-heap words
     per call (every mode), and in full mode both under a 4.50 ns/op
     backstop and under 0.60x the enabled record cost;
   - a 10k-board fleet with health rollups on keeps >= 90% of the
     no-rollup throughput (full mode; smoke folds a tiny fleet);
   - a board workload's syscall-class and IRQ dispatch latency
     histograms are summarised (p50/p99) as the reference profile, and
     must be non-empty (every mode).

   Run: dune exec bench/main.exe -- obs
   The `obs-smoke` variant runs tiny iteration counts under
   `dune runtest` so the plumbing (not the host-dependent ratio) is
   exercised on every test run. *)

module Metrics = Tock_obs.Metrics
module Trace = Tock_obs.Trace

(* ---- disabled-mode overhead: instrumented Sim vs a seed replica ---- *)

(* The seed side of the comparison is [Bench_seed_sim]: a frozen,
   field-for-field copy of the pre-observability Sim hot loop, living
   behind its own library boundary so both sides pay the same
   cross-library call cost (see the note in bench/seed_sim).

   Workload: spend in 7-cycle slices while a self-rescheduling event
   fires every 100 cycles — the same probe-mostly-misses,
   occasionally-fires pattern the kernel main loop produces. The two
   sides are timed in alternation and each keeps its best rep, so
   one-sided scheduler noise cannot manufacture (or hide) an overhead. *)
let bench_spend ~iters =
  let seed = Bench_seed_sim.create ~trace_capacity:1024 () in
  let rec seed_tick () = Bench_seed_sim.at seed ~delay:100 seed_tick in
  Bench_seed_sim.at seed ~delay:100 seed_tick;
  let sim = Tock_hw.Sim.create ~trace_capacity:0 () in
  let rec tick () = ignore (Tock_hw.Sim.at sim ~delay:100 tick) in
  ignore (Tock_hw.Sim.at sim ~delay:100 tick);
  Timing.pair
    ("spend/instrumented-sim", iters, fun () -> Tock_hw.Sim.spend sim 7)
    ("spend/seed-replica", iters, fun () -> Bench_seed_sim.spend seed 7)

(* ---- enabled-mode primitive costs ---- *)

let bench_primitives ~iters =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "bench.counter" in
  let h = Metrics.histogram reg "bench.hist" in
  let counter =
    Timing.per_op "metrics/counter-incr" iters (fun () -> Metrics.incr c)
  in
  let v = ref 1 in
  let hist =
    Timing.per_op "metrics/histogram-observe" iters (fun () ->
        Metrics.observe h !v;
        v := (!v * 5) land 0xFFFF)
  in
  let on = Trace.create ~capacity:4096 in
  let off = Trace.create ~capacity:0 in
  let ts = ref 0 in
  let emit_off, emit_on =
    Timing.pair
      ( "trace/emit-disabled",
        iters,
        fun () ->
          Trace.emit off ~ts:0 ~tid:1 Trace.Syscall Trace.Instant ~arg:2
            ~text:"" )
      ( "trace/emit-enabled",
        iters,
        fun () ->
          incr ts;
          Trace.emit on ~ts:!ts ~tid:1 Trace.Syscall Trace.Instant ~arg:2
            ~text:"" )
  in
  (counter, hist, emit_off, emit_on)

(* ---- board workload: reference latency profile ---- *)

let find_hist snap name =
  match List.assoc_opt name snap with
  | Some (Metrics.Histogram hs) -> hs
  | _ -> failwith ("obs: missing histogram " ^ name)

let bench_board ~seconds =
  let sim = Tock_hw.Sim.create ~trace_capacity:4096 () in
  let chip = Tock_hw.Chip.sam4l_like sim in
  let board = Tock_boards.Board.build chip in
  ignore
    (Tock_boards.Board.add_app board ~name:"counter"
       (Tock_userland.Apps.counter ~n:8 ~period_ticks:200));
  ignore
    (Tock_boards.Board.add_app board ~name:"blink"
       (Tock_userland.Apps.blink ~led:0 ~period_ticks:150 ~blinks:8));
  let budget =
    int_of_float (float_of_int (Tock_hw.Sim.clock_hz sim) *. seconds)
  in
  ignore
    (Tock_boards.Board.run_until board ~max_cycles:budget (fun () ->
         Tock_boards.Board.all_processes_done board));
  let snap =
    Metrics.merge
      [
        Tock.Kernel.metrics_snapshot board.Tock_boards.Board.kernel;
        Metrics.snapshot (Tock_hw.Sim.metrics sim);
      ]
  in
  let sys = find_hist snap "kernel.syscall_cycles.command" in
  let irq = find_hist snap "irq.dispatch_cycles" in
  let tr = Tock_hw.Sim.trace_events sim in
  (sys, irq, Trace.total tr, Trace.dropped tr)

(* ---- fleet health rollups: throughput tax of folding every retiring
   board's packed metrics into cross-board distributions ---- *)

let bench_rollup ~boards =
  let cfg =
    {
      Tock_fleet.Fleet.default with
      Tock_fleet.Fleet.boards;
      group_size = 1;
      cycles = 160_000;
      batch = 50_000;
      park = true;
    }
  in
  let run cfg () = ignore (Tock_fleet.Fleet.run_fleet cfg) in
  Timing.pair ~reps:2
    ("rollup/fleet-plain", 1, run cfg)
    ("rollup/fleet-health", 1, run { cfg with Tock_fleet.Fleet.health = true })

(* ---- driver ---- *)

let run_mode ~scale ~assert_ratios ~write () =
  Printf.printf "== obs: observability overhead (scale %.3f) ==\n" scale;
  let it base = max 2 (int_of_float (float_of_int base *. scale)) in
  let real, replica = bench_spend ~iters:(it 200_000) in
  let ratio = real.Timing.ns_per_op /. replica.Timing.ns_per_op in
  let counter, hist, emit_off, emit_on =
    bench_primitives ~iters:(it 200_000)
  in
  let emit_off_ns = emit_off.Timing.ns_per_op in
  let emit_ratio = emit_off_ns /. emit_on.Timing.ns_per_op in
  let rollup_boards = max 100 (int_of_float (10_000.0 *. scale)) in
  let plain, health = bench_rollup ~boards:rollup_boards in
  (* boards/s with rollups relative to boards/s without *)
  let rollup_ratio = plain.Timing.ns_per_op /. health.Timing.ns_per_op in

  (* -- board workload latency profile -- *)
  let seconds = Float.max 0.02 (0.5 *. scale) in
  let sys, irq, trace_total, trace_dropped = bench_board ~seconds in
  let q hs p = Metrics.quantile hs p in
  Printf.printf
    "   board (%.2f sim-s): %d command syscalls p50<=%d p99<=%d cycles\n"
    seconds sys.Metrics.hs_count (q sys 0.5) (q sys 0.99);
  Printf.printf "   irq dispatch: %d serviced, p50<=%d p99<=%d cycles\n"
    irq.Metrics.hs_count (q irq 0.5) (q irq 0.99);
  Printf.printf "   trace: %d events, %d dropped\n" trace_total trace_dropped;

  if write then
    Timing.write_json "obs"
      [
        ("spend_overhead_ratio", Float ratio);
        ("spend_overhead_gate", Float 1.03);
        ("emit_disabled_ns", Float emit_off_ns);
        ("emit_disabled_gate_ns", Float 4.50);
        ("emit_disabled_enabled_ratio", Float emit_ratio);
        ("emit_disabled_enabled_gate", Float 0.60);
        ("rollup_boards", Int rollup_boards);
        ("rollup_throughput_ratio", Float rollup_ratio);
        ("rollup_throughput_gate", Float 0.90);
        ("syscall_command_count", Int sys.Metrics.hs_count);
        ("syscall_command_p50_cycles", Int (q sys 0.5));
        ("syscall_command_p99_cycles", Int (q sys 0.99));
        ("irq_dispatch_count", Int irq.Metrics.hs_count);
        ("irq_dispatch_p50_cycles", Int (q irq 0.5));
        ("irq_dispatch_p99_cycles", Int (q irq 0.99));
        ("trace_events", Int trace_total);
        ("trace_dropped", Int trace_dropped);
      ]
      (List.map Timing.sample_fields
         [ replica; real; counter; hist; emit_on; emit_off; plain; health ]);
  (* The disabled emit must be a single capacity load and branch: zero
     words allocated across any number of calls. Host-independent, so it
     is gated in smoke mode too. Of the two emit-cost gates, the relative
     one (the disabled call must cost well under the enabled record path)
     cancels host-speed drift; the absolute one is a backstop vs the
     3.66 ns/op seed measurement, with headroom for the ~25% run-to-run
     frequency jitter the host shows. *)
  Timing.report "obs"
    ([
       ( "emit-disabled alloc-free",
         emit_off.Timing.words = 0.,
         Printf.sprintf
           "trace/emit-disabled = %g minor words over %d calls (ceiling 0)"
           emit_off.words
           (emit_off.reps * emit_off.iters) );
       ( "board profile",
         sys.Metrics.hs_count > 0 && irq.Metrics.hs_count > 0,
         Printf.sprintf "board = %d command syscalls, %d IRQs (floor 1 each)"
           sys.Metrics.hs_count irq.Metrics.hs_count );
     ]
    @
    if assert_ratios then
      [
        ( "spend overhead",
          ratio <= 1.03,
          Printf.sprintf
            "disabled-mode Sim.spend = %.3fx the seed replica (ceiling 1.03x)"
            ratio );
        ( "emit-disabled cost",
          emit_off_ns <= 4.50,
          Printf.sprintf "trace/emit-disabled = %.2f ns/op (ceiling 4.50)"
            emit_off_ns );
        ( "emit-disabled vs enabled",
          emit_ratio <= 0.60,
          Printf.sprintf
            "trace/emit-disabled = %.2fx the enabled cost (ceiling 0.60x)"
            emit_ratio );
        ( "rollup throughput",
          rollup_ratio >= 0.90,
          Printf.sprintf
            "fleet %d boards with rollups = %.3fx no-rollup throughput \
             (floor 0.90x)"
            rollup_boards rollup_ratio );
      ]
    else [])

let run () = run_mode ~scale:1.0 ~assert_ratios:true ~write:true ()

(* Tiny iteration counts for `dune runtest`: exercises the whole path —
   replica comparison, record primitives, board profile — without
   asserting the host-dependent ratio. *)
let run_smoke () = run_mode ~scale:0.002 ~assert_ratios:false ~write:false ()
