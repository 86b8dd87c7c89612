(* Metric names, units, and the result line.

   [end_to_end] and [per_layer] are the benchmark's metric contract, in
   the order BENCHMARK.json lists them; run.py's self-test checks the
   two against each other. Every workload prints every metric of the
   mode it runs in; a layer a workload bypasses reads 0. *)

let end_to_end =
  [
    ("wall_s", "s");
    ("boards_per_s", "1/s");
    ("ns_per_active_cycle", "ns");
    ("ns_per_syscall", "ns");
    ("setup_s", "s");
    ("retained_bytes_per_board", "B");
    ("peak_heap_mb", "MB");
  ]

let syscall_classes =
  [ "command"; "subscribe"; "allow_ro"; "allow_rw"; "yield"; "memop"; "exit" ]

let drivers = [ "alarm"; "console"; "kv"; "ipc"; "hmac"; "led"; "temperature" ]

let per_layer =
  [
    ("board.construct_us.p50", "us");
    ("board.construct_us.p99", "us");
    ("board.load_us.p50", "us");
    ("rot.secure_boot_ms.p50", "ms");
    ("rot.secure_boot_ms.p99", "ms");
    ("kernel.run_s", "s");
    ("kernel.quantum_us.p50", "us");
    ("kernel.quantum_us.p99", "us");
    ("kernel.sleep_to_s", "s");
    ("kernel.syscalls", "count");
  ]
  @ List.map (fun c -> ("kernel.syscalls." ^ c, "count")) syscall_classes
  @ [
      ("kernel.context_switches", "count");
      ("kernel.upcalls_delivered", "count");
      ("kernel.loop_iterations", "count");
      ("kernel.sleeps", "count");
      ("kernel.faults", "count");
      ("kernel.freeze_us.p50", "us");
      ("kernel.freeze_us.p99", "us");
      ("kernel.thaw_us.p50", "us");
      ("kernel.thaw_us.p99", "us");
      ("fleet.witness_bytes_per_park", "B");
      ("fleet.dispatches", "count");
      ("fleet.steals", "count");
      ("fleet.fast_forwards", "count");
      ("fleet.board_parks", "count");
      ("fleet.board_resumes", "count");
      ("fleet.thaw_fallbacks", "count");
      ("fleet.thaw_ok_ratio", "ratio");
      ("fleet.live_groups_peak", "count");
      ("fleet.residual_s", "s");
    ]
  @ List.map (fun d -> ("driver." ^ d ^ ".commands", "count")) drivers
  @ [
      ("console.tx_bytes", "B");
      ("alarm_mux.fired", "count");
      ("sim.active_cycles", "cycles");
      ("sim.sleep_cycles", "cycles");
      ("irq.serviced", "count");
      ("hw_timer.fires", "count");
      ("mpu.scans", "count");
      ("retire_us.p50", "us");
      ("obs.rollup_add_us.p50", "us");
      ("obs.merge_s", "s");
      ("gc.minor_words_per_board", "words");
      ("gc.promoted_words_per_board", "words");
      ("gc.major_collections", "count");
      ("gc.pause_s", "s");
      ("gc.pause_us.p99", "us");
      ("trace.overhead_s", "s");
    ]
  @ List.map
      (fun l -> ("layer." ^ Spans.name l ^ ".self_s", "s"))
      (Array.to_list Spans.layers)

(* Numbers as measured, all digits; JSON has no nan/inf. *)
let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

(* Print the result line for [names] (the metric set of this mode),
   taking values from [values]; a name without a value reads 0. *)
let emit ~correct ~attempted ~failed ~names values =
  let metric (name, unit) =
    let v = Option.value (List.assoc_opt name values) ~default:0. in
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " (List.map metric names))

(* Lookups in a merged metrics snapshot. *)
let counter snap name =
  match List.assoc_opt name snap with
  | Some (Tock_obs.Metrics.Counter n) | Some (Tock_obs.Metrics.Gauge n) -> n
  | Some (Tock_obs.Metrics.Histogram h) -> h.Tock_obs.Metrics.hs_count
  | None -> 0

(* Sum of every series named [prefix ^ _ ^ suffix] (e.g. the per-process
   [process.<name>.mpu_scans] gauges). *)
let sum_matching snap ~prefix ~suffix =
  List.fold_left
    (fun acc (name, _) ->
      if
        String.starts_with ~prefix name
        && String.ends_with ~suffix name
        && String.length name > String.length prefix + String.length suffix
      then acc + counter snap name
      else acc)
    0 snap

(* The counts every workload reports from the kernel-side registry
   ([kernel]: kernel, driver, capsule and process series) and the
   hardware-side one ([hw]: Sim series). *)
let layer_counts ~kernel ~hw =
  let f = float_of_int in
  let either name = f (max (counter kernel name) (counter hw name)) in
  [
    ("kernel.syscalls", either "kernel.syscalls");
    ("kernel.context_switches", either "kernel.context_switches");
    ("kernel.upcalls_delivered", either "kernel.upcalls_delivered");
    ("kernel.loop_iterations", either "kernel.loop_iterations");
    ("kernel.sleeps", either "kernel.sleeps");
    ("kernel.faults", either "kernel.faults");
    ("console.tx_bytes", either "console.tx_bytes");
    ("alarm_mux.fired", either "alarm_mux.fired");
    ("irq.serviced", either "irq.serviced");
    ("hw_timer.fires", either "hw_timer.fires");
    ( "mpu.scans",
      f (sum_matching kernel ~prefix:"process." ~suffix:".mpu_scans") );
  ]
  @ List.map
      (fun c ->
        ("kernel.syscalls." ^ c, f (counter kernel ("kernel.syscall_cycles." ^ c))))
      syscall_classes
  @ List.map
      (fun d ->
        let n = "driver." ^ d ^ ".commands" in
        (n, either n))
      drivers

(* The span-derived metrics every workload shares. *)
let span_metrics sp =
  let q l p = Spans.quantile_us sp l p in
  [
    ("board.construct_us.p50", q Spans.Construct 0.5);
    ("board.construct_us.p99", q Spans.Construct 0.99);
    ("board.load_us.p50", q Spans.Load 0.5);
    ("rot.secure_boot_ms.p50", q Spans.Secure_boot 0.5 /. 1e3);
    ("rot.secure_boot_ms.p99", q Spans.Secure_boot 0.99 /. 1e3);
    ("kernel.run_s", Spans.total_s sp Spans.Quantum);
    ("kernel.quantum_us.p50", q Spans.Quantum 0.5);
    ("kernel.quantum_us.p99", q Spans.Quantum 0.99);
    ("kernel.sleep_to_s", Spans.total_s sp Spans.Sleep_to);
    ("kernel.freeze_us.p50", q Spans.Freeze 0.5);
    ("kernel.freeze_us.p99", q Spans.Freeze 0.99);
    ("kernel.thaw_us.p50", q Spans.Thaw 0.5);
    ("kernel.thaw_us.p99", q Spans.Thaw 0.99);
    ("retire_us.p50", q Spans.Retire 0.5);
    ("obs.rollup_add_us.p50", q Spans.Rollup_add 0.5);
    ("obs.merge_s", Spans.total_s sp Spans.Merge);
  ]
  @ List.map
      (fun l -> ("layer." ^ Spans.name l ^ ".self_s", Spans.self_s sp l))
      (Array.to_list Spans.layers)

let gc_metrics ~boards (w : Gcwatch.window) (gw : Gcwatch.t) ~reps =
  let per_board x = x /. float_of_int (boards * reps) in
  [
    ("gc.minor_words_per_board", per_board w.Gcwatch.minor_words);
    ("gc.promoted_words_per_board", per_board w.Gcwatch.promoted_words);
    ("gc.major_collections", float_of_int w.Gcwatch.major_collections /. float_of_int reps);
    ( "gc.pause_s",
      Clock.s_of_ns (Gcwatch.pause_total_ns gw) /. float_of_int reps );
    ( "gc.pause_us.p99",
      float_of_int (Samples.quantile gw.Gcwatch.pauses 0.99) /. 1e3 );
  ]

(* The simulated-statistics fingerprint: exact counts that a speed-only
   change must leave identical. *)
type fingerprint = {
  fp_active : int;
  fp_sleep : int;
  fp_syscalls : int;
  fp_upcalls : int;
  fp_outputs : string;  (* MD5 over every board's output digest, in order *)
}

(* What one workload run reports: the result line and the fingerprint. *)
type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;
  fp : fingerprint;
}

let fingerprint_line ~workload ~seed fp =
  Printf.sprintf
    "%s %d active_cycles=%d sleep_cycles=%d syscalls=%d upcalls=%d outputs=%s"
    workload seed fp.fp_active fp.fp_sleep fp.fp_syscalls fp.fp_upcalls
    fp.fp_outputs

(* Compare against the reference fingerprints recorded beside the
   benchmark, when one exists for this workload and seed. *)
let reference_file = "otbench/fingerprints.txt"

let check_reference ~workload ~seed fp =
  let line = fingerprint_line ~workload ~seed fp in
  let key = Printf.sprintf "%s %d " workload seed in
  let reference =
    if not (Sys.file_exists reference_file) then None
    else
      In_channel.with_open_text reference_file In_channel.input_all
      |> String.split_on_char '\n'
      |> List.find_opt (String.starts_with ~prefix:key)
  in
  Printf.printf "fingerprint: %s\n" line;
  match reference with
  | None -> print_endline "fingerprint: no reference for this workload and seed"
  | Some r when String.equal r line ->
      print_endline "fingerprint: matches the reference (model unchanged)"
  | Some r -> Printf.printf "fingerprint: model changed (reference: %s)\n" r
