(* The otock benchmark executable. run.py builds and drives it; see
   BENCHMARK.json at the repository root for the metric contract.

     main.exe run --workload W --seed N --seconds S --trace 0|1 --t0-ns T
         timed run; the last stdout line is the result object
     main.exe setup --workload W --seed N --t0-ns T
         set-up only: prints {"setup_s": x}, the host seconds from T (the
         launch instant, CLOCK_MONOTONIC ns) to the first timed cycle
     main.exe fingerprint --workload W --seed N
         the simulated-statistics fingerprint line only
   [--tiny] shrinks every workload to a few boards (run.py --selftest);
   [--fault-board K] (fleet workloads) builds board K with the fault
   injector, which the output checks must catch.

   Workloads: fleet-boot, fleet-park, rot-serve. *)

let usage () =
  prerr_endline
    "usage: main.exe (run|setup|fingerprint) --workload W --seed N [--seconds S] \
     [--trace 0|1] [--t0-ns T] [--tiny] [--fault-board K]";
  exit 2

type opts = {
  mutable workload : string;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable t0 : int;
  mutable tiny : bool;
  mutable fault_board : int option;
}

let parse args =
  let o =
    { workload = ""; seed = 0; seconds = 10.; trace = false; t0 = Clock.now_ns ();
      tiny = false; fault_board = None }
  in
  let rec go = function
    | "--workload" :: w :: rest ->
        o.workload <- w;
        go rest
    | "--seed" :: n :: rest ->
        o.seed <- int_of_string n;
        go rest
    | "--seconds" :: s :: rest ->
        o.seconds <- float_of_string s;
        go rest
    | "--trace" :: t :: rest ->
        o.trace <- t = "1";
        go rest
    | "--t0-ns" :: t :: rest ->
        o.t0 <- int_of_string t;
        go rest
    | "--tiny" :: rest ->
        o.tiny <- true;
        go rest
    | "--fault-board" :: k :: rest ->
        o.fault_board <- Some (int_of_string k);
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go args with Failure _ -> usage ());
  o

(* The traced run's Chrome/Perfetto file, beside run.py's other outputs. *)
let trace_file o =
  let dir = ".otbench" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Filename.concat dir (Printf.sprintf "trace-%s-%d.json" o.workload o.seed)

let shape_of o =
  let tiny s = if o.tiny then { s with Fleet_work.boards = 60 } else s in
  match o.workload with
  | "fleet-boot" -> Some (tiny Fleet_work.boot)
  | "fleet-park" -> Some (tiny Fleet_work.park)
  | _ -> None

let rot_size o = if o.tiny then Rot_work.tiny else Rot_work.full

let run_workload o =
  let size = rot_size o in
  match (o.workload, shape_of o) with
  | _, Some shape ->
      if o.trace then
        Fleet_work.traced ~shape ~seed:o.seed ~seconds:o.seconds ~trace_file:(trace_file o)
      else
        Fleet_work.run ?fault_board:o.fault_board ~shape ~seed:o.seed ~seconds:o.seconds
          ~t0:o.t0 ()
  | "rot-serve", None ->
      if o.trace then
        Rot_work.traced ~size ~seed:o.seed ~seconds:o.seconds ~trace_file:(trace_file o)
      else Rot_work.run ~size ~seed:o.seed ~seconds:o.seconds ~t0:o.t0
  | _ -> usage ()

let print_outcome o (r : Report.outcome) =
  Report.check_reference ~workload:o.workload ~seed:o.seed r.Report.fp;
  Printf.printf "failed_frac: %.6f (%d of %d boards)\n"
    (float_of_int r.Report.failed /. float_of_int (max 1 r.Report.attempted))
    r.Report.failed r.Report.attempted;
  Report.emit ~correct:r.Report.correct ~attempted:r.Report.attempted ~failed:r.Report.failed
    ~names:(if o.trace then Report.per_layer else Report.end_to_end)
    r.Report.values

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: args ->
      let o = parse args in
      print_outcome o (run_workload o)
  | _ :: "setup" :: args ->
      let o = parse args in
      let s =
        match (o.workload, shape_of o) with
        | _, Some shape -> Fleet_work.setup ~shape ~seed:o.seed ~t0:o.t0
        | "rot-serve", None -> Rot_work.setup ~size:(rot_size o) ~seed:o.seed ~t0:o.t0
        | _ -> usage ()
      in
      Printf.printf "{\"setup_s\": %s}\n" (Report.json_number s)
  | _ :: "fingerprint" :: args ->
      let o = parse args in
      let fp =
        match (o.workload, shape_of o) with
        | _, Some shape -> Fleet_work.fingerprint_only ~shape ~seed:o.seed
        | "rot-serve", None -> Rot_work.fingerprint_only ~size:(rot_size o) ~seed:o.seed
        | _ -> usage ()
      in
      print_endline (Report.fingerprint_line ~workload:o.workload ~seed:o.seed fp)
  | _ -> usage ()
