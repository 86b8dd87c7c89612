(* rot-serve: root-of-trust boards built by the benchmark itself. Each
   board securely boots four signed TBF apps (the HMAC token service, its
   requester, a kv user and a counter) through the credential-checking
   async loader, then serves HMAC challenges over IPC while the kv and
   counter apps run. The benchmark drives each board with
   [Kernel.run_to_deadline] quanta; construction, parking and the fleet
   scheduler are not on this path. Secure boot is this workload's set-up. *)

module Board = Tock_boards.Board
module Rot_board = Tock_boards.Rot_board
module Kernel = Tock.Kernel
module Metrics = Tock_obs.Metrics
module Apps = Tock_userland.Apps

type size = { boards : int; challenges : int }

(* 32 boards, each serving 2000 challenges; the self-test's tiny size. *)
let full = { boards = 32; challenges = 2000 }

let tiny = { boards = 2; challenges = 40 }

(* Dispatch quantum in simulated cycles, the fleet's default batch. *)
let quantum = 250_000

(* A board still running this far in has stalled. *)
let cycle_guard = 1 lsl 40

type params = { seed : int64; kv_rounds : int; counter_n : int; counter_period : int }

(* Per-board inputs from the benchmark seed: the board seed (device key,
   signing nonces, simulator PRNG) and small variations of the side
   workload. The challenge stream itself is the requester's. *)
let params ~seed i =
  let s = Tock_fleet.Fleet.group_seed (Int64.of_int (0x0071_5070 + seed)) i in
  let h = Int64.to_int (Int64.shift_right_logical s 8) in
  { seed = s; kv_rounds = 24 + (h mod 8); counter_n = 16 + (h / 8 mod 8);
    counter_period = 400 + (h / 64 mod 200) }

let registry ~challenges p =
  [
    ("token", Apps.hmac_token ~challenges);
    ("requester", Apps.hmac_token_requester ~service:"token" ~challenges);
    ("kv", Apps.kv_user ~rounds:p.kv_rounds);
    ("counter", Apps.counter ~n:p.counter_n ~period_ticks:p.counter_period);
  ]

type booted = { rot : Rot_board.t; p : params; loaded : bool }

let secure_boot sp ~size ~seed i =
  let p = params ~seed i in
  Spans.span sp Spans.Secure_boot ~arg:i (fun () ->
      let rot = Spans.span sp Spans.Construct ~arg:i (fun () -> Rot_board.create ~seed:p.seed ()) in
      let apps =
        Spans.span sp Spans.Sign ~arg:i (fun () ->
            Rot_board.sign_app rot ~name:"token" ~binary:(Apps.make_token_binary ()) ()
            :: List.map (fun name -> Rot_board.sign_app rot ~name ()) [ "requester"; "kv"; "counter" ])
      in
      let summary = ref None in
      Spans.span sp Spans.Verify ~arg:i (fun () ->
          Rot_board.load_signed rot ~apps ~registry:(registry ~challenges:size.challenges p)
            ~on_done:(fun s -> summary := Some s);
          ignore
            (Board.run_until rot.Rot_board.board ~max_cycles:200_000_000 (fun () ->
                 !summary <> None)));
      let loaded =
        match !summary with
        | Some s ->
            List.length s.Tock.Process_loader.outcomes = 4
            && List.for_all
                 (function Tock.Process_loader.Loaded _ -> true | _ -> false)
                 s.Tock.Process_loader.outcomes
        | None -> false
      in
      { rot; p; loaded })

(* Serve until every app has exited; true if the board stalled. *)
let serve sp i (b : Board.t) =
  let k = b.Board.kernel and cap = b.Board.main_cap and sim = b.Board.sim in
  let rec go () =
    if Board.all_processes_done b then false
    else if Tock_hw.Sim.now sim > cycle_guard then true
    else
      match
        Spans.span sp Spans.Quantum ~arg:i (fun () ->
            Kernel.run_to_deadline k ~cap ~deadline:(Tock_hw.Sim.now sim + quantum))
      with
      | `Budget -> go ()
      | `Asleep w ->
          Spans.span sp Spans.Sleep_to ~arg:i (fun () -> Kernel.sleep_to k ~cap w);
          go ()
      | `Stalled -> not (Board.all_processes_done b)
  in
  go ()

(* The truncated HMAC the token answers challenge [c] with: the low 16
   bits of the tag's first little-endian word, HMAC-SHA256 keyed with
   the key in the token's flash image. *)
let expected =
  lazy
    (Array.init (full.challenges + 1) (fun i ->
         let c = 0x1000 + i in
         let msg = Bytes.init 4 (fun j -> Char.chr ((c lsr (8 * j)) land 0xff)) in
         let tag = Tock_crypto.Hmac.mac_bytes ~key:Apps.token_key msg in
         Char.code (Bytes.get tag 0) lor (Char.code (Bytes.get tag 1) lsl 8)))

(* The output checks of one board. *)
let check ~challenges bt ~stalled =
  let b = bt.rot.Rot_board.board in
  let k = b.Board.kernel in
  let out = Board.output b in
  let lines = String.split_on_char '\n' out |> List.map String.trim in
  let has l = List.mem l lines in
  let exp = Lazy.force expected in
  let responses =
    List.filter_map
      (fun l -> try Scanf.sscanf l "challenge %d -> %x%!" (fun i r -> Some (i, r)) with _ -> None)
      lines
  in
  let exited_ok =
    List.for_all
      (fun p ->
        match Tock.Process.state p with Tock.Process.Terminated { code = 0 } -> true | _ -> false)
      (Kernel.processes k)
  in
  if not bt.loaded then Some "secure boot did not load all four apps"
  else if stalled then Some "stalled"
  else if (Kernel.stats k).Kernel.faults > 0 || not exited_ok then Some "an app faulted or exited non-zero"
  else if not (has "token: served") then Some "token: final line missing"
  else if not (has (Printf.sprintf "kv: %d/%d roundtrips ok" bt.p.kv_rounds bt.p.kv_rounds)) then
    Some "kv: final line missing"
  else if not (has (Printf.sprintf "counter: count %d" bt.p.counter_n)) then
    Some "counter: final line missing"
  else if List.length responses <> challenges then
    Some (Printf.sprintf "%d of %d challenge responses" (List.length responses) challenges)
  else
    List.find_map
      (fun (i, r) ->
        if i < 1 || i > challenges || r <> exp.(i) then
          Some (Printf.sprintf "challenge %d answered %04x, want HMAC %04x" i r
                  (if i >= 1 && i <= challenges then exp.(i) else -1))
        else None)
      responses

let totals bts =
  List.fold_left
    (fun (a, s, y, u) bt ->
      let b = bt.rot.Rot_board.board in
      let st = Kernel.stats b.Board.kernel in
      ( a + Tock_hw.Sim.active_cycles b.Board.sim,
        s + Tock_hw.Sim.sleep_cycles b.Board.sim,
        y + st.Kernel.syscalls,
        u + st.Kernel.upcalls_delivered ))
    (0, 0, 0, 0) bts

let fingerprint bts =
  let a, s, y, u = totals bts in
  {
    Report.fp_active = a;
    fp_sleep = s;
    fp_syscalls = y;
    fp_upcalls = u;
    fp_outputs =
      Digest.to_hex
        (Digest.string
           (String.concat ""
              (List.map (fun bt -> Digest.string (Board.output bt.rot.Rot_board.board)) bts)));
  }

let boot_all sp ~size ~seed = List.init size.boards (fun i -> secure_boot sp ~size ~seed i)

type rep = {
  wall_ns : int;
  active : int;  (* simulated cycles inside the timed window *)
  syscalls : int;
  retained : int;  (* live words grown across the window *)
  failing : (int * string) list;
  fp : Report.fingerprint;
}

(* One rep: secure boot (untimed), then every board served to
   completion inside the timed window, then the checks. *)
let rep ?(sp = Spans.off) ?gc ?booted ~size ~seed () =
  let bts = match booted with Some bts -> bts | None -> boot_all sp ~size ~seed in
  let a0, _, y0, _ = totals bts in
  let base = Gcwatch.live_words () in
  let serve_all () =
    let t0 = Clock.now_ns () in
    let stalled = List.mapi (fun i bt -> serve sp i bt.rot.Rot_board.board) bts in
    (Clock.now_ns () - t0, stalled)
  in
  let (wall_ns, stalled), win =
    match gc with
    | Some (gw, w) -> Gcwatch.window gw w serve_all
    | None -> (serve_all (), Gcwatch.zero)
  in
  let retained = Gcwatch.live_words () - base in
  let a1, _, y1, _ = totals bts in
  let failing =
    List.concat
      (List.mapi
         (fun i (bt, stalled) ->
           match check ~challenges:size.challenges bt ~stalled with Some why -> [ (i, why) ] | None -> [])
         (List.combine bts stalled))
  in
  ( { wall_ns; active = a1 - a0; syscalls = y1 - y0; retained; failing; fp = fingerprint bts },
    bts,
    win )

let report_failures failing =
  List.iteri (fun i (b, why) -> if i < 5 then Printf.printf "check: board %d: %s\n" b why) failing

let run ~size ~seed ~seconds ~t0 =
  (* The first rep's secure boot is this process's set-up: the first
     timed simulated cycle follows it. *)
  let booted = boot_all Spans.off ~size ~seed in
  let setup_s = Clock.s_of_ns (Clock.now_ns () - t0) in
  let start = Clock.now_ns () in
  let rec loop acc =
    let booted = if acc = [] then Some booted else None in
    let r, _, _ = rep ?booted ~size ~seed () in
    let acc = r :: acc in
    if List.length acc >= 2 && Clock.s_of_ns (Clock.now_ns () - start) >= seconds then List.rev acc
    else loop acc
  in
  let reps = loop [] in
  let peak = Gcwatch.peak_heap_mb () in
  let med f = Samples.median_float (List.map f reps) in
  let ns r = float_of_int r.wall_ns in
  let first = List.hd reps in
  let failed =
    List.fold_left
      (fun acc r -> acc + if r.fp = first.fp then List.length r.failing else size.boards)
      0 reps
  in
  List.iter (fun r -> report_failures r.failing) reps;
  Printf.printf "reps: %d, walls_s: %s\n" (List.length reps)
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.4f" (ns r /. 1e9)) reps));
  {
    Report.correct = failed = 0;
    attempted = size.boards * List.length reps;
    failed;
    values =
      [
        ("wall_s", med (fun r -> ns r /. 1e9));
        ("boards_per_s", med (fun r -> float_of_int size.boards /. (ns r /. 1e9)));
        ("ns_per_active_cycle", med (fun r -> ns r /. float_of_int r.active));
        ("ns_per_syscall", med (fun r -> ns r /. float_of_int r.syscalls));
        ("setup_s", setup_s);
        ( "retained_bytes_per_board",
          med (fun r -> float_of_int (r.retained * (Sys.word_size / 8)) /. float_of_int size.boards) );
        ("peak_heap_mb", peak);
      ];
    fp = first.fp;
  }

let setup ~size ~seed ~t0 =
  ignore (boot_all Spans.off ~size ~seed);
  Clock.s_of_ns (Clock.now_ns () - t0)

(* The traced run: untraced reps for the wall and GC windows, then one
   rep with spans on; the difference of serve walls is the overhead. *)
let traced ~size ~seed ~seconds ~trace_file =
  let gw = Gcwatch.create () in
  let start = Clock.now_ns () in
  let rec loop acc win =
    let r, _, win = rep ~gc:(gw, win) ~size ~seed () in
    let acc = r :: acc in
    if List.length acc >= 2 && Clock.s_of_ns (Clock.now_ns () - start) >= seconds /. 2. then (List.rev acc, win)
    else loop acc win
  in
  let reps, win = loop [] Gcwatch.zero in
  let sp = Spans.create ~on:true in
  let tr, bts, _ = rep ~sp ~size ~seed () in
  Out_channel.with_open_bin trace_file (fun oc -> output_string oc (Spans.chrome_json sp));
  report_failures tr.failing;
  let untraced_s = Samples.median_float (List.map (fun r -> Clock.s_of_ns r.wall_ns) reps) in
  let snap f = Metrics.merge (List.map (fun bt -> f bt.rot.Rot_board.board) bts) in
  let kernel = snap (fun b -> Kernel.metrics_snapshot b.Board.kernel) in
  let hw = snap (fun b -> Metrics.snapshot (Tock_hw.Sim.metrics b.Board.sim)) in
  let all_ok = List.for_all (fun r -> r.failing = [] && r.fp = tr.fp) reps in
  {
    Report.correct = tr.failing = [] && all_ok;
    attempted = size.boards;
    failed = List.length tr.failing;
    values =
      Report.span_metrics sp
      @ Report.layer_counts ~kernel ~hw
      @ [
          ("sim.active_cycles", float_of_int tr.fp.Report.fp_active);
          ("sim.sleep_cycles", float_of_int tr.fp.Report.fp_sleep);
          ("trace.overhead_s", Clock.s_of_ns tr.wall_ns -. untraced_s);
          ("fleet.thaw_ok_ratio", 1.);
        ]
      @ Report.gc_metrics ~boards:size.boards win gw ~reps:(List.length reps);
    fp = tr.fp;
  }

let fingerprint_only ~size ~seed =
  let r, _, _ = rep ~size ~seed () in
  r.fp
