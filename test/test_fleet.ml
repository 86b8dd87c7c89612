(* The fleet deadline-calendar scheduler: deterministic results
   independent of domain count and batch quantum (work stealing and
   calendar chopping must never leak into simulation results), O(1)
   fast-forward correctness, plus a small multi-domain smoke run. *)

open! Helpers

module Fleet = Tock_fleet.Fleet
module Flight = Tock_fleet.Flight

let small cfg = { cfg with Fleet.cycles = 200_000 }

let check_identical name a b =
  Alcotest.(check int) (name ^ ": board count") (Array.length a) (Array.length b);
  Array.iteri
    (fun i (x : Fleet.board_stats) ->
      let y = b.(i) in
      if x <> y then
        Alcotest.failf "%s: board %d diverged:\n  1 domain:  %s\n  N domains: %s"
          name i
          (Format.asprintf "%a" Fleet.pp_board_stats x)
          (Format.asprintf "%a" Fleet.pp_board_stats y))
    a

let test_deterministic_across_domains () =
  (* Independent boards with a deliberately skewed mix (the workload
     rotation gives kv-heavy, blink/sensor and counter boards very
     different cost profiles), contiguous shards: merged stats AND the
     merged metrics snapshot must be byte-identical at 1, 2 and 4
     domains — work stealing may move groups, never results. *)
  let cfg = small { Fleet.default with boards = 9; group_size = 1 } in
  let seq = (Fleet.run_fleet { cfg with domains = 1 }).Fleet.fr_stats in
  let mm_seq =
    Tock_obs.Metrics.render_json (Merge_oracle.merged_metrics seq)
  in
  List.iter
    (fun domains ->
      let par = (Fleet.run_fleet { cfg with domains }).Fleet.fr_stats in
      check_identical (Printf.sprintf "%d domains" domains) seq par;
      Alcotest.(check string)
        (Printf.sprintf "merged_metrics @ %d domains" domains)
        mm_seq
        (Tock_obs.Metrics.render_json (Merge_oracle.merged_metrics par)))
    [ 2; 4 ]

let test_deterministic_radio_groups () =
  (* Radio groups (shared Ether within a group) plus a leftover single
     board, sharded across domains. *)
  let cfg = small { Fleet.default with boards = 7; group_size = 3 } in
  let seq = (Fleet.run_fleet { cfg with domains = 1 }).Fleet.fr_stats in
  let par = (Fleet.run_fleet { cfg with domains = 2 }).Fleet.fr_stats in
  check_identical "radio groups" seq par

let test_batch_invariance () =
  (* The calendar quantum chops a group's run into arbitrary
     [run_to_deadline] slices; every chopping must reach the same final
     state (this is what lets parked boards skip ahead in O(1)). *)
  let cfg = small { Fleet.default with boards = 6; group_size = 1 } in
  let run cfg = (Fleet.run_fleet cfg).Fleet.fr_stats in
  let coarse = run { cfg with batch = cfg.Fleet.cycles } in
  List.iter
    (fun batch ->
      let chopped = run { cfg with batch } in
      check_identical (Printf.sprintf "batch=%d" batch) coarse chopped)
    [ 1_000; 7_777; 50_000 ]

(* A single sleepy-counter board, built from a fixed recipe — the
   shared subject for the fast-forward and snapshot/restore tests. *)
let build_sleepy () =
  let sim = Tock_hw.Sim.create ~seed:0xFAFA_01L ~trace_capacity:0 () in
  let chip = Tock_hw.Chip.sam4l_like sim in
  let board = Tock_boards.Board.build chip in
  (match
     Tock_boards.Board.add_app board ~name:"sleepy"
       (Tock_userland.Apps.counter ~n:3 ~period_ticks:1500)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "add_app: %s" (Tock.Error.to_string e));
  board

let finish_to b deadline =
  (* Drive run_to_deadline exactly the way the fleet scheduler does. *)
  let k = b.Tock_boards.Board.kernel and cap = b.Tock_boards.Board.main_cap in
  let rec go quantum =
    let now = Tock_hw.Sim.now b.Tock_boards.Board.sim in
    if now < deadline then
      match
        Tock.Kernel.run_to_deadline k ~cap ~deadline:(min (now + quantum) deadline)
      with
      | `Budget -> go quantum
      | `Stalled -> ()
      | `Asleep wake ->
          if wake >= deadline then Tock.Kernel.sleep_to k ~cap deadline
          else begin
            Tock.Kernel.sleep_to k ~cap wake;
            go quantum
          end
  in
  go

let fingerprint b =
  Printf.sprintf "now=%d active=%d sleep=%d out=%s metrics=%s"
    (Tock_hw.Sim.now b.Tock_boards.Board.sim)
    (Tock_hw.Sim.active_cycles b.Tock_boards.Board.sim)
    (Tock_hw.Sim.sleep_cycles b.Tock_boards.Board.sim)
    (Digest.to_hex (Digest.string (Tock_boards.Board.output b)))
    (Tock_obs.Metrics.render_json
       (Tock.Kernel.metrics_snapshot b.Tock_boards.Board.kernel))

(* A sleep-heavy board stepped to its budget in many small quanta vs
   fast-forwarded in one hop must reach the identical final state:
   clock, active/sleep split, output, and the full metrics registry. *)
let test_fast_forward_identical_state () =
  let budget = 3_000_000 in
  let stepped = build_sleepy () in
  finish_to stepped budget 10_000;
  let warped = build_sleepy () in
  finish_to warped budget budget;
  Alcotest.(check string) "stepped == fast-forwarded" (fingerprint stepped)
    (fingerprint warped);
  (* And both landed exactly on the budget, not past it. *)
  Alcotest.(check int) "clock at budget" budget
    (Tock_hw.Sim.now stepped.Tock_boards.Board.sim)

(* Snapshot mid-run, rebuild from the same recipe, restore (replay +
   byte-verify), then run both boards on: the resumed board must stay
   byte-identical to the one that never parked. *)
let test_snapshot_restore_determinism () =
  let park_at = 700_000 and budget = 2_000_000 in
  let original = build_sleepy () in
  finish_to original park_at 10_000;
  let w = Tock.Kernel.freeze original.Tock_boards.Board.kernel in
  (match Tock_obs.Codec.decode Tock.Witness.codec w with
  | Ok wt -> Alcotest.(check int) "witness clock" park_at wt.Tock.Witness.w_now
  | Error e -> Alcotest.failf "witness decode: %s" e);
  (* Snapshots are pure observations: retaking one changes nothing. *)
  Alcotest.(check string) "snapshot is stable" w
    (Tock.Kernel.freeze original.Tock_boards.Board.kernel);
  let resumed = build_sleepy () in
  (match
     Tock.Kernel.restore resumed.Tock_boards.Board.kernel
       ~cap:resumed.Tock_boards.Board.main_cap w
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "restore: %s" e);
  Alcotest.(check string) "restored state matches" (fingerprint original)
    (fingerprint resumed);
  (* Drive both to the budget with different choppings. *)
  finish_to original budget 10_000;
  finish_to resumed budget 3_333;
  Alcotest.(check string) "resumed == continuously stepped"
    (fingerprint original) (fingerprint resumed);
  Alcotest.(check string) "final snapshots equal"
    (Tock.Kernel.freeze original.Tock_boards.Board.kernel)
    (Tock.Kernel.freeze resumed.Tock_boards.Board.kernel)

(* Direct thaw: patch a fresh board from the witness in O(state) — no
   replay — and land byte-identical to the board that never parked,
   including the witness a re-freeze produces. *)
let test_thaw_determinism () =
  let park_at = 700_000 and budget = 2_000_000 in
  let original = build_sleepy () in
  finish_to original park_at 10_000;
  let w = Tock.Kernel.freeze original.Tock_boards.Board.kernel in
  let thawed = build_sleepy () in
  (match
     Tock.Kernel.thaw thawed.Tock_boards.Board.kernel
       ~cap:thawed.Tock_boards.Board.main_cap w
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "thaw: %s" e);
  Alcotest.(check string) "thawed state matches" (fingerprint original)
    (fingerprint thawed);
  (* The strongest check: re-freezing the thawed board reproduces the
     witness bit-for-bit — every serialized fact survived the round
     trip. *)
  Alcotest.(check string) "re-freeze reproduces witness" w
    (Tock.Kernel.freeze thawed.Tock_boards.Board.kernel);
  finish_to original budget 10_000;
  finish_to thawed budget 3_333;
  Alcotest.(check string) "thawed == continuously stepped"
    (fingerprint original) (fingerprint thawed);
  Alcotest.(check string) "final freezes equal"
    (Tock.Kernel.freeze original.Tock_boards.Board.kernel)
    (Tock.Kernel.freeze thawed.Tock_boards.Board.kernel)

(* Corrupt and truncated witnesses and flight artifacts must come back
   as [Error _] — never an exception, never a silent success. Both are
   checksummed frames, so this holds exhaustively: every single-byte
   flip and every truncation fails to decode. (A failed thaw may leave
   the board half-patched; each probe gets a fresh board.) *)
let test_witness_rejects_corruption () =
  let original = build_sleepy () in
  finish_to original 700_000 10_000;
  let k = original.Tock_boards.Board.kernel in
  let w = Tock.Kernel.freeze k in
  let expect_err name f =
    match f () with
    | Ok _ -> Alcotest.failf "%s: corrupt input accepted" name
    | Error e ->
        if String.length e = 0 then Alcotest.failf "%s: empty diagnostic" name
    | exception e ->
        Alcotest.failf "%s: raised %s instead of Error" name
          (Printexc.to_string e)
  in
  let flip s i =
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5A));
    Bytes.to_string b
  in
  let exhaustive what decode s =
    for i = 0 to String.length s - 1 do
      expect_err (Printf.sprintf "%s: byte %d flipped" what i) (fun () ->
          decode (flip s i))
    done;
    for n = 0 to String.length s - 1 do
      expect_err (Printf.sprintf "%s: truncated to %d bytes" what n) (fun () ->
          decode (String.sub s 0 n))
    done
  in
  exhaustive "witness" (Tock_obs.Codec.decode Tock.Witness.codec) w;
  let art =
    Flight.encode
      {
        Flight.fa_cause = Flight.Fault { fl_proc = "blink"; fl_reason = "probe" };
        fa_board = 0;
        fa_seed = 7L;
        fa_clock = 700_000;
        fa_clock_hz = 16_000_000;
        fa_events =
          [ { Flight.fe_ts = 1; fe_tid = 0; fe_kind = "fault"; fe_phase = "i";
              fe_dur = 0; fe_arg = 3; fe_text = "probe" } ];
        fa_metrics = Some (Tock_obs.Metrics.packed_of (Tock.Kernel.metrics k));
        fa_witness = w;
      }
  in
  (match Flight.decode art with
  | Ok a -> Alcotest.(check string) "artifact round trip" art (Flight.encode a)
  | Error e -> Alcotest.failf "clean artifact rejected: %s" e);
  exhaustive "flight artifact" Flight.decode art;
  (* The entry points, on a flip at the first, middle and last byte. *)
  let ends s = [ 0; String.length s / 2; String.length s - 1 ] in
  List.iter
    (fun i ->
      let wbad = flip w i in
      expect_err (Printf.sprintf "restore (byte %d flipped)" i) (fun () ->
          let b = build_sleepy () in
          Tock.Kernel.restore b.Tock_boards.Board.kernel
            ~cap:b.Tock_boards.Board.main_cap wbad);
      expect_err (Printf.sprintf "thaw (byte %d flipped)" i) (fun () ->
          let b = build_sleepy () in
          Tock.Kernel.thaw b.Tock_boards.Board.kernel
            ~cap:b.Tock_boards.Board.main_cap wbad))
    (ends w);
  List.iter
    (fun i ->
      expect_err (Printf.sprintf "Flight.decode (byte %d flipped)" i) (fun () ->
          Flight.decode (flip art i)))
    (ends art)

(* A witness whose kernel registry retypes a counter as a gauge still
   decodes (re-encoding re-checksums the frame), so only the registry
   restore's kind check stands between it and the board: thaw must end
   in [Error], not raise and not succeed. *)
let test_thaw_rejects_kind_clash () =
  let original = build_sleepy () in
  finish_to original 700_000 10_000;
  let w = Tock.Kernel.freeze original.Tock_boards.Board.kernel in
  let wt =
    match Tock_obs.Codec.decode Tock.Witness.codec w with
    | Ok wt -> wt
    | Error e -> Alcotest.failf "witness decode: %s" e
  in
  let kreg = wt.Tock.Witness.w_kreg in
  let sc = kreg.Tock_obs.Metrics.p_schema in
  let rank =
    match Array.find_index (( = ) "kernel.syscalls") sc.Tock_obs.Metrics.sc_names with
    | Some i when sc.Tock_obs.Metrics.sc_kinds.[i] = 'c' -> i
    | _ -> Alcotest.fail "witness lacks counter kernel.syscalls"
  in
  let retyped =
    Tock_obs.Codec.encode Tock.Witness.codec
      { wt with
        Tock.Witness.w_kreg =
          { kreg with
            Tock_obs.Metrics.p_schema =
              { sc with
                Tock_obs.Metrics.sc_kinds =
                  String.mapi (fun i k -> if i = rank then 'g' else k) sc.sc_kinds } } }
  in
  let b = build_sleepy () in
  match
    Tock.Kernel.thaw b.Tock_boards.Board.kernel ~cap:b.Tock_boards.Board.main_cap
      retyped
  with
  | Ok () -> Alcotest.fail "thaw accepted a retyped registry series"
  | Error e -> check_contains ~msg:"kernel registry diagnostic" e "kernel registry"
  | exception e -> Alcotest.failf "thaw raised %s" (Printexc.to_string e)

(* A process image that decodes but does not fit its process must end
   in [Error] from [Process.restore_image], never in an exception: each
   case perturbs one field of the live process's image in a real
   witness and re-encodes it with a valid frame. *)
let test_thaw_rejects_misfit_images () =
  let original = build_sleepy () in
  finish_to original 700_000 10_000;
  let w = Tock.Kernel.freeze original.Tock_boards.Board.kernel in
  let wt =
    match Tock_obs.Codec.decode Tock.Witness.codec w with
    | Ok wt -> wt
    | Error e -> Alcotest.failf "witness decode: %s" e
  in
  let wp, img =
    match wt.Tock.Witness.w_procs with
    | [ wp ] -> (wp, wp.Tock.Witness.wp_image)
    | _ -> Alcotest.fail "want the one sleepy process"
  in
  (match img.Tock.Process.im_state with
  | Tock.Process.Yielded -> ()
  | _ -> Alcotest.fail "sleepy process not live at the park point");
  let ram_len = img.Tock.Process.im_ram.Tock.Process.ram_len in
  let allow addr len = ((`Rw, 1, 0), (addr, len)) in
  let pu =
    { Tock.Process.pu_driver = 0; pu_subscribe = 0;
      pu_upcall = Tock.Process.null_upcall; pu_args = (0, 0, 0) }
  in
  let cases =
    [ ( "pending upcall past the queue capacity",
        { img with Tock.Process.im_pending = List.init 64 (fun _ -> pu) },
        "pending-upcall overflow" );
      ( "allow past the RAM block",
        { img with im_allows = allow (img.im_kernel_break + ram_len) 16 :: img.im_allows },
        "does not resolve" );
      ( "allow whose end overflows",
        { img with im_allows = allow (max_int - 8) 16 :: img.im_allows },
        "does not resolve" );
      ( "crossed breaks",
        { img with im_app_break = img.im_kernel_break + 4 },
        "breaks" );
      ( "break below the RAM block", { img with im_app_break = 0 }, "breaks" );
      ( "break above the RAM block",
        { img with im_kernel_break = img.im_kernel_break + ram_len },
        "breaks" );
      ( "RAM length mismatch",
        { img with im_ram = { img.im_ram with Tock.Process.ram_len = ram_len + 1 } },
        "RAM size" );
      ( "subscription with no live closure",
        { img with im_subs = (0x7777, 0, { Tock.Process.fnptr = 4242; appdata = 0 }) :: img.im_subs },
        "no live closure" ) ]
  in
  List.iter
    (fun (what, img, diag) ->
      let bad =
        Tock_obs.Codec.encode Tock.Witness.codec
          { wt with Tock.Witness.w_procs = [ { wp with Tock.Witness.wp_image = img } ] }
      in
      let b = build_sleepy () in
      match
        Tock.Kernel.thaw b.Tock_boards.Board.kernel ~cap:b.Tock_boards.Board.main_cap bad
      with
      | Ok () -> Alcotest.failf "%s: thaw accepted it" what
      | Error e -> check_contains ~msg:(what ^ " diagnostic") e diag
      | exception e -> Alcotest.failf "%s: thaw raised %s" what (Printexc.to_string e))
    cases

(* The freeze/thaw subjects: three app mixes, by shape. *)
let build_case (shape, period, _park_at, seed) =
  let sim =
    Tock_hw.Sim.create ~seed:(Int64.of_int (0xBEE0000 + seed))
      ~trace_capacity:0 ()
  in
  let chip = Tock_hw.Chip.sam4l_like sim in
  let board = Tock_boards.Board.build chip in
  let apps =
    match shape with
    | 0 ->
        [ ("counter", Tock_userland.Apps.counter ~n:4 ~period_ticks:period);
          ("hello", Tock_userland.Apps.hello) ]
    | 1 ->
        [ ("blink", Tock_userland.Apps.blink ~led:0 ~period_ticks:period
             ~blinks:6);
          ("sensors", Tock_userland.Apps.sensor_logger ~samples:3
             ~period_ticks:(period * 3)) ]
    | _ ->
        [ ("kv", Tock_userland.Apps.kv_user ~rounds:2);
          ("counter", Tock_userland.Apps.counter ~n:2 ~period_ticks:period) ]
  in
  List.iter
    (fun (name, app) ->
      match Tock_boards.Board.add_app board ~name app with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "add_app %s: %s" name (Tock.Error.to_string e))
    apps;
  board

(* The fleet resume contract: thaw accepts exactly the witnesses of
   boards [Kernel.thawable] accepts. When it does, the thawed board
   re-freezes to the witness byte-for-byte and tracks the original
   under further execution; when it does not, byte-verified replay
   must still succeed. *)
let freeze_thaw_contract ((_, _, park_at, _) as case) =
  let original = build_case case in
  finish_to original park_at 10_000;
  let w = Tock.Kernel.freeze original.Tock_boards.Board.kernel in
  let fresh = build_case case in
  (match
     ( Tock.Kernel.thawable original.Tock_boards.Board.kernel,
       Tock.Kernel.thaw fresh.Tock_boards.Board.kernel
         ~cap:fresh.Tock_boards.Board.main_cap w )
   with
  | true, Ok () ->
      if Tock.Kernel.freeze fresh.Tock_boards.Board.kernel <> w then
        QCheck2.Test.fail_report "re-freeze of thawed board <> witness";
      let deadline = park_at + 400_000 in
      finish_to original deadline 10_000;
      finish_to fresh deadline 7_001;
      if fingerprint original <> fingerprint fresh then
        QCheck2.Test.fail_reportf
          "thawed board diverged from original\noriginal: %s\nthawed:   %s"
          (fingerprint original) (fingerprint fresh)
  | true, Error e ->
      QCheck2.Test.fail_reportf "thaw refused a thawable board: %s" e
  | false, Ok () -> QCheck2.Test.fail_report "thaw accepted an unthawable board"
  | false, Error _ -> (
      let rb = build_case case in
      match
        Tock.Kernel.restore rb.Tock_boards.Board.kernel
          ~cap:rb.Tock_boards.Board.main_cap w
      with
      | Ok () -> ()
      | Error e -> QCheck2.Test.fail_reportf "restore failed: %s" e));
  true

(* Property: the contract above for random workloads, sim seeds and
   park points. *)
let prop_freeze_thaw_contract =
  QCheck_alcotest.to_alcotest
  @@ QCheck2.Test.make ~count:25
       ~name:"freeze/thaw contract (random workload, park point)"
       ~print:(fun (shape, period, park_at, seed) ->
         Printf.sprintf "shape=%d period=%d park_at=%d seed=%d" shape period
           park_at seed)
       QCheck2.Gen.(
         quad (int_range 0 2) (int_range 50 800) (int_range 20_000 1_200_000)
           (int_range 1 0xFFFF))
       freeze_thaw_contract

(* Regression: this counter board is frozen at its checkpoint sleep
   730 cycles before the alarm's hardware event. The thaw prologue's own
   bookkeeping cycles used to cross that event, so the rebuilt app woke
   early and thaw failed; prologues now run with the clock held. *)
let test_thaw_just_before_timer_event () =
  let case = (0, 362, 793_894, 1) in
  let b = build_case case in
  finish_to b 793_894 10_000;
  Alcotest.(check bool) "frozen thawable" true
    (Tock.Kernel.thawable b.Tock_boards.Board.kernel);
  Alcotest.(check bool) "next event 730 cycles out" true
    (Tock_hw.Sim.next_deadline b.Tock_boards.Board.sim = 793_894 + 730);
  ignore (freeze_thaw_contract case)

let sched_counter sched name =
  match List.assoc_opt name sched with
  | Some (Tock_obs.Metrics.Counter v) -> v
  | _ -> Alcotest.failf "scheduler metric %s missing" name

(* Fleet-level park/resume: identical results with parking on or off,
   at 1, 2 and 4 domains, with every resume cross-checked against the
   stored witness AND an independent replay ([verify_park]) — and
   parking must actually have happened for the run to be evidence of
   anything.
   [park_min_quanta = 50] keeps the 50k-cycle threshold above both the
   4096-cycle console busy-retry naps and the ~25k-cycle UART
   transmission waits (where an app is mid-print, before any
   checkpoint), so parks land on real alarm sleeps where every live
   app sits at a checkpoint. *)
let test_park_resume_identical () =
  let cfg =
    small
      { Fleet.default with
        boards = 8; group_size = 1; batch = 1_000; park_min_quanta = 50 }
  in
  let plain = Fleet.run_fleet { cfg with park = false } in
  let mm = Tock_obs.Metrics.render_json plain.Fleet.fr_metrics in
  List.iter
    (fun domains ->
      let parked =
        Fleet.run_fleet { cfg with park = true; verify_park = true; domains }
      in
      check_identical
        (Printf.sprintf "park on/off @ %d domains" domains)
        plain.Fleet.fr_stats parked.Fleet.fr_stats;
      Alcotest.(check string)
        (Printf.sprintf "merged metrics @ %d domains" domains)
        mm
        (Tock_obs.Metrics.render_json parked.Fleet.fr_metrics);
      let parks = sched_counter parked.Fleet.fr_sched "fleet.sched.board_parks" in
      Alcotest.(check bool) "parking occurred" true (parks > 0);
      Alcotest.(check int) "every park resumed" parks
        (sched_counter parked.Fleet.fr_sched "fleet.sched.board_resumes");
      Alcotest.(check bool) "resume skipped cycles in O(state)" true
        (sched_counter parked.Fleet.fr_sched "fleet.sched.resume_cycles" > 0);
      Alcotest.(check bool) "witness bytes accounted" true
        (sched_counter parked.Fleet.fr_sched "fleet.sched.witness_bytes" > 0))
    [ 1; 2; 4 ]

(* An aggressive threshold ([park_min_quanta = 2] at batch 1000) meets
   long sleeps inside UART transmission waits and console busy-retry
   naps, where a live app is mid-I/O with no checkpoint. Such boards
   are not [thawable]: they must stay live rather than park, every
   board that does park must thaw (a thaw error fails the run), and
   not a single result may change. Every long sleep either parks or
   takes the live deferred-sleep path, so the parked run's parks plus
   deferred sleeps equal the unparked run's deferred sleeps. *)
let test_park_mid_io_stays_live () =
  let cfg =
    small { Fleet.default with boards = 8; group_size = 1; batch = 1_000 }
  in
  let plain = Fleet.run_fleet { cfg with park = false } in
  let parked = Fleet.run_fleet { cfg with park = true; verify_park = true } in
  check_identical "mid-I/O boards stay live" plain.Fleet.fr_stats
    parked.Fleet.fr_stats;
  let c r name = sched_counter r.Fleet.fr_sched ("fleet.sched." ^ name) in
  let parks = c parked "board_parks" in
  Alcotest.(check bool) "parking occurred" true (parks > 0);
  Alcotest.(check int) "every park resumed" parks (c parked "board_resumes");
  Alcotest.(check int) "every sleep parked or stayed live"
    (c plain "parked_wakes")
    (parks + c parked "parked_wakes")

(* The paper-scale smoke: 100k boards materialize through the bounded
   live window, the blink mix sleeps long enough to be frozen into
   byte witnesses, and every one of those boards must thaw directly (a
   thaw error fails the run) before retiring into packed stats — the
   whole fleet must fit and account. *)
let test_100k_construction_park_smoke () =
  let boards = 100_000 in
  let cfg =
    {
      Fleet.default with
      boards;
      group_size = 1;
      cycles = 160_000;
      batch = 50_000;
      park = true;
    }
  in
  let r = Fleet.run_fleet cfg in
  Alcotest.(check int) "all boards reported" boards
    (Array.length r.Fleet.fr_stats);
  let parks = sched_counter r.Fleet.fr_sched "fleet.sched.board_parks" in
  Alcotest.(check bool) "freeze/thaw exercised at scale" true (parks > 0);
  Alcotest.(check int) "every park resumed" parks
    (sched_counter r.Fleet.fr_sched "fleet.sched.board_resumes");
  Array.iteri
    (fun i (bs : Fleet.board_stats) ->
      if bs.Fleet.bs_board <> i then
        Alcotest.failf "board %d out of place (slot %d)" bs.Fleet.bs_board i;
      if bs.Fleet.bs_cycles <= 0 then
        Alcotest.failf "board %d made no progress" i)
    r.Fleet.fr_stats;
  Alcotest.(check int) "every group accounted" (Fleet.group_count cfg)
    (sched_counter r.Fleet.fr_sched "fleet.sched.groups_run");
  (* The merged snapshot covers the whole fleet's syscall count. *)
  (match List.assoc_opt "kernel.syscalls" r.Fleet.fr_metrics with
  | Some (Tock_obs.Metrics.Counter v) ->
      Alcotest.(check int) "merged syscalls" (Fleet.total_syscalls r.Fleet.fr_stats) v
  | _ -> Alcotest.fail "kernel.syscalls missing from merged metrics")

let test_fleet_smoke () =
  (* Tiny 2-domain fleet through the stealing scheduler: every board
     makes progress, accounting is sane, and the scheduler metrics
     cover every group. *)
  let cfg =
    small { Fleet.default with boards = 6; domains = 2; group_size = 1 }
  in
  let { Fleet.fr_stats = stats; fr_sched = sched; _ } = Fleet.run_fleet cfg in
  Array.iter
    (fun (bs : Fleet.board_stats) ->
      Alcotest.(check bool)
        (Printf.sprintf "board %d ran" bs.Fleet.bs_board)
        true (bs.Fleet.bs_cycles > 0);
      Alcotest.(check bool) "made syscalls" true (bs.Fleet.bs_syscalls > 0);
      Alcotest.(check int) "cycles = active + sleep" bs.Fleet.bs_cycles
        (bs.Fleet.bs_active_cycles + bs.Fleet.bs_sleep_cycles);
      Alcotest.(check int) "digest is md5 hex" 32
        (String.length bs.Fleet.bs_output_digest))
    stats;
  Alcotest.(check bool) "aggregate cycles" true (Fleet.total_cycles stats > 0);
  let find name =
    match List.assoc_opt name sched with
    | Some (Tock_obs.Metrics.Counter v) -> v
    | _ -> Alcotest.failf "scheduler metric %s missing" name
  in
  Alcotest.(check int) "every group accounted" (Fleet.group_count cfg)
    (find "fleet.sched.groups_run");
  Alcotest.(check bool) "dispatches cover groups" true
    (find "fleet.sched.dispatches" >= Fleet.group_count cfg)

(* Health rollups are streaming, commutative folds of retiring boards:
   the rendered report must be byte-identical at 1, 2 and 4 domains,
   and with parking on — domain placement, steal order and freeze/thaw
   may never leak into a verdict. *)
let test_health_identical_across_domains () =
  let cfg =
    small { Fleet.default with boards = 9; group_size = 1; health = true }
  in
  let render (r : Fleet.fleet_result) =
    match r.Fleet.fr_health with
    | Some rep -> Fleet.Rollup.render_json rep
    | None -> Alcotest.fail "fr_health missing with health = true"
  in
  let base = Fleet.run_fleet { cfg with domains = 1 } in
  let expect = render base in
  (match base.Fleet.fr_health with
  | Some rep ->
      Alcotest.(check int) "boards counted" 9 rep.Fleet.Rollup.rp_boards;
      (* every stock SLO against every workload cohort *)
      Alcotest.(check int) "checks evaluated"
        (List.length Fleet.default_slos * 3)
        (List.length rep.Fleet.Rollup.rp_checks);
      Alcotest.(check string) "fault-free fleet is healthy" "healthy"
        (Fleet.Rollup.verdict_name rep.Fleet.Rollup.rp_verdict)
  | None -> ());
  List.iter
    (fun domains ->
      Alcotest.(check string)
        (Printf.sprintf "health report @ %d domains" domains)
        expect
        (render (Fleet.run_fleet { cfg with domains })))
    [ 2; 4 ];
  (* parking changes the memory/wall-time shape only, never the report *)
  Alcotest.(check string) "health report with parking" expect
    (render
       (Fleet.run_fleet
          { cfg with domains = 2; park = true; batch = 1_000;
            park_min_quanta = 50 }))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The fault flight recorder end to end: a deliberately faulting board
   produces a TCKFLT02 artifact on disk that decodes totally, whose
   postmortem timeline contains the fault event, and whose freeze
   witness thaws back into a live board exhibiting the faulted
   process. With health on, the Degraded verdict adds one fleet-level
   SLO-breach artifact that (carrying no witness) must refuse to
   thaw. *)
let with_flight_dir f =
  let dir = Filename.temp_file "tock-flight" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir)
  @@ fun () -> f dir

let test_flight_recorder_artifact () =
  with_flight_dir @@ fun dir ->
  (* the injector's delayed wild read lands around 227k cycles — give
     the budget comfortable headroom past it *)
  let cfg =
    { Fleet.default with
      boards = 6; domains = 2; group_size = 1; cycles = 400_000;
      batch = 50_000; health = true; fault_board = Some 3;
      flight_dir = Some dir }
  in
  let r = Fleet.run_fleet cfg in
  let find_board b =
    List.find_opt
      (fun (_, (a : Flight.artifact)) -> a.Flight.fa_board = b)
      r.Fleet.fr_flights
  in
  let path, art =
    match find_board 3 with
    | Some pa -> pa
    | None -> Alcotest.fail "no flight artifact for the fault board"
  in
  (match art.Flight.fa_cause with
  | Flight.Fault { fl_proc; fl_reason } ->
      Alcotest.(check string) "faulting process" "crasher" fl_proc;
      Alcotest.(check bool) "fault reason described" true
        (String.length fl_reason > 0)
  | c -> Alcotest.failf "unexpected cause: %s" (Flight.cause_name c));
  Alcotest.(check bool) "artifact file written" true (Sys.file_exists path);
  let raw = read_file path in
  Alcotest.(check bool) "file leads with the magic" true
    (String.length raw >= 8 && String.sub raw 0 8 = Flight.magic);
  (match Flight.decode raw with
  | Error e -> Alcotest.failf "decode: %s" e
  | Ok decoded ->
      Alcotest.(check string) "decode/encode round trip" raw
        (Flight.encode decoded);
      Alcotest.(check bool) "timeline contains the fault event" true
        (List.exists
           (fun e -> e.Flight.fe_kind = "fault")
           decoded.Flight.fa_events);
      (* the packed metrics snapshot decodes and records the fault *)
      (match decoded.Flight.fa_metrics with
      | None -> Alcotest.fail "artifact carries no metrics"
      | Some p -> (
          match Tock_obs.Metrics.unpack p with
          | Error e -> Alcotest.failf "artifact metrics unpack: %s" e
          | Ok snap -> (
              match List.assoc_opt "kernel.faults" snap with
              | Some (Tock_obs.Metrics.Counter v) ->
                  Alcotest.(check int) "fault counted" 1 v
              | _ -> Alcotest.fail "kernel.faults missing from artifact")));
      (* the witness thaws into a live board at the captured instant *)
      (match Fleet.thaw_artifact decoded with
      | Error e -> Alcotest.failf "thaw_artifact: %s" e
      | Ok board ->
          Alcotest.(check int) "thawed clock at capture" decoded.Flight.fa_clock
            (Tock_hw.Sim.now board.Tock_boards.Board.sim);
          Alcotest.(check bool) "thawed board shows the faulted process" true
            (List.exists
               (fun p ->
                 match Tock.Process.state p with
                 | Tock.Process.Faulted _ -> true
                 | _ -> false)
               (Tock.Kernel.processes board.Tock_boards.Board.kernel))));
  (* the degraded verdict added exactly one fleet-level artifact *)
  (match find_board (-1) with
  | None -> Alcotest.fail "SLO-breach artifact missing"
  | Some (fpath, fart) ->
      Alcotest.(check bool) "slo artifact written" true (Sys.file_exists fpath);
      (match fart.Flight.fa_cause with
      | Flight.Slo_breach _ -> ()
      | c -> Alcotest.failf "fleet artifact cause: %s" (Flight.cause_name c));
      (match Fleet.thaw_artifact fart with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "witness-less artifact must not thaw"));
  (* the fault never contaminates the other boards' results *)
  Array.iter
    (fun (bs : Fleet.board_stats) ->
      if bs.Fleet.bs_board <> 3 then
        Alcotest.(check bool)
          (Printf.sprintf "board %d still ran" bs.Fleet.bs_board)
          true (bs.Fleet.bs_syscalls > 0))
    r.Fleet.fr_stats

(* A fault artifact is a function of its board alone: the same bytes on
   a second run in the same host process and at 1 or 2 domains. State
   shared by every board in the process, such as a counter behind the
   traced grant ids, must never reach an artifact. *)
let test_flight_artifact_deterministic () =
  let artifact domains =
    with_flight_dir @@ fun dir ->
    let cfg =
      { Fleet.default with
        boards = 6; domains; group_size = 1; cycles = 400_000;
        batch = 50_000; fault_board = Some 3; flight_dir = Some dir }
    in
    match (Fleet.run_fleet cfg).Fleet.fr_flights with
    | [ (path, _) ] -> read_file path
    | l -> Alcotest.failf "want one artifact, got %d" (List.length l)
  in
  let first = artifact 2 in
  Alcotest.(check bool) "artifact traces grant entries" true
    (match Flight.decode first with
    | Ok a -> List.exists (fun e -> e.Flight.fe_kind = "grant-enter") a.Flight.fa_events
    | Error e -> Alcotest.failf "decode: %s" e);
  Alcotest.(check string) "second run, same process" first (artifact 2);
  Alcotest.(check string) "1 domain" first (artifact 1)

let test_seed_independent_of_grouping () =
  (* group_seed depends only on the fleet seed and first board index. *)
  let s = Fleet.group_seed 42L 0 in
  Alcotest.(check bool) "distinct per index" true
    (s <> Fleet.group_seed 42L 1);
  Alcotest.(check bool) "distinct per fleet seed" true
    (s <> Fleet.group_seed 43L 0);
  Alcotest.(check int64) "pure" s (Fleet.group_seed 42L 0)

let test_bad_config_rejected () =
  List.iter
    (fun cfg ->
      Alcotest.(check bool) "rejected" true
        (try
           ignore (Fleet.run_fleet cfg);
           false
         with Invalid_argument _ -> true))
    [
      { Fleet.default with boards = 0 };
      { Fleet.default with domains = 0 };
      { Fleet.default with group_size = -1 };
      { Fleet.default with cycles = 0 };
      { Fleet.default with batch = 0 };
      { Fleet.default with park_min_quanta = 0 };
      { Fleet.default with fault_board = Some Fleet.default.Fleet.boards };
      { Fleet.default with fault_board = Some (-1) };
      { Fleet.default with
        flight_dir = Some (Filename.concat (Filename.get_temp_dir_name ()) "otock-no-such-dir") };
    ]

let suite =
  [
    Alcotest.test_case "deterministic across domain counts (1/2/4)" `Quick
      test_deterministic_across_domains;
    Alcotest.test_case "deterministic radio groups" `Quick
      test_deterministic_radio_groups;
    Alcotest.test_case "deterministic across batch quanta" `Quick
      test_batch_invariance;
    Alcotest.test_case "fast-forward reaches identical state" `Quick
      test_fast_forward_identical_state;
    Alcotest.test_case "snapshot/restore determinism" `Quick
      test_snapshot_restore_determinism;
    Alcotest.test_case "thaw determinism (O(state) resume)" `Quick
      test_thaw_determinism;
    Alcotest.test_case "corrupt witnesses rejected as Error" `Quick
      test_witness_rejects_corruption;
    Alcotest.test_case "thaw rejects a retyped registry series" `Quick
      test_thaw_rejects_kind_clash;
    Alcotest.test_case "thaw rejects misfit process images" `Quick
      test_thaw_rejects_misfit_images;
    prop_freeze_thaw_contract;
    Alcotest.test_case "thaw just before a timer event" `Quick
      test_thaw_just_before_timer_event;
    Alcotest.test_case "park/resume byte-identical (1/2/4 domains, verified)"
      `Quick test_park_resume_identical;
    Alcotest.test_case "mid-I/O boards stay live instead of parking" `Quick
      test_park_mid_io_stays_live;
    Alcotest.test_case "100k-board construction + park smoke" `Slow
      test_100k_construction_park_smoke;
    Alcotest.test_case "fleet-smoke (2 domains, stealing on)" `Quick
      test_fleet_smoke;
    Alcotest.test_case "health rollups byte-identical (1/2/4 domains)" `Quick
      test_health_identical_across_domains;
    Alcotest.test_case "flight recorder: fault artifact decodes and thaws"
      `Quick test_flight_recorder_artifact;
    Alcotest.test_case "flight artifacts byte-identical across runs and domains"
      `Quick test_flight_artifact_deterministic;
    Alcotest.test_case "group seeds are pure" `Quick
      test_seed_independent_of_grouping;
    Alcotest.test_case "bad configs rejected" `Quick test_bad_config_rejected;
  ]
