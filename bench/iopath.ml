(* Zero-copy I/O path benchmark: drives the allow-window data plane end
   to end — console writes through the UART mux, net transmit through the
   radio's scatter-gather path, and KV puts/gets through the flash iovec
   path — and writes BENCH_iopath.json:

   - a console write performs ZERO data-plane copies between the syscall
     and the hardware (Subslice and Emu copy counters, both modes);
   - the net transmit fast path performs ZERO data-plane copies from
     [send] to the radio latch (both modes);
   - the in-place net round trip agrees byte for byte with the retained
     copying [Net_stack.Reference] path (both modes) and sustains >= 2x
     its throughput (full mode; the two are timed in alternation).

   Gates are reported through [Timing.report].

   Run: dune exec bench/main.exe -- iopath
   The `iopath-smoke` variant runs tiny iteration counts under
   `dune runtest` so the copy invariants (not the host-dependent ratio)
   are exercised on every test run. *)

open Tock
module Emu = Tock_userland.Emu
module Libtock = Tock_userland.Libtock
module Libtock_sync = Tock_userland.Libtock_sync
module Net = Tock_capsules.Net_stack
module Kv = Tock_capsules.Kv_store
module Signpost = Tock_boards.Signpost_board

(* ---- console write: syscall -> allow window -> UART, no staging ---- *)

(* The app issues repeated console writes over one allowed buffer and
   records the worst-case copy-counter delta it ever observed across a
   whole write (syscall, capsule, mux, hardware, completion upcall). The
   first write is warmup: boot-time debug output may still be draining
   through the shared UART. *)
let console_results = ref None

let console_app ~iters app =
  let payload = String.make 32 'x' in
  let len = String.length payload in
  let addr = Emu.get_buffer app ~tag:"iopath-tx" ~size:64 in
  Emu.write_string app ~addr payload;
  (match Libtock.allow_ro app ~driver:Driver_num.console ~num:1 ~addr ~len with
  | Ok _ -> ()
  | Error e -> raise (Emu.App_panic_exn (Error.to_string e)));
  let write () =
    match
      Libtock_sync.call_classic app ~driver:Driver_num.console ~sub:1 ~cmd:1
        ~arg1:len ~arg2:0
    with
    | Ok _ -> ()
    | Error e -> raise (Emu.App_panic_exn (Error.to_string e))
  in
  write ();
  let max_sub = ref 0 and max_emu = ref 0 in
  let sample =
    Timing.per_op "console/write-32B" iters (fun () ->
        let s0 = Subslice.copy_count () and e0 = Emu.copy_count () in
        write ();
        max_sub := max !max_sub (Subslice.copy_count () - s0);
        max_emu := max !max_emu (Emu.copy_count () - e0))
  in
  console_results := Some (!max_sub, !max_emu, sample);
  Libtock.exit app 0

let bench_console ~iters =
  console_results := None;
  let sim = Tock_hw.Sim.create () in
  let chip = Tock_hw.Chip.sam4l_like sim in
  let board = Tock_boards.Board.build chip in
  ignore
    (Tock_boards.Board.add_app board ~name:"iopath-con" (console_app ~iters));
  Tock_boards.Board.run_to_completion board ~max_cycles:4_000_000_000 ();
  match !console_results with
  | Some r -> r
  | None -> failwith "iopath: console bench app did not finish"

(* ---- net transmit: send -> compose -> radio gather, no staging ---- *)

(* Broadcast sends resolve on transmit completion with no ack exchange,
   so the measured window covers exactly the tx fast path: allow-window
   framing, incremental CRC, and the radio's DMA gather. *)
let bench_net_tx ~iters =
  let world = Signpost.create ~nodes:2 () in
  let a = (List.hd world.Signpost.nodes).Signpost.node_board in
  let sa = Option.get a.Tock_boards.Board.net in
  Net.start sa;
  let payload = Bytes.make 64 'p' in
  (* Each iteration sends one broadcast and runs the world to quiescence
     (transmit completion included), so the measured window is exactly
     the tx fast path. *)
  let send_one () =
    match Net.send sa ~dest:0xFFFF payload ~on_result:(fun _ -> ()) with
    | Ok () -> Signpost.run_all world ~max_cycles:50_000_000
    | Error e -> failwith ("iopath: net send: " ^ Error.to_string e)
  in
  (* warmup: boot-time debug output may still be draining *)
  send_one ();
  let max_delta = ref 0 in
  let sample =
    Timing.per_op "net/tx-64B-broadcast" iters (fun () ->
        let s0 = Subslice.copy_count () in
        send_one ();
        max_delta := max !max_delta (Subslice.copy_count () - s0))
  in
  (!max_delta, sample)

(* ---- kv store: scatter-gather put, windowed get ---- *)

let bench_kv ~iters =
  let sim = Tock_hw.Sim.create () in
  let chip = Tock_hw.Chip.sam4l_like sim in
  let kernel = Kernel.create chip in
  (* otock-lint: allow mint-confinement — the bench harness is the board
     main loop for this standalone kernel, same role as lib/boards *)
  let cap = Capability.Trusted_mint.main_loop () in
  let flash_hil = Adaptors.flash chip.Tock_hw.Chip.flash in
  let kv = Kv.create kernel flash_hil ~first_page:0 ~pages:8 in
  let wait result =
    ignore
      (Kernel.run_until kernel ~cap ~max_cycles:2_000_000_000 (fun () ->
           !result <> None));
    match !result with
    | Some r -> r
    | None -> failwith "iopath: kv operation did not complete"
  in
  let key = Bytes.of_string "bench-key" in
  let value = Subslice.of_bytes (Bytes.make 64 'v') in
  let put () =
    let r = ref None in
    Kv.set_sub kv ~key ~value (fun x -> r := Some x);
    match wait r with
    | Ok () -> ()
    | Error e -> failwith ("iopath: kv put: " ^ Error.to_string e)
  in
  let get () =
    let r = ref None in
    Kv.get_sub kv ~key (fun x -> r := Some x);
    match wait r with
    | Ok (Some _) -> ()
    | Ok None -> failwith "iopath: kv get: key missing"
    | Error e -> failwith ("iopath: kv get: " ^ Error.to_string e)
  in
  put ();
  let put_sample = Timing.per_op "kv/put-64B" iters put in
  let s0 = Subslice.copy_count () in
  let get_sample = Timing.per_op "kv/get-64B" iters get in
  (put_sample, get_sample, Subslice.copy_count () - s0)

(* ---- driver ---- *)

let run_mode ~scale ~assert_ratios ~write () =
  Printf.printf "== iopath: zero-copy allow I/O path (scale %.3f) ==\n" scale;
  let it base = max 2 (int_of_float (float_of_int base *. scale)) in
  let con_sub, con_emu, console = bench_console ~iters:(it 200) in
  let net_copies, net_tx = bench_net_tx ~iters:(it 200) in

  (* -- net round trip: in-place vs the copying reference -- *)
  let payload = Bytes.init Net.max_payload (fun i -> Char.chr (i land 0xff)) in
  let out_fast = Bytes.create Net.max_payload in
  let out_ref = Bytes.create Net.max_payload in
  let payload_w = Subslice.of_bytes payload in
  let out_w = Subslice.of_bytes out_fast in
  let rt_fast, rt_ref =
    Timing.pair
      ( "net/round-trip-fast",
        it 50_000,
        fun () ->
          if Net.round_trip ~src:1 ~dst:2 payload_w out_w <> Net.max_payload
          then failwith "iopath: fast round trip failed" )
      ( "net/round-trip-ref",
        it 10_000,
        fun () ->
          if
            Net.Reference.round_trip ~src:1 ~dst:2 payload out_ref
            <> Net.max_payload
          then failwith "iopath: reference round trip failed" )
  in
  let speedup = rt_ref.Timing.ns_per_op /. rt_fast.Timing.ns_per_op in

  (* -- kv put/get over the flash iovec path -- *)
  let kv_put, kv_get, kv_get_copies = bench_kv ~iters:(it 30) in
  Printf.printf "   kv get copies: subslice %d over %d gets\n" kv_get_copies
    kv_get.Timing.ops;

  if write then
    Timing.write_json "iopath"
      [
        ("console_write_subslice_copies", Int con_sub);
        ("console_write_emu_copies", Int con_emu);
        ("net_tx_subslice_copies", Int net_copies);
        ("net_roundtrip_speedup", Float speedup);
        ("kv_get_subslice_copies", Int kv_get_copies);
      ]
      (List.map Timing.sample_fields
         [ console; net_tx; rt_fast; rt_ref; kv_put; kv_get ]);
  Timing.report "iopath"
    ([
       ( "console zero-copy",
         con_sub = 0 && con_emu = 0,
         Printf.sprintf
           "console write = %d subslice / %d emu copies per write (ceiling 0)"
           con_sub con_emu );
       ( "net tx zero-copy",
         net_copies = 0,
         Printf.sprintf "net tx = %d subslice copies per send (ceiling 0)"
           net_copies );
       ( "net round trip agrees",
         Bytes.equal out_fast out_ref,
         "net round trip fast output = reference output" );
     ]
    @
    if assert_ratios then
      [
        ( "net round-trip speedup",
          speedup >= 2.0,
          Printf.sprintf "net round trip = %.2fx the reference (floor 2x)"
            speedup );
      ]
    else [])

let run () = run_mode ~scale:1.0 ~assert_ratios:true ~write:true ()

(* Tiny iteration counts for `dune runtest`: the zero-copy invariants are
   asserted on every test run; the host-dependent throughput ratio is
   not. *)
let run_smoke () = run_mode ~scale:0.002 ~assert_ratios:false ~write:false ()
