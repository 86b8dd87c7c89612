(* Bechamel microbenchmarks: host-time cost of the hot primitives. These
   complement the cycle-accounted experiment harnesses with real
   wall-clock measurements of the implementation itself. The crypto
   kernels, CRC, emulated memory access and MPU checks are timed and
   gated by the `datapath` bench instead, so they are not repeated here. *)

open Bechamel
open Toolkit

let sha256_64 =
  let data = Bytes.make 64 'x' in
  Test.make ~name:"sha256/64B" (Staged.stage (fun () ->
      ignore (Tock_crypto.Sha256.digest_bytes data)))

let subslice_ops =
  let s = Tock.Subslice.create 4096 in
  Test.make ~name:"subslice/slice+reset" (Staged.stage (fun () ->
      Tock.Subslice.reset s;
      Tock.Subslice.slice s ~pos:8 ~len:4000;
      Tock.Subslice.set_u8 s 0 1;
      Tock.Subslice.reset s))

let ring_buffer_cycle =
  let r = Tock.Ring_buffer.create ~capacity:16 ~dummy:0 in
  Test.make ~name:"ring/push+pop" (Staged.stage (fun () ->
      ignore (Tock.Ring_buffer.push r 1);
      ignore (Tock.Ring_buffer.pop r)))

let syscall_codec =
  let call =
    Tock.Syscall.Command { driver = 1; command_num = 2; arg1 = 3; arg2 = 4 }
  in
  Test.make ~name:"syscall/encode+decode" (Staged.stage (fun () ->
      ignore (Tock.Syscall.decode_call (Tock.Syscall.encode_call call))))

let syscall_ret_in_place =
  (* The kernel's actual return path: encode into the per-process scratch
     buffer, then decode as the process would. *)
  let ret = Tock.Syscall.Success_u32_u32 (7, 9) in
  let scratch = Array.make 4 0 in
  Test.make ~name:"syscall/ret-in-place" (Staged.stage (fun () ->
      Tock.Syscall.encode_ret_into ret scratch;
      ignore (Tock.Syscall.decode_ret scratch)))

let take_cell_map =
  let c = Tock.Cells.Take_cell.make 42 in
  Test.make ~name:"take_cell/map" (Staged.stage (fun () ->
      ignore (Tock.Cells.Take_cell.map c (fun v -> v + 1))))

let event_queue_cycle =
  let q = Tock_hw.Event_queue.create () in
  let t = ref 0 in
  Test.make ~name:"event_queue/schedule+pop" (Staged.stage (fun () ->
      incr t;
      ignore (Tock_hw.Event_queue.schedule q ~time:!t ignore);
      ignore (Tock_hw.Event_queue.pop_due q ~now:!t)))

let event_queue_deep =
  (* Sift cost with a realistically full queue (timer mux + peripherals
     across a fleet board): 256 standing events. *)
  let q = Tock_hw.Event_queue.create () in
  let t = ref 0 in
  for i = 1 to 256 do
    ignore (Tock_hw.Event_queue.schedule q ~time:(1_000_000 + i) ignore)
  done;
  Test.make ~name:"event_queue/256-pending" (Staged.stage (fun () ->
      incr t;
      ignore (Tock_hw.Event_queue.schedule q ~time:!t ignore);
      ignore (Tock_hw.Event_queue.run_due q ~now:!t)))

let allow_window_setup () =
  (* The per-allow cost the zero-copy path moved to syscall time: resolve
     the range against process memory, build the base-bounded window,
     swap it into the allow table. Borrows Datapath's standalone process,
     built lazily so it only exists when `micro` actually runs. *)
  let p, _, ram_base, _ = Lazy.force Datapath.mpu_context in
  Test.make ~name:"allow/window-setup"
    (Staged.stage (fun () ->
         match
           Tock.Process.make_allow_entry p ~addr:(ram_base + 64) ~len:128
         with
         | Some e ->
             ignore
               (Tock.Process.allow_swap p ~kind:`Ro ~driver:1 ~allow_num:0 e)
         | None -> failwith "micro: allow window setup failed"))

(* Batched vs byte-wise UART transmit: the same 64 bytes as one
   scatter-gather operation (one schedule, one interrupt) versus 64
   single-byte transmits (the pre-batching console drain pattern). *)
let uart_tx_fixture =
  lazy
    (let sim = Tock_hw.Sim.create () in
     let irq = Tock_hw.Irq.create sim in
     let u = Tock_hw.Uart.create sim irq ~irq_line:0 ~name:"micro-uart" in
     Tock_hw.Uart.set_tx_sink u (fun _ -> ());
     (sim, irq, u))

let drive_uart sim irq u =
  while Tock_hw.Uart.tx_busy u do
    ignore (Tock_hw.Sim.advance_to_next_event sim)
  done;
  ignore (Tock_hw.Irq.service irq)

let uart_tx_batched () =
  let sim, irq, u = Lazy.force uart_tx_fixture in
  let buf = Bytes.make 64 'b' in
  Test.make ~name:"uart/tx-64B-batched"
    (Staged.stage (fun () ->
         (match Tock_hw.Uart.transmit_segs u [ (buf, 0, 64) ] with
         | Ok () -> ()
         | Error e -> failwith e);
         drive_uart sim irq u))

let uart_tx_bytewise () =
  let sim, irq, u = Lazy.force uart_tx_fixture in
  let buf = Bytes.make 1 'b' in
  Test.make ~name:"uart/tx-64B-bytewise"
    (Staged.stage (fun () ->
         for _ = 1 to 64 do
           (match Tock_hw.Uart.transmit u buf ~len:1 with
           | Ok () -> ()
           | Error e -> failwith e);
           drive_uart sim irq u
         done))

let kernel_step_idle =
  (* The cost of one full simulated kernel step including a process slice. *)
  let sim = Tock_hw.Sim.create () in
  let chip = Tock_hw.Chip.sam4l_like sim in
  let board = Tock_boards.Board.build chip in
  ignore (Tock_boards.Board.add_app board ~name:"spin" Tock_userland.Apps.spinner);
  let k = board.Tock_boards.Board.kernel in
  let cap = board.Tock_boards.Board.main_cap in
  Test.make ~name:"kernel/step(spinner)" (Staged.stage (fun () ->
      ignore (Tock.Kernel.step k ~cap)))

let all () =
  [ sha256_64; subslice_ops; ring_buffer_cycle; syscall_codec;
    syscall_ret_in_place; take_cell_map; event_queue_cycle;
    event_queue_deep; allow_window_setup (); uart_tx_batched ();
    uart_tx_bytewise (); kernel_step_idle ]

let run () =
  print_endline "== micro: Bechamel host-time microbenchmarks ==";
  let benchmark test =
    let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:None () in
    Benchmark.all cfg Instance.[ monotonic_clock ] test
  in
  let measured = ref [] in
  List.iter
    (fun test ->
      let results = benchmark test in
      let results = Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false
                                   ~predictors:[| Measure.run |]) Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
              measured := (name, est) :: !measured;
              Printf.printf "   %-28s %12.1f ns/op\n" name est
          | _ -> Printf.printf "   %-28s (no estimate)\n" name)
        results)
    (all ());
  let oc = open_out "BENCH_micro.json" in
  Printf.fprintf oc "{\n  \"bench\": \"micro\",\n  \"samples\": [\n%s\n  ]\n}\n"
    (String.concat ",\n"
       (List.rev_map
          (fun (name, est) ->
            Printf.sprintf "    {\"name\": \"%s\", \"ns_per_op\": %.1f}" name
              est)
          !measured));
  close_out oc;
  print_endline "   wrote BENCH_micro.json";
  print_newline ()
