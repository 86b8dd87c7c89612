(* Host-time spans around the public calls the benchmark makes into each
   layer. Spans nest (a park resume rebuilds, reloads and thaws a board;
   a secure boot constructs, signs and verifies), so each layer keeps
   both its inclusive time and its self time — span duration minus the
   time its child spans cover.

   Every span is also recorded into the existing [Tock_obs.Trace] ring of
   its layer (host-ns timestamps from the start of the recording, one
   lane per layer) and exported at the end of the run through
   [Trace.to_chrome_json_lanes]. A disabled recorder runs the wrapped
   call and nothing else. *)

type layer =
  | Construct  (** Sim + chip + Board.build (Rot_board.create on rot) *)
  | Load  (** Board.add_app, all apps of one board *)
  | Quantum  (** one Kernel.run_to_deadline call *)
  | Sleep_to  (** Kernel.sleep_to: the fast-forward over a parked gap *)
  | Freeze  (** Kernel.freeze at the park threshold *)
  | Resume
      (** rebuild + reload + thaw of a parked board; a Kernel.restore replay
          (when thaw declines) counts as its self time *)
  | Thaw  (** Kernel.thaw into the rebuilt board *)
  | Retire  (** Kernel.stats + output digest + Metrics.packed_of *)
  | Rollup_add  (** Rollup.add_packed (health rollups) *)
  | Merge  (** Metrics.Accum.add_packed / to_snapshot *)
  | Secure_boot  (** Rot_board create + sign + verified async load *)
  | Sign  (** Rot_board.sign_app of the four apps *)
  | Verify  (** Rot_board.load_signed pumped until the loader finishes *)

let layers =
  [| Construct; Load; Quantum; Sleep_to; Freeze; Resume; Thaw; Retire;
     Rollup_add; Merge; Secure_boot; Sign; Verify |]

let index = function
  | Construct -> 0
  | Load -> 1
  | Quantum -> 2
  | Sleep_to -> 3
  | Freeze -> 4
  | Resume -> 5
  | Thaw -> 6
  | Retire -> 7
  | Rollup_add -> 8
  | Merge -> 9
  | Secure_boot -> 10
  | Sign -> 11
  | Verify -> 12

let name = function
  | Construct -> "construct"
  | Load -> "load"
  | Quantum -> "quantum"
  | Sleep_to -> "sleep_to"
  | Freeze -> "freeze"
  | Resume -> "resume"
  | Thaw -> "thaw"
  | Retire -> "retire"
  | Rollup_add -> "rollup_add"
  | Merge -> "merge"
  | Secure_boot -> "secure_boot"
  | Sign -> "sign"
  | Verify -> "verify"

type acc = {
  ring : Tock_obs.Trace.t;
  durs : Samples.t;  (* ns per span *)
  mutable total_ns : int;
  mutable self_ns : int;
}

type t = {
  on : bool;
  t0 : int;
  accs : acc array;
  child : int array;  (* per nesting depth: time covered by child spans *)
  mutable depth : int;
  mutable top_ns : int;  (* summed duration of outermost spans *)
}

(* Ring capacity per layer lane: the newest spans are kept, older ones
   are counted as dropped in the exported metadata. *)
let ring_capacity = 8192

let create ~on =
  {
    on;
    t0 = Clock.now_ns ();
    accs =
      Array.map
        (fun _ ->
          {
            ring = Tock_obs.Trace.create ~capacity:(if on then ring_capacity else 0);
            durs = Samples.create ();
            total_ns = 0;
            self_ns = 0;
          })
        layers;
    child = Array.make 16 0;
    depth = 0;
    top_ns = 0;
  }

let off = create ~on:false

let span t layer ~arg f =
  if not t.on then f ()
  else begin
    let depth = t.depth in
    t.child.(depth) <- 0;
    t.depth <- depth + 1;
    let st = Clock.now_ns () in
    let r = f () in
    let d = Clock.now_ns () - st in
    t.depth <- depth;
    let a = t.accs.(index layer) in
    a.total_ns <- a.total_ns + d;
    a.self_ns <- a.self_ns + d - t.child.(depth);
    if depth > 0 then t.child.(depth - 1) <- t.child.(depth - 1) + d
    else t.top_ns <- t.top_ns + d;
    Samples.push a.durs d;
    Tock_obs.Trace.emit_complete a.ring ~ts:(st - t.t0) ~dur:d ~tid:(-1)
      Tock_obs.Trace.Note ~arg ~text:(name layer);
    r
  end

let total_s t layer = Clock.s_of_ns t.accs.(index layer).total_ns

let self_s t layer = Clock.s_of_ns t.accs.(index layer).self_ns

let top_s t = Clock.s_of_ns t.top_ns

(* Quantile of a layer's span durations, in microseconds. *)
let quantile_us t layer q = float_of_int (Samples.quantile t.accs.(index layer).durs q) /. 1e3

let chrome_json t =
  Tock_obs.Trace.to_chrome_json_lanes ~clock_hz:1_000_000_000
    (Array.to_list
       (Array.map
          (fun l ->
            {
              Tock_obs.Trace.lane_pid = index l;
              lane_name = name l;
              lane_tids = [ (-1, name l) ];
              lane_trace = t.accs.(index l).ring;
            })
          layers))
