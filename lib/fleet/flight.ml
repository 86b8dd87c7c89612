(* Fault flight recorder artifacts ("TCKFLT02").

   When a fleet board faults a process, panics its kernel, or the run
   ends in SLO breach, the runner captures everything a postmortem
   needs into one self-contained dump: the cause, the last-N trace
   events from the board's ring, the full packed metrics snapshot, and
   (for board-level causes) a [Kernel.freeze] witness that can be
   thawed back into a live board for inspection.

   The encoding is a checksummed {!Tock_obs.Codec.frame}, like the
   TCKSNP03 board witness, and decoding is total: truncated or
   bit-flipped artifacts yield [Error], never an exception. Trace kinds
   and phases are stored as strings, not variant tags, so an artifact
   written by one build renders under another even if the kind enum
   grew in between. *)

module Codec = Tock_obs.Codec
module Metrics = Tock_obs.Metrics
module Trace = Tock_obs.Trace

let magic = "TCKFLT02"

type cause =
  | Fault of { fl_proc : string; fl_reason : string }
  | Panic of string
  | Slo_breach of string

type event = {
  fe_ts : int;
  fe_tid : int;
  fe_kind : string;
  fe_phase : string; (* "B" | "E" | "i" | "X" *)
  fe_dur : int;
  fe_arg : int;
  fe_text : string;
}

type artifact = {
  fa_cause : cause;
  fa_board : int; (* board index; -1 for fleet-level causes *)
  fa_seed : int64; (* fleet seed, enough to rebuild the board *)
  fa_clock : int; (* board clock at capture, cycles *)
  fa_clock_hz : int;
  fa_events : event list; (* oldest first *)
  fa_metrics : Metrics.packed option;
  fa_witness : string; (* Kernel.freeze bytes; "" when none *)
}

let cause_name = function
  | Fault _ -> "fault"
  | Panic _ -> "panic"
  | Slo_breach _ -> "slo"

let filename a =
  if a.fa_board < 0 then Printf.sprintf "flt-fleet-%s.tckflt" (cause_name a.fa_cause)
  else Printf.sprintf "flt-board%05d-%s.tckflt" a.fa_board (cause_name a.fa_cause)

(* Last [max] retained events of a ring, oldest first. *)
let events_of_trace ?(max = 256) tr =
  let newest_first = ref [] in
  Trace.iter tr (fun e ->
      newest_first :=
        {
          fe_ts = e.Trace.e_ts;
          fe_tid = e.Trace.e_tid;
          fe_kind = Trace.kind_name e.Trace.e_kind;
          fe_phase =
            (match e.Trace.e_phase with
            | Trace.Begin -> "B"
            | Trace.End -> "E"
            | Trace.Instant -> "i"
            | Trace.Complete -> "X");
          fe_dur = e.Trace.e_dur;
          fe_arg = e.Trace.e_arg;
          fe_text = e.Trace.e_text;
        }
        :: !newest_first);
  let rec take k = function
    | [] -> []
    | x :: t -> if k = 0 then [] else x :: take (k - 1) t
  in
  List.rev (take max !newest_first)

let cause =
  Codec.(variant "flight cause"
           [ case (pair string string)
               (function Fault { fl_proc; fl_reason } -> Some (fl_proc, fl_reason) | _ -> None)
               (fun (fl_proc, fl_reason) -> Fault { fl_proc; fl_reason });
             case string (function Panic m -> Some m | _ -> None) (fun m -> Panic m);
             case string (function Slo_breach m -> Some m | _ -> None) (fun m -> Slo_breach m) ])

let event =
  Codec.(record
           (let+ fe_ts = field (fun e -> e.fe_ts) int
            and+ fe_tid = field (fun e -> e.fe_tid) int
            and+ fe_kind = field (fun e -> e.fe_kind) string
            and+ fe_phase = field (fun e -> e.fe_phase) string
            and+ fe_dur = field (fun e -> e.fe_dur) int
            and+ fe_arg = field (fun e -> e.fe_arg) int
            and+ fe_text = field (fun e -> e.fe_text) string in
            { fe_ts; fe_tid; fe_kind; fe_phase; fe_dur; fe_arg; fe_text }))

let codec =
  let clock_hz = Codec.(conv Fun.id (fun hz -> if hz <= 0 then fail "clock_hz %d" hz else hz) int) in
  Codec.(frame ~magic
           (record
              (let+ fa_cause = field (fun a -> a.fa_cause) cause
               and+ fa_board = field (fun a -> a.fa_board) int
               and+ fa_seed = field (fun a -> a.fa_seed) int64
               and+ fa_clock = field (fun a -> a.fa_clock) int
               and+ fa_clock_hz = field (fun a -> a.fa_clock_hz) clock_hz
               and+ fa_events = field (fun a -> a.fa_events) (list event)
               and+ fa_metrics = field (fun a -> a.fa_metrics) (option (sized Metrics.packed_codec))
               and+ fa_witness = field (fun a -> a.fa_witness) string in
               { fa_cause; fa_board; fa_seed; fa_clock; fa_clock_hz; fa_events;
                 fa_metrics; fa_witness })))

let encode a = Codec.encode codec a

let decode s = Codec.decode codec s

let describe_cause = function
  | Fault { fl_proc; fl_reason } ->
      Printf.sprintf "process fault: %s (%s)" fl_proc fl_reason
  | Panic m -> Printf.sprintf "kernel panic: %s" m
  | Slo_breach m -> Printf.sprintf "SLO breach: %s" m

let render a =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "%s postmortem\n" magic);
  Buffer.add_string buf (Printf.sprintf "cause:   %s\n" (describe_cause a.fa_cause));
  if a.fa_board >= 0 then
    Buffer.add_string buf (Printf.sprintf "board:   %d\n" a.fa_board);
  Buffer.add_string buf
    (Printf.sprintf "seed:    %Ld\nclock:   %d cyc @ %d Hz\n" a.fa_seed
       a.fa_clock a.fa_clock_hz);
  Buffer.add_string buf
    (Printf.sprintf "\n-- timeline (last %d events, oldest first) --\n"
       (List.length a.fa_events));
  List.iter
    (fun e ->
      let us = float_of_int e.fe_ts *. 1e6 /. float_of_int a.fa_clock_hz in
      Buffer.add_string buf
        (Printf.sprintf "[%12d cyc %12.3f us] tid=%-3d %s %-12s %s\n" e.fe_ts
           us e.fe_tid e.fe_phase e.fe_kind
           (if e.fe_text = "" then Printf.sprintf "arg=%d" e.fe_arg
            else e.fe_text)))
    a.fa_events;
  Buffer.add_string buf "\n-- metrics --\n";
  (match a.fa_metrics with
  | None -> Buffer.add_string buf "(none captured)\n"
  | Some p -> (
      match Metrics.unpack p with
      | Ok snap -> Buffer.add_string buf (Metrics.render_text snap)
      | Error e ->
          Buffer.add_string buf (Printf.sprintf "(corrupt metrics: %s)\n" e)));
  Buffer.add_string buf
    (if a.fa_witness = "" then "\nwitness: none\n"
     else
       Printf.sprintf "\nwitness: %d bytes (%s)\n"
         (String.length a.fa_witness)
         (if String.length a.fa_witness >= 8 then String.sub a.fa_witness 0 8
          else "short"));
  Buffer.contents buf
