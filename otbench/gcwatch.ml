(* The OCaml runtime layer, watched from outside the program:
   [Gc.quick_stat] deltas around a workload window, and GC pause
   durations read back from the runtime's own event ring through the
   stdlib [runtime_events] library.

   A pause is an outermost [EV_MINOR] or [EV_MAJOR_SLICE] phase on one
   domain (nested phases are folded into the enclosing one). Only the
   traced run starts the event ring, so untraced runs pay nothing. *)

type t = {
  cursor : Runtime_events.cursor;
  cb : Runtime_events.Callbacks.t;
  current : Samples.t;  (* pauses read since the last window opened *)
  pauses : Samples.t;  (* pauses inside every window so far *)
  lost : int ref;  (* events overwritten before they were read *)
}

let is_pause = function
  | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE -> true
  | _ -> false

let ts_ns ts = Int64.to_int (Runtime_events.Timestamp.to_int64 ts)

let create () =
  Runtime_events.start ();
  (* Per ring (domain slot): open pause phases, and the ns timestamp of
     the outermost begin. *)
  let depth = Array.make 128 0 and began = Array.make 128 0 in
  let current = Samples.create () and lost = ref 0 in
  let cb =
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun d ts ph ->
        if is_pause ph && d < 128 then begin
          if depth.(d) = 0 then began.(d) <- ts_ns ts;
          depth.(d) <- depth.(d) + 1
        end)
      ~runtime_end:(fun d ts ph ->
        if is_pause ph && d < 128 && depth.(d) > 0 then begin
          depth.(d) <- depth.(d) - 1;
          if depth.(d) = 0 then Samples.push current (ts_ns ts - began.(d))
        end)
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()
  in
  { cursor = Runtime_events.create_cursor None; cb; current; pauses = Samples.create (); lost }

let poll t = ignore (Runtime_events.read_poll t.cursor t.cb None)

let pause_total_ns t = Samples.sum t.pauses

type window = { minor_words : float; promoted_words : float; major_collections : int }

let zero = { minor_words = 0.; promoted_words = 0.; major_collections = 0 }

(* Run [f] as one measured window: the quick-stat deltas across it, and
   the pauses that began and ended inside it, added to [w]. *)
let window t w f =
  poll t;
  Samples.clear t.current;
  let a = Gc.quick_stat () in
  let r = f () in
  let b = Gc.quick_stat () in
  poll t;
  Samples.append ~into:t.pauses t.current;
  ( r,
    {
      minor_words = w.minor_words +. b.Gc.minor_words -. a.Gc.minor_words;
      promoted_words = w.promoted_words +. b.Gc.promoted_words -. a.Gc.promoted_words;
      major_collections = w.major_collections + b.Gc.major_collections - a.Gc.major_collections;
    } )

(* Live words after a full major collection. Not [Gc.compact]: that
   also shrinks the heap, and the next timed window would pay the
   re-expansion. *)
let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
