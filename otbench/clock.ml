(* Host time for the benchmark: CLOCK_MONOTONIC in nanoseconds, the same
   clock Python's [time.monotonic_ns] reads, so run.py can hand the
   process its own launch instant for [setup_s]. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let s_of_ns ns = float_of_int ns /. 1e9
