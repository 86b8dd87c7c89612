(* Host timing for every bench/ harness: one clock, one estimator, one
   per-op sample schema and JSON writer, and one gate report.

   Estimator: each measured side is warmed up, then timed over [reps]
   passes of [iters] calls. [ns_per_op] is the minimum over passes: the
   host is noisy (other tenants, frequency scaling, GC slices), and the
   minimum is a far more stable estimate of the achievable per-op cost
   than any single pass. Many short passes give each side more chances
   to land in a quiet window than a few long ones (so an absolute ns/op
   bound is looser under this estimator). The median and interquartile
   range are kept alongside so the spread behind that minimum shows.

   A fast-vs-reference ratio is only meaningful when both sides see the
   same host conditions, so [pair] alternates the two sides pass by pass
   instead of timing one after the other. *)

(* CLOCK_MONOTONIC in nanoseconds, the clock otbench reads. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

type sample = {
  name : string;
  ns_per_op : float;  (** min over reps *)
  median_ns : float;
  iqr_ns : float;
  reps : int;
  iters : int;  (** calls per timed pass *)
  ops : int;  (** calls actually run, warm-up included *)
  words : float;  (** minor-heap words over all timed passes *)
}

(* One timed pass. Every side of every bench runs through this one
   loop, so no side gets a luckier code placement than another; it
   returns an int so the pass itself allocates nothing inside the
   minor-words window around it. *)
let pass f n =
  let t0 = now_ns () in
  for _ = 1 to n do
    f ()
  done;
  now_ns () - t0

(* Linear-interpolated quantile of a sorted array. *)
let quantile a q =
  let x = q *. float_of_int (Array.length a - 1) in
  let i = int_of_float x in
  if i + 1 >= Array.length a then a.(i)
  else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let print s =
  Printf.printf "   %-28s %12.1f ns/op  (median %.1f, IQR %.1f, %.0f words)\n%!"
    s.name s.ns_per_op s.median_ns s.iqr_ns s.words

(* Time each side [reps] times, one pass per side per round. A side
   whose pass is a single call (a whole fleet run) is not warmed up:
   its first pass is already seconds long. *)
let interleaved ~reps sides =
  let sides = Array.of_list sides in
  let warmup =
    Array.map
      (fun (_, iters, f) ->
        let n = if iters = 1 then 0 else min iters 1_000 in
        for _ = 1 to n do
          f ()
        done;
        n)
      sides
  in
  let ns = Array.map (fun _ -> Array.make reps 0.) sides in
  let words = Array.make (Array.length sides) 0. in
  for r = 0 to reps - 1 do
    Array.iteri
      (fun i (_, iters, f) ->
        let w0 = Gc.minor_words () in
        let dt = pass f iters in
        words.(i) <- words.(i) +. (Gc.minor_words () -. w0);
        ns.(i).(r) <- float_of_int dt /. float_of_int iters)
      sides
  done;
  Array.to_list
    (Array.mapi
       (fun i (name, iters, _) ->
         let a = ns.(i) in
         Array.sort compare a;
         let s =
           {
             name;
             ns_per_op = a.(0);
             median_ns = quantile a 0.5;
             iqr_ns = quantile a 0.75 -. quantile a 0.25;
             reps;
             iters;
             ops = warmup.(i) + (reps * iters);
             words = words.(i);
           }
         in
         print s;
         s)
       sides)

(* [per_op name iters f]: the sample for [iters] calls of [f] per pass. *)
let per_op name iters f =
  match interleaved ~reps:50 [ (name, iters, f) ] with
  | [ s ] -> s
  | _ -> assert false

(* [pair a b]: both sides timed in alternation, pass by pass, so a
   ratio of their [ns_per_op] cancels host drift instead of sampling it. *)
let pair ?(reps = 50) a b =
  match interleaved ~reps [ a; b ] with
  | [ sa; sb ] -> (sa, sb)
  | _ -> assert false

(* ---- BENCH_<bench>.json ---- *)

type json = Int of int | Float of float | Bool of bool | Str of string

let render = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.6g" f
  | Bool b -> string_of_bool b
  | Str s -> Printf.sprintf "%S" s

let sample_fields s =
  [
    ("name", Str s.name);
    ("ns_per_op", Float s.ns_per_op);
    ("median_ns", Float s.median_ns);
    ("iqr_ns", Float s.iqr_ns);
    ("reps", Int s.reps);
    ("iters", Int s.iters);
  ]

(* Every BENCH file has one shape: the bench name, its scalar fields,
   then one flat object per sample. *)
let write_json bench fields rows =
  let file = "BENCH_" ^ bench ^ ".json" in
  let kv (k, v) = Printf.sprintf "%S: %s" k (render v) in
  let oc = open_out file in
  Printf.fprintf oc "{\n  %s,\n" (kv ("bench", Str bench));
  List.iter (fun f -> Printf.fprintf oc "  %s,\n" (kv f)) fields;
  Printf.fprintf oc "  \"samples\": [\n%s\n  ]\n}\n"
    (String.concat ",\n"
       (List.map
          (fun row -> "    {" ^ String.concat ", " (List.map kv row) ^ "}")
          rows));
  close_out oc;
  Printf.printf "   wrote %s\n%!" file

(* ---- gates ---- *)

(* Each gate is (name, passed, detail). Every gate is printed, then one
   `<bench> gates: k/n passed — PASS|FAIL: ...` summary line; any failure
   exits non-zero, so a `*-smoke` runtest rule fails with it. *)
let report bench gates =
  List.iter
    (fun (_, ok, detail) ->
      Printf.printf "   gate: %s: %s\n%!" detail (if ok then "PASS" else "FAIL"))
    gates;
  let failed = List.filter (fun (_, ok, _) -> not ok) gates in
  Printf.printf "   %s gates: %d/%d passed%s\n%!" bench
    (List.length gates - List.length failed)
    (List.length gates)
    (match failed with
    | [] -> " — PASS"
    | fs ->
        " — FAIL: " ^ String.concat ", " (List.map (fun (n, _, _) -> n) fs));
  if failed <> [] then exit 1;
  print_newline ()
