(* The observability layer: histogram bucketing invariants (qcheck),
   trace ring drop accounting, Chrome trace-event JSON well-formedness
   (parsed back with a local mini JSON reader), fleet metric-merge
   determinism across domain counts, and the Kernel.stats compatibility
   view. *)

open! Helpers

module Metrics = Tock_obs.Metrics
module Trace = Tock_obs.Trace
module Fleet = Tock_fleet.Fleet

(* ---- mini JSON reader (subset: enough to parse our exporters) ---- *)

type json =
  | J_null
  | J_bool of bool
  | J_num of float
  | J_str of string
  | J_arr of json list
  | J_obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\255' in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = c then advance () else fail (Printf.sprintf "expected %c" c)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (match peek () with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              (* keep the escape verbatim; our exporters never emit it *)
              Buffer.add_string b "\\u"
          | c -> fail (Printf.sprintf "bad escape %c" c));
          advance ();
          go ()
      | '\255' -> fail "unterminated string"
      | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then (
          advance ();
          J_obj [])
        else
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' ->
                advance ();
                members ((key, v) :: acc)
            | '}' ->
                advance ();
                J_obj (List.rev ((key, v) :: acc))
            | _ -> fail "expected , or } in object"
          in
          members []
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then (
          advance ();
          J_arr [])
        else
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' ->
                advance ();
                elems (v :: acc)
            | ']' ->
                advance ();
                J_arr (List.rev (v :: acc))
            | _ -> fail "expected , or ] in array"
          in
          elems []
    | '"' -> J_str (parse_string ())
    | 't' ->
        pos := !pos + 4;
        J_bool true
    | 'f' ->
        pos := !pos + 5;
        J_bool false
    | 'n' ->
        pos := !pos + 4;
        J_null
    | c when c = '-' || (c >= '0' && c <= '9') ->
        let start = !pos in
        let num_char c =
          (c >= '0' && c <= '9')
          || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
        in
        while num_char (peek ()) do
          advance ()
        done;
        J_num (float_of_string (String.sub s start (!pos - start)))
    | _ -> fail "unexpected character"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let obj_get key = function
  | J_obj kvs -> (
      match List.assoc_opt key kvs with
      | Some v -> v
      | None -> Alcotest.failf "json: missing key %s" key)
  | _ -> Alcotest.failf "json: not an object (looking for %s)" key

let as_num = function
  | J_num f -> f
  | _ -> Alcotest.fail "json: expected number"

let as_str = function
  | J_str s -> s
  | _ -> Alcotest.fail "json: expected string"

let as_arr = function
  | J_arr l -> l
  | _ -> Alcotest.fail "json: expected array"

(* ---- metrics: registry basics ---- *)

let test_registry_basics () =
  let r = Metrics.create () in
  let c = Metrics.counter r "a.count" in
  Metrics.incr c;
  Metrics.add c 4;
  Alcotest.(check int) "counter" 5 (Metrics.counter_value c);
  (* idempotent by name: same series *)
  let c' = Metrics.counter r "a.count" in
  Metrics.incr c';
  Alcotest.(check int) "shared series" 6 (Metrics.counter_value c);
  let g = Metrics.gauge r "a.gauge" in
  Metrics.set g 42;
  Alcotest.(check int) "gauge" 42 (Metrics.gauge_value g);
  (* type clash rejected *)
  Alcotest.(check bool) "type clash" true
    (try
       ignore (Metrics.gauge r "a.count");
       false
     with Invalid_argument _ -> true);
  match Metrics.snapshot r with
  | [ ("a.count", Metrics.Counter 6); ("a.gauge", Metrics.Gauge 42) ] -> ()
  | snap -> Alcotest.failf "unexpected snapshot: %s" (Metrics.render_text snap)

(* ---- histograms ---- *)

let test_bucket_edges () =
  Alcotest.(check int) "v=0" 0 (Metrics.bucket_index 0);
  Alcotest.(check int) "v<0" 0 (Metrics.bucket_index (-7));
  Alcotest.(check int) "v=1" 1 (Metrics.bucket_index 1);
  Alcotest.(check int) "v=2" 2 (Metrics.bucket_index 2);
  Alcotest.(check int) "v=3" 2 (Metrics.bucket_index 3);
  Alcotest.(check int) "v=4" 3 (Metrics.bucket_index 4);
  (* OCaml ints are 63-bit: max_int = 2^62 - 1 lands in bucket 62; the
     64th bucket is the clamp for a hypothetical wider int. *)
  Alcotest.(check int) "v=max_int" 62 (Metrics.bucket_index max_int);
  Alcotest.(check int) "lb 1" 1 (Metrics.bucket_lower_bound 1);
  Alcotest.(check int) "lb 4" 8 (Metrics.bucket_lower_bound 4)

let qcheck_bucket_containment =
  qcheck "bucket_index places v within its bucket's bounds"
    QCheck2.Gen.(map (fun i -> abs i) int)
    (fun v ->
      let b = Metrics.bucket_index v in
      b >= 0
      && b < Metrics.buckets
      && (v <= 0 || Metrics.bucket_lower_bound b <= v)
      && (b = 0
         || b >= Metrics.buckets - 1
         (* 1 lsl 62 overflows: the next bound isn't representable *)
         || Metrics.bucket_lower_bound (b + 1) <= 0
         || v < Metrics.bucket_lower_bound (b + 1)))

let qcheck_bucket_monotone =
  qcheck "bucket_index is monotone"
    QCheck2.Gen.(pair small_signed_int small_signed_int)
    (fun (a, b) ->
      let lo = min a b and hi = max a b in
      Metrics.bucket_index lo <= Metrics.bucket_index hi)

let qcheck_histogram_invariants =
  qcheck "histogram count/sum/bucket-total invariants"
    QCheck2.Gen.(list_size (int_bound 200) small_signed_int)
    (fun vs ->
      let r = Metrics.create () in
      let h = Metrics.histogram r "h" in
      List.iter (Metrics.observe h) vs;
      match Metrics.snapshot r with
      | [ ("h", Metrics.Histogram hs) ] ->
          hs.Metrics.hs_count = List.length vs
          && hs.Metrics.hs_sum = List.fold_left ( + ) 0 vs
          && Array.fold_left ( + ) 0 hs.Metrics.hs_buckets
             = hs.Metrics.hs_count
      | _ -> false)

let qcheck_quantile_monotone =
  qcheck "quantile is monotone in q"
    QCheck2.Gen.(
      pair
        (list_size (int_bound 100) (int_bound 10_000))
        (pair (float_bound_inclusive 1.0) (float_bound_inclusive 1.0)))
    (fun (vs, (q1, q2)) ->
      let r = Metrics.create () in
      let h = Metrics.histogram r "h" in
      List.iter (Metrics.observe h) vs;
      match Metrics.snapshot r with
      | [ ("h", Metrics.Histogram hs) ] ->
          let lo = min q1 q2 and hi = max q1 q2 in
          Metrics.quantile hs lo <= Metrics.quantile hs hi
      | _ -> false)

let test_merge_sums () =
  let mk n =
    let r = Metrics.create () in
    let c = Metrics.counter r "c" in
    Metrics.add c n;
    let h = Metrics.histogram r "h" in
    Metrics.observe h n;
    Metrics.snapshot r
  in
  match Metrics.merge [ mk 3; mk 5 ] with
  | [ ("c", Metrics.Counter 8); ("h", Metrics.Histogram hs) ] ->
      Alcotest.(check int) "hist count" 2 hs.Metrics.hs_count;
      Alcotest.(check int) "hist sum" 8 hs.Metrics.hs_sum
  | snap -> Alcotest.failf "unexpected merge: %s" (Metrics.render_text snap)

(* ---- merge-kernel equivalence (qcheck) ----

   Random metric sets over a fixed name/kind universe (kinds must agree
   across snapshots for a merge to be well-typed): pairwise merge,
   streaming accumulation, a two-way tree merge, and packed-input
   accumulation must all equal the test-side reference sum
   ([Merge_oracle.sum], no code shared with the library) — the
   associativity contract the fleet's streaming per-domain merge rests
   on. *)

let gen_metric_specs =
  (* Each snapshot: up to 12 (series index, value) events; each fleet:
     0..6 snapshots. Kind is a pure function of the index. *)
  QCheck2.Gen.(
    list_size (int_bound 6)
      (list_size (int_bound 12) (pair (int_bound 8) (int_bound 1_000))))

let snapshot_of_spec spec =
  let r = Metrics.create () in
  List.iter
    (fun (idx, v) ->
      let name = Printf.sprintf "series.%d" idx in
      match idx mod 3 with
      | 0 -> Metrics.add (Metrics.counter r name) v
      | 1 -> Metrics.set (Metrics.gauge r name) v
      | _ -> Metrics.observe (Metrics.histogram r name) v)
    spec;
  Metrics.snapshot r

let qcheck_merge_kernel_equivalence =
  qcheck "pairwise == streaming == tree == packed merge" gen_metric_specs
    (fun specs ->
      let snaps = List.map snapshot_of_spec specs in
      let reference = Merge_oracle.sum snaps in
      let accumulate add inputs =
        let a = Metrics.Accum.create () in
        List.iter (add a) inputs;
        Metrics.Accum.to_snapshot a
      in
      let tree =
        (* Accumulate halves independently, then absorb — the fleet's
           per-domain-then-cross-domain shape. *)
        let k = List.length snaps / 2 in
        let left = Metrics.Accum.create () in
        let right = Metrics.Accum.create () in
        List.iteri
          (fun i s -> Metrics.Accum.add (if i < k then left else right) s)
          snaps;
        Metrics.Accum.absorb ~into:left right;
        Metrics.Accum.to_snapshot left
      in
      reference = Metrics.merge snaps
      && reference = accumulate Metrics.Accum.add snaps
      && reference = tree
      && reference
         = accumulate Metrics.Accum.add_packed (List.map Metrics.pack snaps))

let qcheck_pack_roundtrip =
  qcheck "pack/unpack round-trips any snapshot" gen_metric_specs
    (fun specs ->
      List.for_all
        (fun spec ->
          let snap = snapshot_of_spec spec in
          Metrics.unpack (Metrics.pack snap) = Ok snap)
        specs)

let test_packed_of_matches_snapshot () =
  (* packed_of (registry iteration order through the pooled pack plan)
     and pack (sorted snapshot order) meet at the same packed value;
     unpacking recovers the snapshot exactly. *)
  let r = Metrics.create () in
  Metrics.add (Metrics.counter r "z.count") 7;
  Metrics.set (Metrics.gauge r "a.gauge") 41;
  let h = Metrics.histogram r "m.lat" in
  List.iter (Metrics.observe h) [ 1; 1; 9; 400 ];
  let snap = Metrics.snapshot r in
  let p = Metrics.packed_of r in
  Alcotest.(check bool) "packed_of = pack . snapshot" true
    (p = Metrics.pack snap);
  Alcotest.(check bool) "unpack . packed_of = snapshot" true
    (Metrics.unpack p = Ok snap);
  Alcotest.(check bool) "binary encoding is stable" true
    (Metrics.packed_to_string p = Metrics.packed_to_string (Metrics.pack snap))

(* ---- the binary codec ----

   Every combinator round-trips ([decode (encode v) = Ok v]), and every
   format except [rest] is self-delimiting, so each strict prefix of an
   encoding — every truncation — must decode to [Error]. *)

module Codec = Tock_obs.Codec

let codec_prop ?(count = 200) name c gen =
  qcheck ~count ("codec: " ^ name) gen (fun v ->
      let s = Codec.encode c v in
      Codec.decode c s = Ok v
      && List.for_all
           (fun k -> Result.is_error (Codec.decode c (String.sub s 0 k)))
           (List.init (String.length s) Fun.id))

type shape = Dot | Tag of int64 | Box of (int * string) list option

let shape_codec =
  Codec.(
    variant "shape"
      [
        const Dot;
        case int64 (function Tag v -> Some v | _ -> None) (fun v -> Tag v);
        case
          (option (list (pair int string)))
          (function Box b -> Some b | _ -> None)
          (fun b -> Box b);
      ])

let gen_shape =
  QCheck2.Gen.(
    oneof
      [
        pure Dot;
        map (fun v -> Tag v) int64;
        map (fun b -> Box b)
          (option (list_size (0 -- 4) (pair int (string_size (0 -- 6)))));
      ])

type sample = {
  s_id : int;
  s_flag : bool;
  s_c : char;
  s_shapes : shape list list;
  s_last : shape option;
  s_words : int array;
  s_triple : int * string * bool;
}

let sample_codec =
  Codec.(
    record
      (let+ s_id = field (fun r -> r.s_id) int
       and+ s_flag = field (fun r -> r.s_flag) bool
       and+ s_c = field (fun r -> r.s_c) char
       and+ s_shapes = field (fun r -> r.s_shapes) (list (list shape_codec))
       and+ s_last = field (fun r -> r.s_last) (option shape_codec)
       and+ s_words = field (fun r -> r.s_words) (array int)
       and+ s_triple = field (fun r -> r.s_triple) (triple int string bool) in
       { s_id; s_flag; s_c; s_shapes; s_last; s_words; s_triple }))

let gen_sample =
  QCheck2.Gen.(
    let* s_id = int and* s_flag = bool and* s_c = char in
    let* s_shapes = list_size (0 -- 3) (list_size (0 -- 3) gen_shape) in
    let* s_last = option gen_shape and* s_words = array_size (0 -- 5) int in
    let+ s_triple = triple int (string_size (0 -- 8)) bool in
    { s_id; s_flag; s_c; s_shapes; s_last; s_words; s_triple })

let qcheck_codec_roundtrips =
  let open QCheck2.Gen in
  [
    codec_prop "int" Codec.int (oneof [ int; oneofl [ min_int; max_int; 0; -1 ] ]);
    codec_prop "int64" Codec.int64 int64;
    codec_prop "bool" Codec.bool bool;
    codec_prop "char" Codec.char char;
    codec_prop "string" Codec.string (string_size (0 -- 40));
    codec_prop "nested list" Codec.(list (list int)) (list_size (0 -- 4) (list_size (0 -- 4) int));
    codec_prop "nested option" Codec.(option (option string))
      (option (option (string_size (0 -- 5))));
    codec_prop "array" Codec.(array int) (array_size (0 -- 8) int);
    codec_prop "variant" shape_codec gen_shape;
    codec_prop "conv" Codec.(conv Int64.of_int Int64.to_int int64) int;
    codec_prop "record of everything" sample_codec gen_sample;
    codec_prop ~count:50 "sized and framed"
      Codec.(frame ~magic:"TESTMAG1" (pair (sized sample_codec) (sized (pair string rest))))
      (pair gen_sample (pair (string_size (0 -- 5)) (string_size (0 -- 5))));
  ]

let test_codec_rejects () =
  let err name c s =
    match Codec.decode c s with
    | Error e when String.length e > 0 -> ()
    | Error _ -> Alcotest.failf "%s: empty diagnostic" name
    | Ok _ -> Alcotest.failf "%s: accepted" name
  in
  let enc c v = Codec.encode c v in
  err "trailing byte" Codec.int (enc Codec.int 5 ^ "x");
  err "bad bool byte" Codec.bool "\002";
  err "unknown variant tag" shape_codec "\003";
  err "count over max" Codec.(list ~max:2 int) (enc Codec.(list int) [ 1; 2; 3 ]);
  err "negative count" Codec.(list int) (enc Codec.int (-1));
  err "absurd count" Codec.(list int) (enc Codec.int max_int);
  err "negative string length" Codec.string (enc Codec.int (-5));
  err "sized overrun" Codec.(sized int) (enc Codec.(pair int int) (16, 1));
  err "sized underrun" Codec.(sized int) (enc Codec.string "123456789");
  err "conv rejection"
    Codec.(conv Fun.id (fun v -> if v < 0 then fail "negative %d" v else v) int)
    (enc Codec.int (-3));
  let framed = Codec.frame ~magic:"TESTMAG1" Codec.string in
  let good = enc framed "payload" in
  err "wrong magic" (Codec.frame ~magic:"TESTMAG2" Codec.string) good;
  let flipped =
    (* a payload character: only the checksum can notice *)
    let b = Bytes.of_string good in
    Bytes.set b 25 'X';
    Bytes.to_string b
  in
  err "checksum mismatch" framed flipped;
  Alcotest.(check bool) "clean frame decodes" true
    (Codec.decode framed good = Ok "payload")

(* The nested packed-metrics encoding is carried inside board
   witnesses and flight artifacts, so it must not drift: a fixed
   registry always encodes to the same bytes. *)
let test_packed_golden_bytes () =
  let r = Metrics.create () in
  Metrics.add (Metrics.counter r "kernel.syscalls") 4242;
  Metrics.add (Metrics.counter r "driver.alarm.commands") 17;
  Metrics.set (Metrics.gauge r "process.blink.grant_bytes") 96;
  Metrics.set (Metrics.gauge r "sim.neg") (-5);
  let h = Metrics.histogram r "kernel.syscall_cycles.command" in
  List.iter (Metrics.observe h) [ 0; 1; 2; 3; 250; 251; 70_000 ];
  ignore (Metrics.histogram r "kernel.empty_hist");
  let s = Metrics.packed_to_string (Metrics.packed_of r) in
  Alcotest.(check int) "encoded length" 352 (String.length s);
  Alcotest.(check string) "encoded digest" "bade8e16744e370f23d624b8800d5651"
    (Digest.to_hex (Digest.string s))

(* ---- packed codec hardening ----

   External packed bytes (park buffers, flight artifacts) must never
   crash the reader: every truncation and every single-byte flip comes
   back [Ok] or [Error] from the whole entry surface
   ([packed_of_string], [unpack], [validate_packed]) —
   never an exception. *)

let test_packed_rejects_corruption () =
  let r = Metrics.create () in
  Metrics.add (Metrics.counter r "k.syscalls") 12345;
  Metrics.set (Metrics.gauge r "k.now") 777;
  let h = Metrics.histogram r "k.lat" in
  List.iter (Metrics.observe h) [ 1; 3; 9; 42; 9000 ];
  let p = Metrics.packed_of r in
  let good = Metrics.packed_to_string p in
  let n = String.length good in
  (match Metrics.packed_of_string good with
  | Ok p' ->
      Alcotest.(check bool) "clean image round-trips" true
        (Metrics.unpack p' = Metrics.unpack p)
  | Error e -> Alcotest.failf "clean image rejected: %s" e);
  let total name f =
    (* the hardening contract: a result, never an exception; when the
       damaged image still parses, unpacking it must be total too *)
    match f () with
    | Ok damaged -> (
        match Metrics.unpack damaged with
        | Ok _ | Error _ -> ()
        | exception e ->
            Alcotest.failf "%s: unpack raised %s" name (Printexc.to_string e))
    | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: diagnostic not empty" name)
          true
          (String.length e > 0)
    | exception e ->
        Alcotest.failf "%s: raised %s instead of a result" name
          (Printexc.to_string e)
  in
  (* every truncation point *)
  for k = 0 to n - 1 do
    total
      (Printf.sprintf "truncated to %d bytes" k)
      (fun () -> Metrics.packed_of_string (String.sub good 0 k))
  done;
  Alcotest.(check bool) "empty image rejected" true
    (Result.is_error (Metrics.packed_of_string ""));
  Alcotest.(check bool) "half image rejected" true
    (Result.is_error (Metrics.packed_of_string (String.sub good 0 (n / 2))));
  (* every single-byte flip *)
  for i = 0 to n - 1 do
    let b = Bytes.of_string good in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5A));
    total
      (Printf.sprintf "byte %d flipped" i)
      (fun () -> Metrics.packed_of_string (Bytes.to_string b))
  done;
  (* a typed-but-torn image: blob shorter than its schema demands *)
  let torn =
    { p with Metrics.p_blob = String.sub p.Metrics.p_blob 0 8 }
  in
  Alcotest.(check bool) "torn blob fails validation" true
    (Result.is_error (Metrics.validate_packed torn));
  Alcotest.(check bool) "torn blob fails unpack" true
    (Result.is_error (Metrics.unpack torn));
  (* an offset near max_int must fail the range check, not overflow it *)
  List.iter
    (fun off ->
      let b = Bytes.of_string p.Metrics.p_blob in
      let rank = String.index p.Metrics.p_schema.Metrics.sc_kinds 'h' in
      Bytes.set_int64_le b (8 * rank) (Int64.of_int off);
      Alcotest.(check bool) "far histogram offset fails validation" true
        (Result.is_error
           (Metrics.validate_packed { p with Metrics.p_blob = Bytes.to_string b })))
    [ max_int - 2; max_int - 1; max_int ];
  (* names out of order could carry one series twice *)
  let twice =
    let sc = p.Metrics.p_schema in
    { p with
      Metrics.p_schema =
        { sc with Metrics.sc_names = Array.map (fun _ -> "k.same") sc.sc_names } }
  in
  Alcotest.(check bool) "repeated name fails validation" true
    (Result.is_error (Metrics.validate_packed twice))

(* ---- restore_packed: the thaw side, fed untrusted images ---- *)

let test_restore_packed () =
  let src = Metrics.create () in
  Metrics.add (Metrics.counter src "k.calls") 12;
  Metrics.set (Metrics.gauge src "k.live") 3;
  List.iter (Metrics.observe (Metrics.histogram src "k.lat")) [ 1; 9; 9; 300 ];
  let p = Metrics.packed_of src in
  let expect_error what f =
    match f () with
    | Ok () -> Alcotest.failf "%s: accepted" what
    | Error e -> Alcotest.(check bool) (what ^ ": diagnostic") true (e <> "")
    | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)
  in
  (* Overwrite, not add: values already in the registry are replaced,
     through the handles its owners hold. *)
  let dst = Metrics.create () in
  let calls = Metrics.counter dst "k.calls" in
  Metrics.add calls 1000;
  Metrics.set (Metrics.gauge dst "k.live") 77;
  List.iter (Metrics.observe (Metrics.histogram dst "k.lat")) [ 5; 70_000 ];
  Alcotest.(check bool) "restore ok" true (Metrics.restore_packed dst p = Ok ());
  Alcotest.(check bool) "values overwritten" true
    (Metrics.snapshot dst = Metrics.snapshot src);
  Alcotest.(check int) "held handle sees the image" 12 (Metrics.counter_value calls);
  (* Series the registry lacks are created. *)
  let fresh = Metrics.create () in
  Alcotest.(check bool) "restore into empty ok" true
    (Metrics.restore_packed fresh p = Ok ());
  Alcotest.(check bool) "series created" true
    (Metrics.snapshot fresh = Metrics.snapshot src);
  let clash = Metrics.create () in
  ignore (Metrics.gauge clash "k.calls");
  expect_error "kind clash" (fun () -> Metrics.restore_packed clash p);
  let stale = Metrics.create () in
  ignore (Metrics.counter stale "k.extra");
  expect_error "series absent from the image" (fun () ->
      Metrics.restore_packed stale p);
  expect_error "torn image" (fun () ->
      Metrics.restore_packed (Metrics.create ())
        { p with Metrics.p_blob = String.sub p.Metrics.p_blob 0 16 });
  expect_error "repeated name" (fun () ->
      Metrics.restore_packed (Metrics.create ())
        { p with
          Metrics.p_schema =
            { p.Metrics.p_schema with
              Metrics.sc_names = Array.map (fun _ -> "k.calls") p.Metrics.p_schema.Metrics.sc_names } })

let test_merge_type_clash () =
  let ra = Metrics.create () and rb = Metrics.create () in
  ignore (Metrics.counter ra "x");
  ignore (Metrics.gauge rb "x");
  Alcotest.(check bool) "clash rejected" true
    (try
       ignore (Metrics.merge [ Metrics.snapshot ra; Metrics.snapshot rb ]);
       false
     with Invalid_argument _ -> true)

let test_render_json_parses () =
  let r = Metrics.create () in
  Metrics.add (Metrics.counter r "k.syscalls") 17;
  Metrics.set (Metrics.gauge r "k.now") 123;
  let h = Metrics.histogram r "k.lat" in
  List.iter (Metrics.observe h) [ 1; 5; 150; 3000 ];
  let j = parse_json (Metrics.render_json (Metrics.snapshot r)) in
  Alcotest.(check int) "counter" 17
    (int_of_float (as_num (obj_get "k.syscalls" j)));
  let hist = obj_get "k.lat" j in
  Alcotest.(check int) "hist count" 4
    (int_of_float (as_num (obj_get "count" hist)));
  Alcotest.(check int) "hist sum" 3156
    (int_of_float (as_num (obj_get "sum" hist)))

(* ---- trace ring ---- *)

let test_trace_drops () =
  let tr = Trace.create ~capacity:4 in
  for i = 1 to 10 do
    Trace.emit tr ~ts:i ~tid:(-1) Trace.Note Trace.Instant ~arg:0
      ~text:(string_of_int i)
  done;
  Alcotest.(check int) "total" 10 (Trace.total tr);
  Alcotest.(check int) "retained" 4 (Trace.retained tr);
  Alcotest.(check int) "dropped" 6 (Trace.dropped tr);
  let seen = ref [] in
  Trace.iter tr (fun e -> seen := e.Trace.e_ts :: !seen);
  Alcotest.(check (list int)) "oldest first, newest kept" [ 7; 8; 9; 10 ]
    (List.rev !seen)

let test_trace_disabled () =
  let tr = Trace.create ~capacity:0 in
  Trace.emit tr ~ts:1 ~tid:0 Trace.Syscall Trace.Begin ~arg:0 ~text:"";
  Alcotest.(check bool) "off" false (Trace.on tr);
  Alcotest.(check int) "nothing recorded" 0 (Trace.total tr)

(* ---- chrome export: well-formed, balanced, metadata-complete ---- *)

let test_chrome_json_roundtrip () =
  (* A real board run so the trace contains every event family. *)
  let sim = Tock_hw.Sim.create ~trace_capacity:8192 () in
  let chip = Tock_hw.Chip.sam4l_like sim in
  let board = Tock_boards.Board.build chip in
  ignore (add_app_exn board ~name:"counter"
            (Tock_userland.Apps.counter ~n:3 ~period_ticks:200));
  run_done board;
  let tr = Tock_hw.Sim.trace_events sim in
  Alcotest.(check bool) "events recorded" true (Trace.retained tr > 0);
  let json_s =
    Trace.to_chrome_json ~pid:0 ~process_name:"board"
      ~tid_names:[ (-1, "kernel") ]
      ~clock_hz:(Tock_hw.Sim.clock_hz sim)
      tr
  in
  let j = parse_json json_s in
  let events = as_arr (obj_get "traceEvents" j) in
  let other = obj_get "otherData" j in
  Alcotest.(check int) "dropped reported" (Trace.dropped tr)
    (int_of_float (as_num (obj_get "dropped_events" other)));
  Alcotest.(check int) "total reported" (Trace.total tr)
    (int_of_float (as_num (obj_get "total_events" other)));
  (* Every record has the required fields; ts never decreases (the
     exporter stable-sorts); B/E balance per tid, never going negative. *)
  let depth = Hashtbl.create 8 in
  let last_ts = ref neg_infinity in
  let n_data = ref 0 in
  List.iter
    (fun e ->
      let ph = as_str (obj_get "ph" e) in
      ignore (as_str (obj_get "name" e));
      let tid = int_of_float (as_num (obj_get "tid" e)) in
      Alcotest.(check bool) "tid shifted non-negative" true (tid >= 0);
      match ph with
      | "M" -> ()
      | "B" | "E" | "i" ->
          incr n_data;
          let ts = as_num (obj_get "ts" e) in
          Alcotest.(check bool) "sorted by ts" true (ts >= !last_ts);
          last_ts := ts;
          if ph = "i" then
            Alcotest.(check string) "instant scope" "t"
              (as_str (obj_get "s" e))
          else begin
            let d = try Hashtbl.find depth tid with Not_found -> 0 in
            let d = if ph = "B" then d + 1 else d - 1 in
            Alcotest.(check bool) "E never precedes B" true (d >= 0);
            Hashtbl.replace depth tid d
          end
      | other -> Alcotest.failf "unexpected phase %s" other)
    events;
  Alcotest.(check int) "all retained events exported" (Trace.retained tr)
    !n_data;
  Hashtbl.iter
    (fun tid d ->
      if d <> 0 then Alcotest.failf "tid %d: %d unclosed spans" tid d)
    depth

let test_text_timeline () =
  let sim = Tock_hw.Sim.create ~trace_capacity:64 () in
  Tock_hw.Sim.trace sim "hello";
  let text = Trace.to_text ~clock_hz:(Tock_hw.Sim.clock_hz sim)
      (Tock_hw.Sim.trace_events sim) in
  check_contains ~msg:"timeline" text "hello"

(* ---- legacy Sim surface rides the structured ring ---- *)

let test_sim_note_compat () =
  let sim = Tock_hw.Sim.create ~trace_capacity:8 () in
  Tock_hw.Sim.spend sim 7;
  Tock_hw.Sim.trace sim "mark";
  Alcotest.(check (list (pair int string))) "recent_trace" [ (7, "mark") ]
    (Tock_hw.Sim.recent_trace sim 5);
  Alcotest.(check int) "no drops yet" 0 (Tock_hw.Sim.trace_dropped sim);
  for i = 0 to 9 do
    Tock_hw.Sim.trace sim (string_of_int i)
  done;
  Alcotest.(check int) "drops counted" 3 (Tock_hw.Sim.trace_dropped sim)

(* ---- kernel registry and the stats compatibility view ---- *)

let test_kernel_stats_thin_view () =
  let board = make_board () in
  ignore (add_app_exn board ~name:"hello" Tock_userland.Apps.hello);
  run_done board;
  let kernel = board.Tock_boards.Board.kernel in
  let s = Tock.Kernel.stats kernel in
  let snap = Tock.Kernel.metrics_snapshot kernel in
  let counter name =
    match List.assoc_opt name snap with
    | Some (Metrics.Counter n) -> n
    | _ -> Alcotest.failf "missing counter %s" name
  in
  Alcotest.(check int) "syscalls" (counter "kernel.syscalls")
    s.Tock.Kernel.syscalls;
  Alcotest.(check int) "switches" (counter "kernel.context_switches")
    s.Tock.Kernel.context_switches;
  Alcotest.(check int) "upcalls" (counter "kernel.upcalls_delivered")
    s.Tock.Kernel.upcalls_delivered;
  Alcotest.(check bool) "ran" true (s.Tock.Kernel.syscalls > 0);
  (* latency histograms populated for the classes hello exercises *)
  (match List.assoc_opt "kernel.syscall_cycles.command" snap with
  | Some (Metrics.Histogram hs) ->
      Alcotest.(check bool) "command latencies recorded" true
        (hs.Metrics.hs_count > 0)
  | _ -> Alcotest.fail "missing command latency histogram");
  (* per-process attribution present *)
  match List.assoc_opt "process.hello.cycles" snap with
  | Some (Metrics.Counter n) ->
      Alcotest.(check bool) "process cycles attributed" true (n > 0)
  | _ -> Alcotest.fail "missing process cycle counter"

let test_irq_latency_histogram () =
  let board = make_board () in
  ignore (add_app_exn board ~name:"counter"
            (Tock_userland.Apps.counter ~n:3 ~period_ticks:100));
  run_done board;
  let snap =
    Metrics.snapshot (Tock_hw.Sim.metrics board.Tock_boards.Board.sim)
  in
  match List.assoc_opt "irq.dispatch_cycles" snap with
  | Some (Metrics.Histogram hs) ->
      Alcotest.(check bool) "irqs serviced" true (hs.Metrics.hs_count > 0);
      Alcotest.(check bool) "latency non-negative" true (hs.Metrics.hs_sum >= 0)
  | _ -> Alcotest.fail "missing irq.dispatch_cycles"

(* ---- fleet aggregation: byte-identical at any domain count ---- *)

let test_fleet_merge_deterministic () =
  let cfg =
    { Fleet.default with Fleet.boards = 4; group_size = 1; cycles = 200_000 }
  in
  let render d =
    let r = Fleet.run_fleet { cfg with Fleet.domains = d } in
    let oracle =
      Metrics.render_json (Merge_oracle.merged_metrics r.Fleet.fr_stats)
    in
    Alcotest.(check string)
      (Printf.sprintf "fr_metrics == reference sum @ %d domains" d)
      oracle
      (Metrics.render_json r.Fleet.fr_metrics);
    oracle
  in
  let one = render 1 in
  Alcotest.(check string) "2 domains" one (render 2);
  Alcotest.(check string) "4 domains" one (render 4);
  check_contains ~msg:"has kernel series" one "kernel.syscalls";
  (* parses as JSON too *)
  ignore (parse_json one)

(* ---- fleet multi-lane Perfetto export ---- *)

let test_fleet_trace_export () =
  let cfg =
    { Fleet.default with
      Fleet.boards = 4; domains = 2; group_size = 1; cycles = 200_000;
      trace_capacity = 4096; trace_boards = 2 }
  in
  let r = Fleet.run_fleet cfg in
  (* tracing is pure observation: results match the untraced run *)
  Alcotest.(check string) "tracing never changes results"
    (Metrics.render_json
       (Merge_oracle.merged_metrics
          (Fleet.run_fleet
             { cfg with Fleet.trace_capacity = 0; trace_boards = 0 })
            .Fleet.fr_stats))
    (Metrics.render_json r.Fleet.fr_metrics);
  let json_s =
    match r.Fleet.fr_trace_json with
    | Some s -> s
    | None -> Alcotest.fail "fr_trace_json missing with tracing on"
  in
  let j = parse_json json_s in
  ignore (as_num (obj_get "clock_hz" (obj_get "otherData" j)));
  let events = as_arr (obj_get "traceEvents" j) in
  (* lane metadata: every pid named exactly once — domain lanes (pid =
     domain) and sampled board lanes (pid = domains + board) must never
     collide *)
  let pid_names = Hashtbl.create 8 in
  List.iter
    (fun e ->
      if
        as_str (obj_get "ph" e) = "M"
        && as_str (obj_get "name" e) = "process_name"
      then begin
        let pid = int_of_float (as_num (obj_get "pid" e)) in
        (match Hashtbl.find_opt pid_names pid with
        | Some prior ->
            Alcotest.failf "pid %d named twice (%s)" pid prior
        | None -> ());
        Hashtbl.add pid_names pid (as_str (obj_get "name" (obj_get "args" e)))
      end)
    events;
  List.iter
    (fun (pid, name) ->
      match Hashtbl.find_opt pid_names pid with
      | Some n ->
          Alcotest.(check string) (Printf.sprintf "lane pid %d" pid) name n
      | None -> Alcotest.failf "lane pid %d missing" pid)
    [ (0, "domain 0"); (1, "domain 1"); (2, "board 0"); (3, "board 1") ];
  (* every data record well-formed; ts monotone within each lane; B/E
     balanced per (pid, tid) stack, never going negative *)
  let depth = Hashtbl.create 16 in
  let last_ts = Hashtbl.create 8 in
  let n_data = ref 0 in
  let domain_dispatches = ref 0 in
  let board_events = ref 0 in
  List.iter
    (fun e ->
      let ph = as_str (obj_get "ph" e) in
      let pid = int_of_float (as_num (obj_get "pid" e)) in
      let tid = int_of_float (as_num (obj_get "tid" e)) in
      Alcotest.(check bool) "tid shifted non-negative" true (tid >= 0);
      if ph <> "M" then begin
        incr n_data;
        if pid < 2 && as_str (obj_get "cat" e) = "dispatch" then
          incr domain_dispatches;
        if pid >= 2 then incr board_events;
        let ts = as_num (obj_get "ts" e) in
        let prev =
          Option.value ~default:neg_infinity (Hashtbl.find_opt last_ts pid)
        in
        Alcotest.(check bool)
          (Printf.sprintf "lane %d sorted by ts" pid)
          true (ts >= prev);
        Hashtbl.replace last_ts pid ts
      end;
      match ph with
      | "M" -> ()
      | "i" ->
          Alcotest.(check string) "instant scope" "t" (as_str (obj_get "s" e))
      | "X" ->
          Alcotest.(check bool) "complete has a duration" true
            (as_num (obj_get "dur" e) >= 0.)
      | "B" | "E" ->
          let key = (pid, tid) in
          let d = Option.value ~default:0 (Hashtbl.find_opt depth key) in
          let d = if ph = "B" then d + 1 else d - 1 in
          if d < 0 then Alcotest.failf "pid %d tid %d: E before B" pid tid;
          Hashtbl.replace depth key d
      | other -> Alcotest.failf "unexpected phase %s" other)
    events;
  Hashtbl.iter
    (fun (pid, tid) d ->
      if d <> 0 then
        Alcotest.failf "pid %d tid %d: %d unclosed spans" pid tid d)
    depth;
  Alcotest.(check bool) "data events exported" true (!n_data > 0);
  Alcotest.(check bool) "domain lanes carry dispatch quanta" true
    (!domain_dispatches > 0);
  Alcotest.(check bool) "sampled board lanes carry events" true
    (!board_events > 0)

let suite =
  [
    Alcotest.test_case "registry basics" `Quick test_registry_basics;
    Alcotest.test_case "histogram bucket edges" `Quick test_bucket_edges;
    qcheck_bucket_containment;
    qcheck_bucket_monotone;
    qcheck_histogram_invariants;
    qcheck_quantile_monotone;
    Alcotest.test_case "merge sums" `Quick test_merge_sums;
    qcheck_merge_kernel_equivalence;
    qcheck_pack_roundtrip;
  ]
  @ qcheck_codec_roundtrips
  @ [
    Alcotest.test_case "packed_of matches snapshot" `Quick
      test_packed_of_matches_snapshot;
    Alcotest.test_case "codec rejects malformed input" `Quick
      test_codec_rejects;
    Alcotest.test_case "packed encoding golden bytes" `Quick
      test_packed_golden_bytes;
    Alcotest.test_case "packed codec rejects corruption" `Quick
      test_packed_rejects_corruption;
    Alcotest.test_case "merge type clash" `Quick test_merge_type_clash;
    Alcotest.test_case "restore_packed overwrites, creates, rejects" `Quick
      test_restore_packed;
    Alcotest.test_case "render_json parses" `Quick test_render_json_parses;
    Alcotest.test_case "trace ring drop accounting" `Quick test_trace_drops;
    Alcotest.test_case "trace disabled is free" `Quick test_trace_disabled;
    Alcotest.test_case "chrome JSON round-trip" `Quick
      test_chrome_json_roundtrip;
    Alcotest.test_case "text timeline" `Quick test_text_timeline;
    Alcotest.test_case "legacy Sim notes" `Quick test_sim_note_compat;
    Alcotest.test_case "Kernel.stats is a thin view" `Quick
      test_kernel_stats_thin_view;
    Alcotest.test_case "irq latency histogram" `Quick
      test_irq_latency_histogram;
    Alcotest.test_case "fleet merge deterministic" `Quick
      test_fleet_merge_deterministic;
    Alcotest.test_case "fleet Perfetto export parses back" `Quick
      test_fleet_trace_export;
  ]
