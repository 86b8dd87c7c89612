(* SHA-256 over OCaml's native ints: all 32-bit words are kept masked to
   [mask32], which is safe because the native int is at least 63 bits. *)

let digest_length = 32

let mask32 = 0xFFFFFFFF

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
     0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
     0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
     0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
     0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
     0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
     0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
     0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
     0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

type t = {
  h : int array;            (* 8 chaining words *)
  block : bytes;            (* 64-byte partial block *)
  mutable fill : int;       (* bytes currently buffered in [block] *)
  mutable total : int;      (* total message bytes absorbed *)
  w : int array;            (* 64-entry message schedule, reused *)
}

let init () =
  {
    h =
      [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
         0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |];
    block = Bytes.create 64;
    fill = 0;
    total = 0;
    w = Array.make 64 0;
  }

let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask32

(* Byte-wise/textbook compression — retained as the oracle for the
   fast path below (see {!Reference}). *)
let compress_ref t block off =
  let w = t.w in
  for i = 0 to 15 do
    let j = off + (i * 4) in
    w.(i) <-
      (Char.code (Bytes.get block j) lsl 24)
      lor (Char.code (Bytes.get block (j + 1)) lsl 16)
      lor (Char.code (Bytes.get block (j + 2)) lsl 8)
      lor Char.code (Bytes.get block (j + 3))
  done;
  for i = 16 to 63 do
    let s0 =
      rotr w.(i - 15) 7 lxor rotr w.(i - 15) 18 lxor (w.(i - 15) lsr 3)
    in
    let s1 =
      rotr w.(i - 2) 17 lxor rotr w.(i - 2) 19 lxor (w.(i - 2) lsr 10)
    in
    w.(i) <- (w.(i - 16) + s0 + w.(i - 7) + s1) land mask32
  done;
  let h = t.h in
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for i = 0 to 63 do
    let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
    let ch = (!e land !f) lxor (lnot !e land !g) in
    let t1 = (!hh + s1 + ch + k.(i) + w.(i)) land mask32 in
    let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
    let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
    let t2 = (s0 + maj) land mask32 in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + t1) land mask32;
    d := !c;
    c := !b;
    b := !a;
    a := (t1 + t2) land mask32
  done;
  h.(0) <- (h.(0) + !a) land mask32;
  h.(1) <- (h.(1) + !b) land mask32;
  h.(2) <- (h.(2) + !c) land mask32;
  h.(3) <- (h.(3) + !d) land mask32;
  h.(4) <- (h.(4) + !e) land mask32;
  h.(5) <- (h.(5) + !f) land mask32;
  h.(6) <- (h.(6) + !g) land mask32;
  h.(7) <- (h.(7) + !hh) land mask32

(* ---- fast compression ----

   The same function as [compress_ref], tuned for the data plane:

   - Message words are loaded with one unsafe 32-bit load plus a byte
     swap, after a single bounds check at entry. cmmgen unboxes the
     [Int32] chain, so nothing is allocated.
   - Rotations use the duplicated-word trick: with d = x lor (x lsl 32)
     the low 32 bits of (d lsr n) are rot_n(x) for any n <= 31, since the
     high copy supplies the wrapped-around bits. Each rotation is one
     shift instead of two, and shifts dominate the per-round cost.
   - ch and maj use the xor-chain forms ((f^g)&e)^g and ((a^b)&(b^c))^b.
     A round's b^c is the previous round's a^b, so it is carried in [bc].
   - The sigmas and t1 stay unmasked: they only feed additions that are
     masked before any later right shift, and the native int has
     headroom for the sums. The plain-shift schedule terms read the clean
     word, not the duplicate.
   - The round loop runs 8 rounds per iteration. A round writes only d,
     h and [bc], and the next round reads the state renamed by one
     position, so no eight-variable shuffle is needed; after 8 rounds the
     names are back in place. t1 adds S1 + ch to (h + k + w), which keeps the
     state-independent half off the e -> S1 -> t1 -> e critical path. *)

external get32u : bytes -> int -> int32 = "%caml_bytes_get32u"
external swap32 : int32 -> int32 = "%bswap_int32"

let ld32 b i = Int32.to_int (swap32 (get32u b i)) land mask32

let[@inline] dup x = x lor (x lsl 32)

let[@inline] sigma0 x = let d = dup x in (d lsr 7) lxor (d lsr 18) lxor (x lsr 3)

let[@inline] sigma1 x =
  let d = dup x in (d lsr 17) lxor (d lsr 19) lxor (x lsr 10)

(* S1(e) + ch(e, f, g) and S0(a) + maj(a, b, c), given bc = b^c. *)
let[@inline] sum1_ch e f g =
  let d = dup e in
  (d lsr 6) lxor (d lsr 11) lxor (d lsr 25) + (((f lxor g) land e) lxor g)

let[@inline] sum0_maj a b bc =
  let d = dup a in
  (d lsr 2) lxor (d lsr 13) lxor (d lsr 22)
  + (((a lxor b) land bc) lxor b)

(* k_i + w_i for round i. The 16 message words are loaded into [w] up
   front; each later schedule word is expanded into [w] by the round that
   first consumes it, so that round uses it without a reload. *)
let[@inline] kw w i =
  let wi =
    if i < 16 then Array.unsafe_get w i
    else begin
      let v =
        (Array.unsafe_get w (i - 16) + sigma0 (Array.unsafe_get w (i - 15))
        + Array.unsafe_get w (i - 7) + sigma1 (Array.unsafe_get w (i - 2)))
        land mask32
      in
      Array.unsafe_set w i v;
      v
    end
  in
  Array.unsafe_get k i + wi

let compress_fast t block off =
  if off < 0 || off + 64 > Bytes.length block then
    invalid_arg "Sha256.compress";
  let w = t.w in
  for i = 0 to 15 do
    Array.unsafe_set w i (ld32 block (off + (4 * i)))
  done;
  let h = t.h in
  let a = ref (Array.unsafe_get h 0) and b = ref (Array.unsafe_get h 1) in
  let c = ref (Array.unsafe_get h 2) and d = ref (Array.unsafe_get h 3) in
  let e = ref (Array.unsafe_get h 4) and f = ref (Array.unsafe_get h 5) in
  let g = ref (Array.unsafe_get h 6) and hh = ref (Array.unsafe_get h 7) in
  let bc = ref (!b lxor !c) in
  for r = 0 to 7 do
    let i = r * 8 in
    let t1 = sum1_ch !e !f !g + (!hh + kw w i) in
    d := (!d + t1) land mask32;
    hh := (t1 + sum0_maj !a !b !bc) land mask32;
    bc := !a lxor !b;
    let t1 = sum1_ch !d !e !f + (!g + kw w (i + 1)) in
    c := (!c + t1) land mask32;
    g := (t1 + sum0_maj !hh !a !bc) land mask32;
    bc := !hh lxor !a;
    let t1 = sum1_ch !c !d !e + (!f + kw w (i + 2)) in
    b := (!b + t1) land mask32;
    f := (t1 + sum0_maj !g !hh !bc) land mask32;
    bc := !g lxor !hh;
    let t1 = sum1_ch !b !c !d + (!e + kw w (i + 3)) in
    a := (!a + t1) land mask32;
    e := (t1 + sum0_maj !f !g !bc) land mask32;
    bc := !f lxor !g;
    let t1 = sum1_ch !a !b !c + (!d + kw w (i + 4)) in
    hh := (!hh + t1) land mask32;
    d := (t1 + sum0_maj !e !f !bc) land mask32;
    bc := !e lxor !f;
    let t1 = sum1_ch !hh !a !b + (!c + kw w (i + 5)) in
    g := (!g + t1) land mask32;
    c := (t1 + sum0_maj !d !e !bc) land mask32;
    bc := !d lxor !e;
    let t1 = sum1_ch !g !hh !a + (!b + kw w (i + 6)) in
    f := (!f + t1) land mask32;
    b := (t1 + sum0_maj !c !d !bc) land mask32;
    bc := !c lxor !d;
    let t1 = sum1_ch !f !g !hh + (!a + kw w (i + 7)) in
    e := (!e + t1) land mask32;
    a := (t1 + sum0_maj !b !c !bc) land mask32;
    bc := !b lxor !c
  done;
  Array.unsafe_set h 0 ((Array.unsafe_get h 0 + !a) land mask32);
  Array.unsafe_set h 1 ((Array.unsafe_get h 1 + !b) land mask32);
  Array.unsafe_set h 2 ((Array.unsafe_get h 2 + !c) land mask32);
  Array.unsafe_set h 3 ((Array.unsafe_get h 3 + !d) land mask32);
  Array.unsafe_set h 4 ((Array.unsafe_get h 4 + !e) land mask32);
  Array.unsafe_set h 5 ((Array.unsafe_get h 5 + !f) land mask32);
  Array.unsafe_set h 6 ((Array.unsafe_get h 6 + !g) land mask32);
  Array.unsafe_set h 7 ((Array.unsafe_get h 7 + !hh) land mask32)

let feed_with compress t b ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Sha256.feed";
  t.total <- t.total + len;
  let pos = ref off and remaining = ref len in
  (* Top up a partial block first. *)
  if t.fill > 0 then begin
    let take = min (64 - t.fill) !remaining in
    Bytes.blit b !pos t.block t.fill take;
    t.fill <- t.fill + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if t.fill = 64 then begin
      compress t t.block 0;
      t.fill <- 0
    end
  end;
  while !remaining >= 64 do
    compress t b !pos;
    pos := !pos + 64;
    remaining := !remaining - 64
  done;
  if !remaining > 0 then begin
    Bytes.blit b !pos t.block t.fill !remaining;
    t.fill <- t.fill + !remaining
  end

let feed t b ~off ~len = feed_with compress_fast t b ~off ~len

let feed_string t s =
  feed t (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)

let finalize_with compress t =
  let bitlen = t.total * 8 in
  (* Append 0x80, zero padding, and the 64-bit big-endian length. *)
  Bytes.set t.block t.fill '\x80';
  if t.fill >= 56 then begin
    Bytes.fill t.block (t.fill + 1) (64 - t.fill - 1) '\x00';
    compress t t.block 0;
    Bytes.fill t.block 0 56 '\x00'
  end
  else Bytes.fill t.block (t.fill + 1) (56 - t.fill - 1) '\x00';
  for i = 0 to 7 do
    Bytes.set t.block (56 + i)
      (Char.chr ((bitlen lsr ((7 - i) * 8)) land 0xff))
  done;
  compress t t.block 0;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    let v = t.h.(i) in
    Bytes.set out (i * 4) (Char.chr ((v lsr 24) land 0xff));
    Bytes.set out ((i * 4) + 1) (Char.chr ((v lsr 16) land 0xff));
    Bytes.set out ((i * 4) + 2) (Char.chr ((v lsr 8) land 0xff));
    Bytes.set out ((i * 4) + 3) (Char.chr (v land 0xff))
  done;
  out

let finalize t = finalize_with compress_fast t

let compress t b ~off = compress_fast t b off

let digest_bytes b =
  let t = init () in
  feed t b ~off:0 ~len:(Bytes.length b);
  finalize t

let digest_string s =
  let t = init () in
  feed_string t s;
  finalize t

module Reference = struct
  let digest_bytes b =
    let t = init () in
    feed_with compress_ref t b ~off:0 ~len:(Bytes.length b);
    finalize_with compress_ref t

  let digest_string s = digest_bytes (Bytes.unsafe_of_string s)

  let compress t b ~off = compress_ref t b off
end

let hex b =
  let buf = Buffer.create (2 * Bytes.length b) in
  Bytes.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) b;
  Buffer.contents buf
