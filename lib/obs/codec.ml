(* Pickler combinators: the one binary codec behind every byte format
   the tree persists (board witnesses, freezer sections, flight
   artifacts, packed metrics).

   A ['a t] pairs an encoder with a decoder built from the same
   description, so the two cannot drift apart and every bounds check
   lives here. Integers are 64-bit little-endian words; strings and
   containers carry a word-sized length; tags and flags are one byte.
   Decoding reads from a window [pos, lim) of the input; a short or
   malformed input raises the private [Corrupt] exception, which
   [decode] turns into [Error] — nothing escapes it. *)

exception Corrupt of string

let fail fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

type reader = { s : string; mutable pos : int; mutable lim : int }

type 'a t = { enc : Buffer.t -> 'a -> unit; dec : reader -> 'a }

let need r n what =
  if n < 0 || n > r.lim - r.pos then
    fail "truncated %s at byte %d (%d bytes wanted, %d left)" what r.pos n
      (r.lim - r.pos)

let encode ?buf c v =
  let buf = match buf with Some b -> Buffer.clear b; b | None -> Buffer.create 256 in
  c.enc buf v;
  Buffer.contents buf

let decode c s =
  let r = { s; pos = 0; lim = String.length s } in
  match c.dec r with
  | v when r.pos = r.lim -> Ok v
  | _ -> Error (Printf.sprintf "%d trailing bytes" (r.lim - r.pos))
  | exception Corrupt m -> Error m

(* ---- primitives ---- *)

(* [int] reads its word directly rather than through [int64], so the
   hot path never boxes an intermediate [int64]. *)
let int =
  { enc = (fun b v -> Buffer.add_int64_le b (Int64.of_int v));
    dec = (fun r ->
      need r 8 "word";
      let v = Int64.to_int (String.get_int64_le r.s r.pos) in
      r.pos <- r.pos + 8;
      v) }

let int64 =
  { enc = Buffer.add_int64_le;
    dec = (fun r ->
      need r 8 "word";
      let v = String.get_int64_le r.s r.pos in
      r.pos <- r.pos + 8;
      v) }

let char =
  { enc = Buffer.add_char;
    dec = (fun r ->
      need r 1 "byte";
      r.pos <- r.pos + 1;
      r.s.[r.pos - 1]) }

let bool =
  { enc = (fun b v -> Buffer.add_char b (if v then '\001' else '\000'));
    dec = (fun r ->
      match char.dec r with
      | '\000' -> false
      | '\001' -> true
      | c -> fail "bad flag byte %d at byte %d" (Char.code c) (r.pos - 1)) }

let take r n =
  need r n "bytes";
  r.pos <- r.pos + n;
  String.sub r.s (r.pos - n) n

let string =
  { enc = (fun b s -> int.enc b (String.length s); Buffer.add_string b s);
    dec = (fun r -> take r (int.dec r)) }

let rest = { enc = Buffer.add_string; dec = (fun r -> take r (r.lim - r.pos)) }

(* ---- containers ---- *)

let count ?max r =
  let at = r.pos in
  let n = int.dec r in
  if n < 0 || n > Option.value max ~default:(r.lim - r.pos) then
    fail "bad element count %d at byte %d" n at;
  n

let list ?max c =
  { enc = (fun b l -> int.enc b (List.length l); List.iter (c.enc b) l);
    dec = (fun r ->
      let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (c.dec r :: acc) in
      go (count ?max r) []) }

let array ?max c =
  { enc = (fun b a -> int.enc b (Array.length a); Array.iter (c.enc b) a);
    dec = (fun r ->
      match count ?max r with
      | 0 -> [||]
      | n ->
          let a = Array.make n (c.dec r) in
          for i = 1 to n - 1 do a.(i) <- c.dec r done;
          a) }

let option c =
  { enc = (fun b v -> bool.enc b (Option.is_some v); Option.iter (c.enc b) v);
    dec = (fun r -> if bool.dec r then Some (c.dec r) else None) }

let pair a b =
  { enc = (fun buf (x, y) -> a.enc buf x; b.enc buf y);
    dec = (fun r -> let x = a.dec r in (x, b.dec r)) }

let triple a b c =
  { enc = (fun buf (x, y, z) -> a.enc buf x; b.enc buf y; c.enc buf z);
    dec = (fun r -> let x = a.dec r in let y = b.dec r in (x, y, c.dec r)) }

let conv proj inj c = { enc = (fun b v -> c.enc b (proj v)); dec = (fun r -> inj (c.dec r)) }

(* ---- variants ---- *)

type 'a case = Case : 'b t * ('a -> 'b option) * ('b -> 'a) -> 'a case

let case c proj inj = Case (c, proj, inj)

let const v =
  case { enc = (fun _ () -> ()); dec = ignore } (fun x -> if x = v then Some () else None) (fun () -> v)

let variant what cases =
  let cases = Array.of_list cases in
  if Array.length cases > 256 then invalid_arg "Codec.variant: over 256 cases";
  { enc = (fun b v ->
      let rec go i =
        if i = Array.length cases then invalid_arg ("Codec.variant: no case encodes this " ^ what);
        let (Case (c, proj, _)) = cases.(i) in
        match proj v with
        | Some x -> Buffer.add_char b (Char.chr i); c.enc b x
        | None -> go (i + 1)
      in
      go 0);
    dec = (fun r ->
      let tag = Char.code (char.dec r) in
      if tag >= Array.length cases then fail "unknown %s tag %d at byte %d" what tag (r.pos - 1);
      let (Case (c, _, inj)) = cases.(tag) in
      inj (c.dec r)) }

(* ---- records ---- *)

type ('r, 'a) fields = { fenc : Buffer.t -> 'r -> unit; fdec : reader -> 'a }

let field get c = { fenc = (fun b r -> c.enc b (get r)); fdec = c.dec }

let ( let+ ) f k = { fenc = f.fenc; fdec = (fun r -> k (f.fdec r)) }

let ( and+ ) a b =
  { fenc = (fun buf r -> a.fenc buf r; b.fenc buf r);
    fdec = (fun r -> let x = a.fdec r in (x, b.fdec r)) }

let record f = { enc = f.fenc; dec = f.fdec }

(* ---- nesting and framing ---- *)

(* Encode [v] on its own, for a container that writes the payload's
   length (and digest) in front of it. *)
let payload c buf v =
  let p0 = Buffer.length buf in
  c.enc buf v;
  let s = Buffer.sub buf p0 (Buffer.length buf - p0) in
  Buffer.truncate buf p0;
  s

(* Decode [c] from exactly the next [n] bytes. *)
let within r n c =
  need r n "payload";
  let lim = r.lim in
  r.lim <- r.pos + n;
  let v = c.dec r in
  if r.pos <> r.lim then fail "%d trailing bytes in payload" (r.lim - r.pos);
  r.lim <- lim;
  v

let sized c =
  { enc = (fun b v -> string.enc b (payload c b v)); dec = (fun r -> within r (int.dec r) c) }

let frame ~magic c =
  if String.length magic <> 8 then invalid_arg "Codec.frame: magic must be 8 bytes";
  { enc = (fun b v ->
      let p = payload c b v in
      Buffer.add_string b magic;
      string.enc b p;
      Buffer.add_string b (Digest.string p));
    dec = (fun r ->
      let m = take r 8 in
      if not (String.equal m magic) then fail "bad magic %S (want %S)" m magic;
      let n = int.dec r in
      need r n "payload";
      need r (n + 16) "checksum";
      if not (String.equal (Digest.substring r.s r.pos n) (String.sub r.s (r.pos + n) 16)) then
        fail "checksum mismatch over the %d-byte payload" n;
      let v = within r n c in
      r.pos <- r.pos + 16;
      v) }
