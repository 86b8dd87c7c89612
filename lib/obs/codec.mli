(** Pickler combinators: one description per byte format drives its
    encoder, its decoder and every bounds check.

    Wire conventions: [int]/[int64] are 64-bit little-endian words;
    [string], [list] and [array] prefix a word-sized length; [bool],
    [option] and [variant] tags are one byte. Decoding is total:
    truncated, oversized or malformed input yields [Error] with a
    diagnostic, never an exception. *)

type 'a t

val encode : ?buf:Buffer.t -> 'a t -> 'a -> string
(** [buf], if given, is cleared and used as the scratch encoder. *)

val decode : 'a t -> string -> ('a, string) result
(** [Error] unless the whole input decodes, with no trailing bytes. *)

val fail : ('a, unit, string, 'b) format4 -> 'a
(** Reject the input being decoded. Only for the injections given to
    {!conv} and {!case}, which run under {!decode}. *)

val int : int t
val int64 : int64 t
val char : char t
val bool : bool t
val string : string t

val rest : string t
(** The rest of the enclosing input, unprefixed: only as the last item
    of a format, or of a {!sized} one. *)

(** [max] bounds the element count. It defaults to the bytes left in
    the input, which bounds any container whose elements take at least
    one byte each. *)

val list : ?max:int -> 'a t -> 'a list t
val array : ?max:int -> 'a t -> 'a array t
val option : 'a t -> 'a option t
val pair : 'a t -> 'b t -> ('a * 'b) t
val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t

val conv : ('b -> 'a) -> ('a -> 'b) -> 'a t -> 'b t
(** [conv proj inj c] encodes [proj v] with [c] and decodes through
    [inj], which may reject a decoded value with {!fail}. *)

type 'a case

val case : 'b t -> ('a -> 'b option) -> ('b -> 'a) -> 'a case
(** A constructor: [proj] selects and unwraps the values it encodes,
    [inj] rebuilds them. *)

val const : 'a -> 'a case
(** A constant constructor, matched by structural equality. *)

val variant : string -> 'a case list -> 'a t
(** A tag byte (the case's position in the list), then that case's
    payload; encoding uses the first case whose [proj] matches. The
    string names the type in decode diagnostics. *)

(** Records list their fields once, in wire order:
    {[
      record
        (let+ x = field (fun p -> p.x) int
         and+ y = field (fun p -> p.y) string in
         { x; y })
    ]} *)

type ('r, 'a) fields

val field : ('r -> 'a) -> 'a t -> ('r, 'a) fields
val ( let+ ) : ('r, 'a) fields -> ('a -> 'b) -> ('r, 'b) fields
val ( and+ ) : ('r, 'a) fields -> ('r, 'b) fields -> ('r, 'a * 'b) fields
val record : ('r, 'r) fields -> 'r t

val sized : 'a t -> 'a t
(** Length-prefixed: the inner format must consume exactly its length,
    so a {!rest} inside it stops at the boundary. *)

val frame : magic:string -> 'a t -> 'a t
(** A checksummed container: the 8-byte [magic], the payload length,
    the payload, and the MD5 digest of the payload. Decoding checks
    magic, length and digest before it reads any payload field, so a
    flipped or truncated frame is rejected as a whole. *)
