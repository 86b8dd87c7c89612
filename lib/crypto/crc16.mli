(** CRC-16/CCITT-FALSE: the link-layer frame checksum.

    Shared by every consumer (net stack, benches, tests) so the
    polynomial lives in exactly one place. One production kernel,
    {!update}/{!digest} (slicing-by-4, 4 bytes per iteration, with a
    byte-table tail), and {!Reference}, the bitwise oracle. Updates
    thread an explicit CRC state so checksums can be computed
    incrementally across scattered buffer windows. *)

val init : int
(** Initial CRC state (0xFFFF). *)

val update : int -> bytes -> off:int -> len:int -> int
(** Fold [len] bytes at [off] into the given state. *)

val digest : bytes -> off:int -> len:int -> int
(** [update init]. *)

module Reference : sig
  val update : int -> bytes -> off:int -> len:int -> int

  val digest : bytes -> off:int -> len:int -> int
  (** Bit-at-a-time oracle — the definition the tables are derived
      from and property-tested against. *)
end
