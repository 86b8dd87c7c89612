(* otock-lint: allow-file crypto-confinement — trusted core re-export of
   the shared CRC-16 kernel so capsules checksum frames without
   referencing tock_crypto directly, plus the window-aware incremental
   update the zero-copy frame path folds scattered Subslice segments
   with (the window arithmetic uses the raw buffer exactly like the DMA
   adaptors do). *)

include Tock_crypto.Crc16

let update_sub crc (s : Subslice.t) =
  let off, len = Subslice.window s in
  update crc (Subslice.underlying s) ~off ~len
