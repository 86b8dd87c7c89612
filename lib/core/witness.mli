(** The board witness image and its byte format.

    A witness is everything observable about a parked board: clock,
    cycle split and root-PRNG state, the event-queue deadlines, the
    process table, named freezer sections and both packed metrics
    registries. {!Kernel.freeze} builds an {!image} from live state and
    encodes it with {!codec}; {!Kernel.thaw} and {!Kernel.restore}
    decode one and map it back.

    Format v3: a {!Tock_obs.Codec.frame} with magic ["TCKSNP03"] (magic,
    payload length, payload, MD5 of the payload) around the fields of
    {!image} in declaration order. The two registries nest as
    length-prefixed {!Tock_obs.Metrics.packed_codec} images. *)

val magic : string
(** ["TCKSNP03"]. *)

type ram = { ram_len : int; ram_runs : (int * string) list }
(** A sparse RAM image: (offset, bytes) runs of non-zero data, zero
    everywhere else. *)

val ram_of_bytes : bytes -> ram

type proc = {
  wp_name : string;
  wp_state : Process.state;
  wp_resume : Process.resume_arg option;  (** the kernel's pending resume *)
  wp_restarts : int;
  wp_syscalls : int;
  wp_grant_enters : int;
  wp_grant_bytes : int;
  wp_app_break : int;
  wp_kernel_break : int;
  wp_upcall_drops : int;
  wp_mpu_scans : int;
  wp_ckpt : int;  (** resumable-app checkpoint; 0 = never checkpointed *)
  wp_at_sleep : bool;
  wp_mpu_gen : int;
  wp_mpu_caches : (int * int * int) list;  (** exactly 3 *)
  wp_residue : Process.emu_residue option;
  wp_classes : (int * int) list;  (** per-class syscall counts, sorted *)
  wp_grants : string list;  (** allocated grants, in registry order *)
  wp_subs : (int * int * Process.upcall) list;
      (** (driver, subscribe_num, upcall), sorted *)
  wp_allows : (([ `Rw | `Ro ] * int * int) * (int * int)) list;
      (** ((kind, driver, allow_num), (addr, len)), sorted *)
  wp_pending : Process.pending_upcall list;  (** delivery order *)
  wp_ram : ram;
}

type image = {
  w_now : int;
  w_active : int;
  w_sleep : int;
  w_rng : int64;
  w_events : int array;
      (** sorted live event deadlines (queue sequence numbers are
          allocation order and never survive a rebuild) *)
  w_next_pid : int;
  w_ram_next : int;
  w_procs : proc list;
  w_sections : (string * string) list;
      (** freezer sections by name, each in its own codec *)
  w_kreg : Tock_obs.Metrics.packed;  (** kernel registry *)
  w_sreg : Tock_obs.Metrics.packed;  (** hardware (Sim) registry *)
}

val codec : image Tock_obs.Codec.t
