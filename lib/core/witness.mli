(** The board witness image and its byte format.

    A witness is everything observable about a parked board: clock,
    cycle split and root-PRNG state, the event-queue deadlines, the
    process table, named freezer sections and both packed metrics
    registries. {!Kernel.freeze} builds an {!image} from live state and
    encodes it with {!codec}; {!Kernel.thaw} and {!Kernel.restore}
    decode one and map it back.

    Format v3: a {!Tock_obs.Codec.frame} with magic ["TCKSNP03"] (magic,
    payload length, payload, MD5 of the payload) around the fields of
    {!image} in declaration order. Within a {!proc}, the kernel's fields
    sit among the image's in a fixed order: name, state, resume,
    counters through per-class syscall counts, grants, then
    subscriptions, allows, pending upcalls and RAM. The two registries
    nest as length-prefixed {!Tock_obs.Metrics.packed_codec} images. *)

val magic : string
(** ["TCKSNP03"]. *)

type proc = {
  wp_name : string;
  wp_resume : Process.resume_arg option;  (** the kernel's pending resume *)
  wp_grants : string list;  (** allocated grants, in registry order *)
  wp_image : Process.image;  (** everything the process owns *)
}
(** One process-table entry: the process's own {!Process.image} and
    what the kernel keeps beside it. *)

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
