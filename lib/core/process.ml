type id = int

type fault_reason =
  | Mpu_violation of string
  | Bad_syscall of string
  | App_panic of string

type state =
  | Unstarted
  | Runnable
  | Yielded
  | Yielded_for of { driver : int; subscribe_num : int }
  | Blocked_command of { driver : int; subscribe_num : int }
  | Faulted of fault_reason
  | Terminated of { code : int }
  | Stopped of state

type trap =
  | Trap_syscall of int array
  | Trap_fault of fault_reason
  | Trap_timeslice_expired

type resume_arg =
  | Rstart
  | Rcontinue
  | Rsyscall_ret of int array
  | Rupcall of {
      fnptr : int;
      appdata : int;
      arg0 : int;
      arg1 : int;
      arg2 : int;
    }

type execution = {
  step : fuel:int -> resume_arg -> trap * int;
  destroy : unit -> unit;
}

type upcall = { fnptr : int; appdata : int }

let null_upcall = { fnptr = 0; appdata = 0 }

type pending_upcall = {
  pu_driver : int;
  pu_subscribe : int;
  pu_upcall : upcall;
  pu_args : int * int * int;
}

(* An allowed buffer, materialized as a window over process memory at
   allow time (§4.2): [a_window] is a base-bounded Subslice the kernel
   hands to capsules in place — no per-access translation, no copy, and
   no way to widen past the allowed range. [None] iff the allow is
   zero-length (a Tock 2.0 revocation). *)
type allow_entry = { a_addr : int; a_len : int; a_window : Subslice.t option }

let zero_allow = { a_addr = 0; a_len = 0; a_window = None }

(* Last-hit MPU access cache, one per access kind. The emulated data
   plane funnels every load/store through [check_access]; the common case
   is a run of accesses inside the same protection region, so we remember
   the permitting [c_lo, c_hi) range and the MPU configuration generation
   it was observed at. A hit is three integer compares — no region-table
   scan. Any mutation of the MPU config (region allocation, brk, restart)
   bumps the generation and implicitly invalidates all three entries;
   caching a range across a generation change is exactly the stale-MPU
   bug class of paper §5.4, so validity is checked on every lookup. *)
type access_cache = {
  mutable c_gen : int; (* -1 = never primed *)
  mutable c_lo : int;
  mutable c_hi : int;
}

let fresh_cache () = { c_gen = -1; c_lo = 0; c_hi = 0 }

let upcall_queue_capacity = 16

(* ---- freeze/thaw bridge ----

   Process executions are effect continuations and cannot be
   serialized, but the userland emulator keeps a small amount of
   *data* state beside the continuation (bump-allocator cursor, upcall
   function-id counter, named scratch buffers). The emulator installs a
   [bridge] of closures over that state when it attaches an execution,
   so [image] and [restore_image] below can capture and re-establish it
   without [Tock] depending on the userland layer. *)

type emu_residue = {
  er_alloc_next : int;
  er_next_fn : int;
  er_scratch : (string * (int * int)) list;  (* tag -> (addr, size), sorted *)
}

type bridge = {
  br_residue : unit -> emu_residue;
  br_set_residue : emu_residue -> unit;
  br_remap_upcall : old_id:int -> new_id:int -> bool;
      (* Rebind the closure registered under a live upcall function id
         to the id recorded in a frozen image (ids are handed out in
         registration order, which a thaw prologue replays only
         partially). False if no closure lives under [old_id]. *)
}

type t = {
  p_id : id;
  p_name : string;
  ram : bytes;
  p_ram_base : int;
  mutable app_break : int;
  mutable kernel_break : int;
  initial_app_break : int;
  initial_kernel_break : int;
  p_flash_base : int;
  flash : bytes;
  mpu : Tock_hw.Mpu.t;
  mpu_config : Tock_hw.Mpu.config;
  cache_read : access_cache;
  cache_write : access_cache;
  cache_exec : access_cache;
  upcall_slots : (int * int, upcall) Hashtbl.t;
  pending : pending_upcall Ring_buffer.t;
  allows_rw : (int * int, allow_entry) Hashtbl.t;
  allows_ro : (int * int, allow_entry) Hashtbl.t;
  grants : (string, Univ.t) Hashtbl.t;
  mutable grant_bytes : int;
  mutable exec : execution option;
  mutable p_state : state;
  mutable restarts : int;
  mutable syscalls : int;
  syscalls_by_class : (int, int) Hashtbl.t;
  mutable grant_enters : int;
  mutable p_obs : Tock_obs.Ctx.t;
      (* Kernel-installed observability context; [Ctx.disabled] until the
         owning kernel adopts the process, so recording is always safe. *)
  p_permissions : (int * int) list option;
  p_storage : (int * int list) option;
  p_tbf_flags : int;
  mutable p_ckpt : int;
      (* Resumable-app checkpoint cursor: 0 = never checkpointed; apps
         that support freeze/thaw record their loop position here before
         each long sleep (see {!Tock_userland.Emu.checkpoint}). Part of
         the board witness. *)
  mutable p_resume_alarm : (int * int) option;
      (* (reference, dt) of the armed alarm a frozen process was
         sleeping on; installed by [Kernel.thaw] before the app's
         factory re-runs, consumed by the app's resume prologue. *)
  mutable p_at_sleep : bool;
      (* True only while the app is suspended in its post-checkpoint
         protocol sleep ([Libtock_sync.checkpoint_sleep] /
         [resume_sleep]) — the one suspension point the thaw
         fast-forward can faithfully rebuild. A freeze that catches a
         live app anywhere else (mid-I/O wait, console busy-retry nap)
         is witnessable but not thawable. *)
  mutable p_bridge : bridge option;
}

let dummy_pending =
  { pu_driver = 0; pu_subscribe = 0; pu_upcall = null_upcall; pu_args = (0, 0, 0) }

let create ~id ~name ~ram_base ~ram_size ~initial_app_break ~flash_base ~flash
    ~mpu ~mpu_config ~permissions ~storage ~tbf_flags =
  let ram_end = ram_base + ram_size in
  if initial_app_break < ram_base || initial_app_break > ram_end then
    invalid_arg "Process.create: bad initial app break";
  {
    p_id = id;
    p_name = name;
    ram = Bytes.make ram_size '\x00';
    p_ram_base = ram_base;
    app_break = initial_app_break;
    (* Grants grow down from the very top of the block; the MPU's
       initial kernel-memory reserve is advisory, not a hard floor. *)
    kernel_break = ram_end;
    initial_app_break;
    initial_kernel_break = ram_end;
    p_flash_base = flash_base;
    flash;
    mpu;
    mpu_config;
    cache_read = fresh_cache ();
    cache_write = fresh_cache ();
    cache_exec = fresh_cache ();
    upcall_slots = Hashtbl.create 16;
    pending = Ring_buffer.create ~capacity:upcall_queue_capacity ~dummy:dummy_pending;
    allows_rw = Hashtbl.create 16;
    allows_ro = Hashtbl.create 16;
    grants = Hashtbl.create 8;
    grant_bytes = 0;
    exec = None;
    p_state = Unstarted;
    restarts = 0;
    syscalls = 0;
    syscalls_by_class = Hashtbl.create 8;
    grant_enters = 0;
    p_obs = Tock_obs.Ctx.disabled;
    p_permissions = permissions;
    p_storage = storage;
    p_tbf_flags = tbf_flags;
    p_ckpt = 0;
    p_resume_alarm = None;
    p_at_sleep = false;
    p_bridge = None;
  }

let set_execution t e = t.exec <- Some e

let set_obs t ctx = t.p_obs <- ctx

let obs t = t.p_obs

let id t = t.p_id

let name t = t.p_name

let state t = t.p_state

let set_state t s = t.p_state <- s

let tbf_flags t = t.p_tbf_flags

let ram_base t = t.p_ram_base

let ram_end t = t.p_ram_base + Bytes.length t.ram

let app_break t = t.app_break

let kernel_break t = t.kernel_break

let flash_base t = t.p_flash_base

let flash_end t = t.p_flash_base + Bytes.length t.flash

let flash_image t = t.flash

let brk t addr =
  if addr < t.p_ram_base || addr > t.kernel_break then Error Error.NOMEM
  else
    match
      Tock_hw.Mpu.update_app_memory_region t.mpu t.mpu_config ~app_break:addr
        ~kernel_break:t.kernel_break
    with
    | Ok () ->
        t.app_break <- addr;
        Ok ()
    | Error _ -> Error Error.NOMEM

let sbrk t delta =
  let old = t.app_break in
  Result.map (fun () -> old) (brk t (old + delta))

let allocate_grant_bytes t n =
  assert (n >= 0);
  let new_break = t.kernel_break - n in
  (* The MPU app region must still fit below the new kernel break. *)
  if new_break < t.app_break then false
  else
    match
      Tock_hw.Mpu.update_app_memory_region t.mpu t.mpu_config
        ~app_break:t.app_break ~kernel_break:new_break
    with
    | Ok () ->
        t.kernel_break <- new_break;
        t.grant_bytes <- t.grant_bytes + n;
        true
    | Error _ -> false

let grant_bytes_used t = t.grant_bytes

let mem_view t ~addr ~len =
  (* [len <= end - addr] rather than [addr + len <= end]: the sum can
     overflow for an [addr] or [len] no app register could hold, which a
     thawed witness can still carry. *)
  if len < 0 then None
  else if addr >= t.p_ram_base && len <= ram_end t - addr then
    Some (`Ram (addr - t.p_ram_base))
  else if addr >= t.p_flash_base && len <= flash_end t - addr then
    Some (`Flash (addr - t.p_flash_base))
  else None

let ram_bytes t = t.ram

let check_access t ~addr ~len kind =
  if len < 0 then false
  else if len = 0 then true
  else begin
    let c =
      match kind with
      | `Read -> t.cache_read
      | `Write -> t.cache_write
      | `Execute -> t.cache_exec
    in
    let gen = Tock_hw.Mpu.generation t.mpu_config in
    if c.c_gen = gen && addr >= c.c_lo && addr + len <= c.c_hi then true
    else begin
      let granted =
        match
          Tock_hw.Mpu.check_with_range t.mpu t.mpu_config ~addr ~len kind
        with
        | Some (lo, hi) ->
            c.c_lo <- lo;
            c.c_hi <- hi;
            c.c_gen <- gen;
            true
        | None -> false
      in
      (* Slow path only: cache hits are the data-plane common case and
         must stay three compares. *)
      let tr = t.p_obs.Tock_obs.Ctx.trace in
      if Tock_obs.Trace.on tr then begin
        let text =
          match (kind, granted) with
          | `Read, true -> "read"
          | `Write, true -> "write"
          | `Execute, true -> "exec"
          | `Read, false -> "read denied"
          | `Write, false -> "write denied"
          | `Execute, false -> "exec denied"
        in
        Tock_obs.Trace.emit tr
          ~ts:(Tock_obs.Ctx.now t.p_obs)
          ~tid:t.p_id Tock_obs.Trace.Mpu_check Tock_obs.Trace.Instant ~arg:addr
          ~text
      end;
      granted
    end
  end

(* ---- upcalls ---- *)

let subscribe_swap t ~driver ~subscribe_num up =
  let key = (driver, subscribe_num) in
  let old =
    Option.value (Hashtbl.find_opt t.upcall_slots key) ~default:null_upcall
  in
  Hashtbl.replace t.upcall_slots key up;
  old

let get_subscribed t ~driver ~subscribe_num =
  Option.value
    (Hashtbl.find_opt t.upcall_slots (driver, subscribe_num))
    ~default:null_upcall

let enqueue_upcall t ~driver ~subscribe_num ~args =
  let up = get_subscribed t ~driver ~subscribe_num in
  (* A process parked in yield-wait-for or a blocking command receives the
     completion's arguments directly in registers — no upcall function is
     invoked — so a null subscription must not swallow it. Everywhere
     else, scheduling on a null upcall is an accepted no-op (Tock). *)
  let directly_awaited =
    match t.p_state with
    | Yielded_for w -> w.driver = driver && w.subscribe_num = subscribe_num
    | Blocked_command w -> w.driver = driver && w.subscribe_num = subscribe_num
    | _ -> false
  in
  if up.fnptr = 0 && not directly_awaited then true
  else
    Ring_buffer.push t.pending
      { pu_driver = driver; pu_subscribe = subscribe_num; pu_upcall = up;
        pu_args = args }

let pop_upcall t = Ring_buffer.pop t.pending

let pop_upcall_for t ~driver ~subscribe_num =
  Ring_buffer.find_remove t.pending (fun pu ->
      pu.pu_driver = driver && pu.pu_subscribe = subscribe_num)

let has_upcall_for t ~driver ~subscribe_num =
  let found = ref false in
  Ring_buffer.iter t.pending (fun pu ->
      if pu.pu_driver = driver && pu.pu_subscribe = subscribe_num then
        found := true);
  !found

let has_pending_upcalls t = not (Ring_buffer.is_empty t.pending)

let upcalls_dropped t = Ring_buffer.drops t.pending

(* ---- allows ---- *)

let allow_table t = function `Ro -> t.allows_ro | `Rw -> t.allows_rw

let allow_swap t ~kind ~driver ~allow_num entry =
  let tbl = allow_table t kind in
  let key = (driver, allow_num) in
  let old = Option.value (Hashtbl.find_opt tbl key) ~default:zero_allow in
  Hashtbl.replace tbl key entry;
  old

let allow_get t ~kind ~driver ~allow_num =
  Option.value
    (Hashtbl.find_opt (allow_table t kind) (driver, allow_num))
    ~default:zero_allow

let ranges_overlap a b =
  a.a_len > 0 && b.a_len > 0 && a.a_addr < b.a_addr + b.a_len
  && b.a_addr < a.a_addr + a.a_len

let allow_overlaps t ~kind entry =
  let tbl = allow_table t kind in
  Hashtbl.fold (fun _ e acc -> acc || ranges_overlap e entry) tbl false

(* Materialize the window at allow time: this is the single point where
   an (addr, len) pair crosses from process arithmetic into a checked
   byte window, so every later capsule access is already bounds-safe. *)
let make_allow_entry t ~addr ~len =
  if len = 0 then Some { a_addr = addr; a_len = 0; a_window = None }
  else
    match mem_view t ~addr ~len with
    | Some (`Ram off) ->
        Some
          { a_addr = addr; a_len = len;
            a_window = Some (Subslice.of_bytes_window t.ram ~pos:off ~len) }
    | Some (`Flash off) ->
        Some
          { a_addr = addr; a_len = len;
            a_window = Some (Subslice.of_bytes_window t.flash ~pos:off ~len) }
    | None -> None

(* ---- grants ---- *)

let grant_table t = t.grants

(* ---- execution ---- *)

let run t ~fuel arg =
  match t.exec with
  | Some e -> e.step ~fuel arg
  | None -> invalid_arg "Process.run: no execution attached"

let destroy_execution t =
  (match t.exec with Some e -> e.destroy () | None -> ());
  t.exec <- None

let has_execution t = t.exec <> None

(* ---- lifecycle ---- *)

let note_restart t = t.restarts <- t.restarts + 1

let restart_count t = t.restarts

let reset_syscall_state t =
  Hashtbl.reset t.upcall_slots;
  Ring_buffer.clear t.pending;
  Hashtbl.reset t.allows_rw;
  Hashtbl.reset t.allows_ro;
  Hashtbl.reset t.grants;
  t.grant_bytes <- 0;
  t.app_break <- t.initial_app_break;
  t.kernel_break <- t.initial_kernel_break;
  t.p_ckpt <- 0;
  t.p_resume_alarm <- None;
  t.p_at_sleep <- false;
  Bytes.fill t.ram 0 (Bytes.length t.ram) '\x00';
  ignore
    (Tock_hw.Mpu.update_app_memory_region t.mpu t.mpu_config
       ~app_break:t.app_break ~kernel_break:t.kernel_break)

let note_syscall t ~class_num =
  t.syscalls <- t.syscalls + 1;
  let cur = Option.value (Hashtbl.find_opt t.syscalls_by_class class_num) ~default:0 in
  Hashtbl.replace t.syscalls_by_class class_num (cur + 1)

let note_grant_enter t = t.grant_enters <- t.grant_enters + 1

let grant_enter_count t = t.grant_enters

let mpu_generation t = Tock_hw.Mpu.generation t.mpu_config

let mpu_scan_count t = Tock_hw.Mpu.scan_count t.mpu_config

let syscall_count t = t.syscalls

let syscall_count_by_class t ~class_num =
  Option.value (Hashtbl.find_opt t.syscalls_by_class class_num) ~default:0

let permissions t = t.p_permissions

let storage_ids t = t.p_storage

let command_allowed t ~driver ~command_num =
  match t.p_permissions with
  | None -> true
  | Some perms -> (
      match List.assoc_opt driver perms with
      | None -> false
      | Some mask ->
          let bit = if command_num >= 32 then 31 else command_num in
          mask land (1 lsl bit) <> 0)

(* ---- freeze/thaw ----

   A process freezes and thaws itself. [Kernel.freeze] records each
   process as an [image]; [Kernel.thaw] rebuilds the board from its
   construction recipe, calls [prepare_thaw] before the app factories'
   resume prologues run and [restore_image] after, and owns only what
   the kernel keeps beside the process (name, pending resume, grant
   layout). None of this is reachable from the syscall ABI; the
   checkpoint fields are also reset by the restart path. *)

let checkpoint t = t.p_ckpt

let set_checkpoint t i = t.p_ckpt <- i

let set_resume_alarm t v = t.p_resume_alarm <- v

let take_resume_alarm t =
  let v = t.p_resume_alarm in
  t.p_resume_alarm <- None;
  v

let set_at_sleep t v = t.p_at_sleep <- v

let set_bridge t b = t.p_bridge <- Some b

(* Sparse RAM image: (offset, bytes) runs of non-zero data; everything
   not covered by a run is zero. Zero gaps shorter than the run-header
   overhead are folded into the surrounding run. Most of an app's RAM
   block never leaves zero (bump allocator, shallow stacks), so this
   keeps the witness O(touched state). *)
type ram = { ram_len : int; ram_runs : (int * string) list }

let zero_fold = 16

let ram_of_bytes b =
  let len = Bytes.length b in
  let runs = ref [] in
  let i = ref 0 in
  while !i < len do
    if Bytes.get b !i = '\x00' then incr i
    else begin
      let start = !i and stop = ref (!i + 1) and j = ref (!i + 1) and gap = ref 0 in
      while !gap <= zero_fold && !j < len do
        if Bytes.get b !j = '\x00' then incr gap
        else begin
          gap := 0;
          stop := !j + 1
        end;
        incr j
      done;
      runs := (start, Bytes.sub_string b start (!stop - start)) :: !runs;
      i := !j
    end
  done;
  { ram_len = len; ram_runs = List.rev !runs }

type image = {
  im_state : state;
  im_restarts : int;
  im_syscalls : int;
  im_grant_enters : int;
  im_grant_bytes : int;
  im_app_break : int;
  im_kernel_break : int;
  im_upcall_drops : int;
  im_mpu_scans : int;
  im_ckpt : int;
  im_at_sleep : bool;
  im_mpu_gen : int;
  im_mpu_caches : (int * int * int) list;
  im_residue : emu_residue option;
  im_classes : (int * int) list;
  im_subs : (int * int * upcall) list;
  im_allows : (([ `Rw | `Ro ] * int * int) * (int * int)) list;
  im_pending : pending_upcall list;
  im_ram : ram;
}

let sorted_bindings tbl f acc =
  List.sort compare (Hashtbl.fold (fun k v acc -> f k v :: acc) tbl acc)

(* The access caches and the generation they were stamped at are real
   behavioral state: a warm cache skips the next region-table scan, and
   scan counts are observable through metrics. So are the drop counter
   and the FIFO position of every queued upcall. *)
let image t =
  let allows kind tbl acc =
    Hashtbl.fold
      (fun (driver, allow_num) e acc -> ((kind, driver, allow_num), (e.a_addr, e.a_len)) :: acc)
      tbl acc
  in
  let pending = ref [] in
  Ring_buffer.iter t.pending (fun pu -> pending := pu :: !pending);
  {
    im_state = t.p_state;
    im_restarts = t.restarts;
    im_syscalls = t.syscalls;
    im_grant_enters = t.grant_enters;
    im_grant_bytes = t.grant_bytes;
    im_app_break = t.app_break;
    im_kernel_break = t.kernel_break;
    im_upcall_drops = Ring_buffer.drops t.pending;
    im_mpu_scans = Tock_hw.Mpu.scan_count t.mpu_config;
    im_ckpt = t.p_ckpt;
    im_at_sleep = t.p_at_sleep;
    im_mpu_gen = Tock_hw.Mpu.generation t.mpu_config;
    im_mpu_caches =
      List.map (fun c -> (c.c_gen, c.c_lo, c.c_hi)) [ t.cache_read; t.cache_write; t.cache_exec ];
    im_residue = Option.map (fun br -> br.br_residue ()) t.p_bridge;
    im_classes = sorted_bindings t.syscalls_by_class (fun c n -> (c, n)) [];
    im_subs = sorted_bindings t.upcall_slots (fun (d, sn) up -> (d, sn, up)) [];
    im_allows = List.sort compare (allows `Rw t.allows_rw (allows `Ro t.allows_ro []));
    im_pending = List.rev !pending;
    im_ram = ram_of_bytes t.ram;
  }

let is_live = function
  | Runnable | Yielded | Yielded_for _ | Blocked_command _ -> true
  | Unstarted | Faulted _ | Terminated _ | Stopped _ -> false

(* Why a process in this disposition cannot be thawed ([None] if it
   can) — the one check behind both [thawable] and [prepare_thaw]. A
   live process must be resumable: checkpointed, parked at its
   checkpoint sleep, and plainly [Yielded]. Frozen at any other yield
   (I/O wait, busy-retry nap), every witnessed byte could still match
   after a thaw while the rebuilt continuation sits elsewhere. Stopped
   and unstarted processes need a live execution thaw cannot rebuild.
   Dead ones are fine: thaw keeps the corpse. *)
let unthawable state ~checkpoint ~at_sleep =
  match state with
  | Stopped _ -> Some "frozen stopped"
  | Unstarted -> Some "frozen unstarted"
  | s when not (is_live s) -> None
  | _ when checkpoint = 0 -> Some "live but never checkpointed"
  | _ when not at_sleep -> Some "frozen outside its checkpoint sleep"
  | Yielded -> None
  | _ -> Some "frozen in unresumable state"

let thawable t = unthawable t.p_state ~checkpoint:t.p_ckpt ~at_sleep:t.p_at_sleep = None

let prepare_thaw t img =
  t.p_ckpt <- img.im_ckpt;
  match unthawable img.im_state ~checkpoint:img.im_ckpt ~at_sleep:img.im_at_sleep with
  | Some why -> Error why
  | None when is_live img.im_state -> Ok `Live
  | None ->
      (* Dead: never run the factory, keep the corpse. *)
      destroy_execution t;
      t.p_state <- img.im_state;
      Ok `Dead

exception Misfit of string

let restore_image t img =
  let fail fmt = Printf.ksprintf (fun m -> raise (Misfit m)) fmt in
  try
    if is_live img.im_state then begin
      if not (has_execution t) then fail "lost its execution in the prologue";
      (match t.p_state with
      | Yielded -> ()
      | _ -> fail "did not settle into Yielded");
      (* Rebind the prologue's live upcall closures to the frozen
         function ids before the table refill makes those ids current. *)
      List.iter
        (fun (d, sn, up) ->
          if up.fnptr <> 0 then
            match Hashtbl.find_opt t.upcall_slots (d, sn) with
            | Some live when live.fnptr = up.fnptr -> ()
            | Some live when live.fnptr <> 0 -> (
                match t.p_bridge with
                | None -> fail "no emulator bridge"
                | Some br ->
                    if not (br.br_remap_upcall ~old_id:live.fnptr ~new_id:up.fnptr) then
                      fail "upcall remap %d->%d failed" live.fnptr up.fnptr)
            | _ -> fail "no live closure for driver %d sub %d" d sn)
        img.im_subs
    end;
    Hashtbl.reset t.upcall_slots;
    Ring_buffer.clear t.pending;
    Hashtbl.reset t.allows_rw;
    Hashtbl.reset t.allows_ro;
    Hashtbl.reset t.syscalls_by_class;
    List.iter (fun (d, sn, up) -> Hashtbl.replace t.upcall_slots (d, sn) up) img.im_subs;
    let app_break = img.im_app_break and kernel_break = img.im_kernel_break in
    if app_break < t.p_ram_base || kernel_break > ram_end t || app_break > kernel_break then
      fail "breaks %#x/%#x outside the RAM block or crossed" app_break kernel_break;
    (match Tock_hw.Mpu.update_app_memory_region t.mpu t.mpu_config ~app_break ~kernel_break with
    | Ok () ->
        t.app_break <- app_break;
        t.kernel_break <- kernel_break
    | Error e -> fail "breaks rejected: %s" e);
    List.iter
      (fun ((kind, driver, allow_num), (addr, len)) ->
        match make_allow_entry t ~addr ~len with
        | Some e -> Hashtbl.replace (allow_table t kind) (driver, allow_num) e
        | None -> fail "allow %d/%d does not resolve" driver allow_num)
      img.im_allows;
    List.iter
      (fun pu -> if not (Ring_buffer.push t.pending pu) then fail "pending-upcall overflow")
      img.im_pending;
    let { ram_len; ram_runs } = img.im_ram in
    if ram_len <> Bytes.length t.ram then
      fail "RAM size %d <> witness %d" (Bytes.length t.ram) ram_len;
    Bytes.fill t.ram 0 ram_len '\x00';
    List.iter
      (fun (off, data) ->
        let n = String.length data in
        if off < 0 || off > ram_len - n then fail "RAM run %d+%d out of range" off n;
        Bytes.blit_string data 0 t.ram off n)
      ram_runs;
    t.restarts <- img.im_restarts;
    t.syscalls <- img.im_syscalls;
    t.grant_enters <- img.im_grant_enters;
    (* After the break and allow replumbing above, which scans and bumps
       the generation in ways the original history did not. *)
    Tock_hw.Mpu.restore_scan_count t.mpu_config img.im_mpu_scans;
    (match img.im_mpu_caches with
    | [ _; _; _ ] as l ->
        Tock_hw.Mpu.restore_generation t.mpu_config img.im_mpu_gen;
        List.iter2
          (fun c (g, lo, hi) ->
            c.c_gen <- g;
            c.c_lo <- lo;
            c.c_hi <- hi)
          [ t.cache_read; t.cache_write; t.cache_exec ]
          l
    | l -> fail "%d MPU cache entries, want 3" (List.length l));
    t.p_at_sleep <- img.im_at_sleep;
    List.iter (fun (c, n) -> Hashtbl.replace t.syscalls_by_class c n) img.im_classes;
    Ring_buffer.set_drops t.pending img.im_upcall_drops;
    (match (t.p_bridge, img.im_residue) with
    | Some br, Some res -> br.br_set_residue res
    | _, None -> ()
    | None, Some _ -> fail "no emulator bridge");
    t.p_state <- img.im_state;
    if t.grant_bytes <> img.im_grant_bytes then
      fail "grant bytes %d <> witness %d" t.grant_bytes img.im_grant_bytes;
    Ok ()
  with Misfit m -> Error m
