(* The board witness image (TCKSNP03) and its codec. [Kernel.freeze]
   maps live board state to an [image]; [Kernel.thaw] and
   [Kernel.restore] map one back. Everything about the byte layout —
   field order, bounds, the checksummed frame — lives in the codec
   description below. *)

module C = Tock_obs.Codec

let magic = "TCKSNP03"

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

type proc = {
  wp_name : string;
  wp_state : Process.state;
  wp_resume : Process.resume_arg option;
  wp_restarts : int;
  wp_syscalls : int;
  wp_grant_enters : int;
  wp_grant_bytes : int;
  wp_app_break : int;
  wp_kernel_break : int;
  wp_upcall_drops : int;
  wp_mpu_scans : int;
  wp_ckpt : int;
  wp_at_sleep : bool;
  wp_mpu_gen : int;
  wp_mpu_caches : (int * int * int) list;
  wp_residue : Process.emu_residue option;
  wp_classes : (int * int) list;
  wp_grants : string list;
  wp_subs : (int * int * Process.upcall) list;
  wp_allows : (([ `Rw | `Ro ] * int * int) * (int * int)) list;
  wp_pending : Process.pending_upcall list;
  wp_ram : ram;
}

type image = {
  w_now : int;
  w_active : int;
  w_sleep : int;
  w_rng : int64;
  w_events : int array;
  w_next_pid : int;
  w_ram_next : int;
  w_procs : proc list;
  w_sections : (string * string) list;
  w_kreg : Tock_obs.Metrics.packed;
  w_sreg : Tock_obs.Metrics.packed;
}

(* ---- component codecs ---- *)

let fault_reason =
  C.(variant "fault reason"
       [ case string (function Process.Mpu_violation m -> Some m | _ -> None)
           (fun m -> Process.Mpu_violation m);
         case string (function Process.Bad_syscall m -> Some m | _ -> None)
           (fun m -> Process.Bad_syscall m);
         case string (function Process.App_panic m -> Some m | _ -> None)
           (fun m -> Process.App_panic m) ])

let state =
  let unstopped =
    C.(variant "process state"
         [ const Process.Unstarted; const Process.Runnable; const Process.Yielded;
           case (pair int int)
             (function
               | Process.Yielded_for { driver; subscribe_num } -> Some (driver, subscribe_num)
               | _ -> None)
             (fun (driver, subscribe_num) -> Process.Yielded_for { driver; subscribe_num });
           case (pair int int)
             (function
               | Process.Blocked_command { driver; subscribe_num } -> Some (driver, subscribe_num)
               | _ -> None)
             (fun (driver, subscribe_num) -> Process.Blocked_command { driver; subscribe_num });
           case fault_reason (function Process.Faulted r -> Some r | _ -> None)
             (fun r -> Process.Faulted r);
           case int (function Process.Terminated { code } -> Some code | _ -> None)
             (fun code -> Process.Terminated { code }) ])
  in
  (* A stopped flag, then the state stopping interrupted: [Stopped]
     never nests ([Kernel.stop_process] refuses a stopped process). *)
  C.(conv
       (function Process.Stopped s -> (true, s) | s -> (false, s))
       (fun (stopped, s) -> if stopped then Process.Stopped s else s)
       (pair bool unstopped))

let upcall =
  C.(conv (fun u -> (u.Process.fnptr, u.Process.appdata))
       (fun (fnptr, appdata) -> { Process.fnptr; appdata }) (pair int int))

let resume =
  C.(variant "resume"
       [ const Process.Rstart; const Process.Rcontinue;
         case (array ~max:16 int) (function Process.Rsyscall_ret regs -> Some regs | _ -> None)
           (fun regs -> Process.Rsyscall_ret regs);
         case (pair upcall (triple int int int))
           (function
             | Process.Rupcall { fnptr; appdata; arg0; arg1; arg2 } ->
                 Some ({ Process.fnptr; appdata }, (arg0, arg1, arg2))
             | _ -> None)
           (fun ({ Process.fnptr; appdata }, (arg0, arg1, arg2)) ->
             Process.Rupcall { fnptr; appdata; arg0; arg1; arg2 }) ])

let pending_upcall =
  C.(record
       (let+ pu_driver = field (fun u -> u.Process.pu_driver) int
        and+ pu_subscribe = field (fun u -> u.Process.pu_subscribe) int
        and+ pu_upcall = field (fun u -> u.Process.pu_upcall) upcall
        and+ pu_args = field (fun u -> u.Process.pu_args) (triple int int int) in
        { Process.pu_driver; pu_subscribe; pu_upcall; pu_args }))

let residue =
  C.(record
       (let+ er_alloc_next = field (fun e -> e.Process.er_alloc_next) int
        and+ er_next_fn = field (fun e -> e.Process.er_next_fn) int
        and+ er_scratch = field (fun e -> e.Process.er_scratch) (list (pair string (pair int int))) in
        { Process.er_alloc_next; er_next_fn; er_scratch }))

let mpu_caches =
  C.(conv Fun.id
       (fun l -> if List.length l <> 3 then fail "%d MPU cache entries, want 3" (List.length l) else l)
       (list ~max:3 (triple int int int)))

let ram =
  C.(conv (fun r -> (r.ram_len, r.ram_runs))
       (fun (ram_len, ram_runs) ->
         List.iter
           (fun (off, data) ->
             if off < 0 || off > ram_len - String.length data then
               fail "RAM run out of range (off=%d len=%d ram=%d)" off (String.length data) ram_len)
           ram_runs;
         { ram_len; ram_runs })
       (pair int (list (pair int string))))

let proc =
  C.(record
       (let+ wp_name = field (fun p -> p.wp_name) string
        and+ wp_state = field (fun p -> p.wp_state) state
        and+ wp_resume = field (fun p -> p.wp_resume) (option resume)
        and+ wp_restarts = field (fun p -> p.wp_restarts) int
        and+ wp_syscalls = field (fun p -> p.wp_syscalls) int
        and+ wp_grant_enters = field (fun p -> p.wp_grant_enters) int
        and+ wp_grant_bytes = field (fun p -> p.wp_grant_bytes) int
        and+ wp_app_break = field (fun p -> p.wp_app_break) int
        and+ wp_kernel_break = field (fun p -> p.wp_kernel_break) int
        and+ wp_upcall_drops = field (fun p -> p.wp_upcall_drops) int
        and+ wp_mpu_scans = field (fun p -> p.wp_mpu_scans) int
        and+ wp_ckpt = field (fun p -> p.wp_ckpt) int
        and+ wp_at_sleep = field (fun p -> p.wp_at_sleep) bool
        and+ wp_mpu_gen = field (fun p -> p.wp_mpu_gen) int
        and+ wp_mpu_caches = field (fun p -> p.wp_mpu_caches) mpu_caches
        and+ wp_residue = field (fun p -> p.wp_residue) (option residue)
        and+ wp_classes = field (fun p -> p.wp_classes) (list (pair int int))
        and+ wp_grants = field (fun p -> p.wp_grants) (list string)
        and+ wp_subs = field (fun p -> p.wp_subs) (list (triple int int upcall))
        and+ wp_allows =
          field (fun p -> p.wp_allows)
            (list (pair (triple (variant "allow kind" [ const `Rw; const `Ro ]) int int) (pair int int)))
        and+ wp_pending = field (fun p -> p.wp_pending) (list pending_upcall)
        and+ wp_ram = field (fun p -> p.wp_ram) ram in
        { wp_name; wp_state; wp_resume; wp_restarts; wp_syscalls; wp_grant_enters;
          wp_grant_bytes; wp_app_break; wp_kernel_break; wp_upcall_drops; wp_mpu_scans;
          wp_ckpt; wp_at_sleep; wp_mpu_gen; wp_mpu_caches; wp_residue; wp_classes;
          wp_grants; wp_subs; wp_allows; wp_pending; wp_ram }))

let codec =
  let registry = C.sized Tock_obs.Metrics.packed_codec in
  C.(frame ~magic
       (record
          (let+ w_now = field (fun w -> w.w_now) int
           and+ w_active = field (fun w -> w.w_active) int
           and+ w_sleep = field (fun w -> w.w_sleep) int
           and+ w_rng = field (fun w -> w.w_rng) int64
           and+ w_events = field (fun w -> w.w_events) (array int)
           and+ w_next_pid = field (fun w -> w.w_next_pid) int
           and+ w_ram_next = field (fun w -> w.w_ram_next) int
           and+ w_procs = field (fun w -> w.w_procs) (list proc)
           and+ w_sections = field (fun w -> w.w_sections) (list (pair string string))
           and+ w_kreg = field (fun w -> w.w_kreg) registry
           and+ w_sreg = field (fun w -> w.w_sreg) registry in
           { w_now; w_active; w_sleep; w_rng; w_events; w_next_pid; w_ram_next; w_procs;
             w_sections; w_kreg; w_sreg })))
