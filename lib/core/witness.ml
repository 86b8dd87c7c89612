(* The board witness image (TCKSNP03) and its codec. [Kernel.freeze]
   maps live board state to an [image]; [Kernel.thaw] and
   [Kernel.restore] map one back. Each process contributes its own
   [Process.image]; the kernel adds name, pending resume and grant
   layout. Everything about the byte layout — field order, bounds, the
   checksummed frame — lives in the codec description below. *)

module C = Tock_obs.Codec

let magic = "TCKSNP03"

(* What the kernel keeps beside each process image. *)
type proc = {
  wp_name : string;
  wp_resume : Process.resume_arg option;
  wp_grants : string list;
  wp_image : Process.image;
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
  C.(conv (fun r -> (r.Process.ram_len, r.Process.ram_runs))
       (fun (ram_len, ram_runs) ->
         List.iter
           (fun (off, data) ->
             if off < 0 || off > ram_len - String.length data then
               fail "RAM run out of range (off=%d len=%d ram=%d)" off (String.length data) ram_len)
           ram_runs;
         { Process.ram_len; ram_runs })
       (pair int (list (pair int string))))

(* The kernel's fields and the process image's interleave on the wire
   in the order the format has always had. *)
let proc =
  let img get c = C.field (fun p -> get p.wp_image) c in
  C.(record
       (let+ wp_name = field (fun p -> p.wp_name) string
        and+ im_state = img (fun i -> i.Process.im_state) state
        and+ wp_resume = field (fun p -> p.wp_resume) (option resume)
        and+ im_restarts = img (fun i -> i.Process.im_restarts) int
        and+ im_syscalls = img (fun i -> i.Process.im_syscalls) int
        and+ im_grant_enters = img (fun i -> i.Process.im_grant_enters) int
        and+ im_grant_bytes = img (fun i -> i.Process.im_grant_bytes) int
        and+ im_app_break = img (fun i -> i.Process.im_app_break) int
        and+ im_kernel_break = img (fun i -> i.Process.im_kernel_break) int
        and+ im_upcall_drops = img (fun i -> i.Process.im_upcall_drops) int
        and+ im_mpu_scans = img (fun i -> i.Process.im_mpu_scans) int
        and+ im_ckpt = img (fun i -> i.Process.im_ckpt) int
        and+ im_at_sleep = img (fun i -> i.Process.im_at_sleep) bool
        and+ im_mpu_gen = img (fun i -> i.Process.im_mpu_gen) int
        and+ im_mpu_caches = img (fun i -> i.Process.im_mpu_caches) mpu_caches
        and+ im_residue = img (fun i -> i.Process.im_residue) (option residue)
        and+ im_classes = img (fun i -> i.Process.im_classes) (list (pair int int))
        and+ wp_grants = field (fun p -> p.wp_grants) (list string)
        and+ im_subs = img (fun i -> i.Process.im_subs) (list (triple int int upcall))
        and+ im_allows =
          img (fun i -> i.Process.im_allows)
            (list (pair (triple (variant "allow kind" [ const `Rw; const `Ro ]) int int) (pair int int)))
        and+ im_pending = img (fun i -> i.Process.im_pending) (list pending_upcall)
        and+ im_ram = img (fun i -> i.Process.im_ram) ram in
        { wp_name; wp_resume; wp_grants;
          wp_image =
            { Process.im_state; im_restarts; im_syscalls; im_grant_enters; im_grant_bytes;
              im_app_break; im_kernel_break; im_upcall_drops; im_mpu_scans; im_ckpt;
              im_at_sleep; im_mpu_gen; im_mpu_caches; im_residue; im_classes; im_subs;
              im_allows; im_pending; im_ram } }))

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
