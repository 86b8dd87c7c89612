(** The analysis front end shared by otock-lint and otock-check: one
    compiler-libs parse ([Parse.implementation], or [Parse.interface]
    for [.mli]) and one [Ast_iterator] pass per file. The summary holds
    the module references, opens, attributes, allowlist pragmas and
    metric registrations the architecture rules consume, plus the
    mutable-state inventory, per-binding value references and mutation
    witnesses the dataflow analyses consume. Parsing never raises: a
    rejected file comes back with [a_parsed = false]. *)

type mutability =
  | Ref_cell
  | Hash_table
  | Growable_buffer
  | Byte_buffer
  | Array_buffer
  | Queue_like
  | Mutable_record
  | Atomic_cell
  | Mutex_lock

val kind_name : mutability -> string

val kind_is_synchronized : mutability -> bool
(** Atomic and Mutex globals are domain-safe by construction. *)

type global = {
  g_name : string;  (** Nested-module bindings are dotted: ["M.latch"]. *)
  g_line : int;
  g_kind : mutability;
}

type value_ref = { r_path : string list; r_line : int }

type binding = { b_name : string; b_line : int; b_refs : value_ref list }

type reference = {
  ref_modules : string list;
      (** Uppercase path components, outermost first:
          [Tock_crypto.Schnorr.keypair] gives
          [\["Tock_crypto"; "Schnorr"\]]. *)
  ref_member : string option;  (** Trailing lowercase member, if any. *)
  ref_line : int;
}
(** A path naming a submodule or a module member, anywhere in code,
    types or module expressions. Bare calls to the stdout/stderr
    writers ({!bare_print_idents}) are recorded as [Stdlib] members. *)

type open_decl = {
  open_modules : string list;
  open_line : int;
  open_scoped : bool;
      (** [let open M in ...] or [M.(...)]: expression-scoped. Scoped
          opens still resolve unqualified references, but are not
          themselves wholesale-open edges (a [let open Tock in] inside
          one function is not the file importing the kernel
          wholesale). [open M] and [include M] are not scoped. *)
}

type attribute = { attr_text : string; attr_line : int }
(** [attr_text] is the attribute's source text, e.g.
    [\[@warning "-32"\]]. Docstrings are comments, not attributes. *)

type pragma = {
  pragma_rule : string;  (** Rule id, or ["*"] for all rules. *)
  pragma_file_level : bool;
      (** [allow-file] suppresses the rule for the whole file;
          [allow] only for the pragma's line and the next. *)
  pragma_note : string;  (** Justification text after the rule id. *)
  pragma_line : int;  (** The closing line of the pragma's comment. *)
}

type registration = { reg_name : string; reg_line : int }
(** A [Metrics.counter]/[gauge]/[histogram] application whose name
    argument is a string constant. *)

type t = {
  a_path : string;
  a_parsed : bool;
  a_structure : Parsetree.structure;
      (** The parsed implementation; [\[\]] for interfaces and for
          files that do not parse. *)
  a_refs : reference list;  (** In source order. *)
  a_opens : open_decl list;  (** In source order. *)
  a_attributes : attribute list;
  a_pragmas : pragma list;
      (** From every comment the compiler's lexer kept; for a file that
          does not parse, the comments before the syntax error. *)
  a_registrations : registration list;
  a_globals : global list;
  a_bindings : binding list;
  a_witnesses : value_ref list;
      (** Identifier paths passed to a known in-place mutator
          ([Array.set], [Bytes.blit], field assignment, ...): a
          bytes/array global with no witness anywhere is a read-only
          table, not shared mutable state. *)
}

val of_source : path:string -> string -> t
(** [path] picks the parser: [.mli] files are interfaces. *)

val pragmas_of_comment : line:int -> string -> pragma list
(** The [otock-lint: allow <rule> <note>] / [allow-file] grammar,
    applied to one comment body. *)

val bare_print_idents : string list
