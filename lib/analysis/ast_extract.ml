(* The analysis front end: every OCaml file otock-lint and otock-check
   examine is read here, once, through compiler-libs. [Parse] builds the
   real AST ([Parse.interface] for .mli files) and a single
   [Ast_iterator] pass collects everything both rule sets consume:

   - module references: dotted paths naming a submodule or a module
     member, skipping parser-generated ghost nodes so [a.(i)] is not a
     reference to [Array.get];
   - wholesale opens ([open], [include]) and scoped ones ([let open],
     [M.(...)]), which resolve unqualified references;
   - attributes, with their source text (warning-suppression rule);
   - [otock-lint:] allowlist pragmas, from the comments the compiler's
     own lexer kept ([Lexer.comments]);
   - [Metrics.counter]/[gauge]/[histogram] registrations whose name is a
     string constant (fleet-metric-namespace rule);
   - for implementations, the dataflow facts otock-check needs: the
     module-toplevel *mutable-state inventory* (refs, Hashtbl / Buffer /
     Bytes / Array / Queue globals, records with mutable fields, and
     their Atomic / Mutex counterparts), per-binding *value references*
     (the raw material for Domain_safety's interprocedural
     reachability), and *mutation witnesses*: identifiers passed to
     known in-place mutators (Array.set, Bytes.blit, ...), so read-only
     lookup tables (crypto T-tables) are not misreported as shared
     mutable state.

   Parsing never raises: a file the compiler's parser rejects comes
   back with [a_parsed = false] and both passes report it
   ([check-parse]) instead of silently dropping it from the analysis. *)

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

let kind_name = function
  | Ref_cell -> "ref"
  | Hash_table -> "Hashtbl"
  | Growable_buffer -> "Buffer"
  | Byte_buffer -> "bytes buffer"
  | Array_buffer -> "array"
  | Queue_like -> "queue/stack"
  | Mutable_record -> "mutable record"
  | Atomic_cell -> "Atomic"
  | Mutex_lock -> "Mutex"

(* Atomic and Mutex globals are domain-safe by construction; everything
   else in the inventory is a race when shared across fleet shards. *)
let kind_is_synchronized = function
  | Atomic_cell | Mutex_lock -> true
  | _ -> false

type global = { g_name : string; g_line : int; g_kind : mutability }

type value_ref = { r_path : string list; r_line : int }

type binding = { b_name : string; b_line : int; b_refs : value_ref list }

type reference = {
  ref_modules : string list;  (* uppercase components, outermost first *)
  ref_member : string option; (* trailing lowercase member, if any *)
  ref_line : int;
}

type open_decl = {
  open_modules : string list;
  open_line : int;
  open_scoped : bool;  (* [let open M in] / [M.(...)] *)
}

type attribute = { attr_text : string; attr_line : int }

type pragma = {
  pragma_rule : string;
  pragma_file_level : bool;
  pragma_note : string;
  pragma_line : int;
}

type registration = { reg_name : string; reg_line : int }

type t = {
  a_path : string;
  a_parsed : bool;
  a_structure : Parsetree.structure;
  a_refs : reference list;
  a_opens : open_decl list;
  a_attributes : attribute list;
  a_pragmas : pragma list;
  a_registrations : registration list;
  a_globals : global list;
  a_bindings : binding list;
  a_witnesses : value_ref list;
      (* identifier paths passed to a known in-place mutator *)
}

let line_of (loc : Location.t) = loc.Location.loc_start.Lexing.pos_lnum

let flatten (lid : Longident.t) =
  try Longident.flatten lid with _ -> []

(* --- pattern variables ------------------------------------------------ *)

let rec pattern_vars (p : Parsetree.pattern) =
  match p.Parsetree.ppat_desc with
  | Parsetree.Ppat_var v -> [ (v.Location.txt, line_of p.Parsetree.ppat_loc) ]
  | Parsetree.Ppat_alias (q, v) ->
      (v.Location.txt, line_of p.Parsetree.ppat_loc) :: pattern_vars q
  | Parsetree.Ppat_constraint (q, _) -> pattern_vars q
  | Parsetree.Ppat_tuple ps -> List.concat_map pattern_vars ps
  | _ -> []

(* --- mutability classification ---------------------------------------- *)

(* Constructors whose application makes the bound value shared mutable
   state when it sits at module toplevel. The in-place cells from
   lib/core (Take_cell & friends) are mutable records behind a module
   face. *)
let mutable_constructor path =
  match path with
  | [ "ref" ] -> Some Ref_cell
  | [ "Hashtbl"; "create" ] -> Some Hash_table
  | [ "Buffer"; "create" ] -> Some Growable_buffer
  | [ "Bytes"; ("create" | "make" | "of_string" | "init" | "copy" | "sub") ] ->
      Some Byte_buffer
  | [ "Array";
      ("make" | "init" | "create_float" | "make_matrix" | "copy" | "append"
      | "of_list" | "concat") ] ->
      Some Array_buffer
  | [ "Queue"; "create" ] | [ "Stack"; "create" ] -> Some Queue_like
  | [ "Atomic"; "make" ] -> Some Atomic_cell
  | [ "Mutex"; "create" ] -> Some Mutex_lock
  | _ -> (
      match List.rev path with
      | ("make" | "empty") :: cell :: _
        when List.mem cell
               [ "Take_cell"; "Optional_cell"; "Num_cell"; "Volatile_cell" ] ->
          Some Mutable_record
      | _ -> None)

(* Classify a toplevel binding's right-hand side. Function bodies and
   lazy thunks allocate per call / per force, so the scan does not
   descend into them; everything else is part of the value built at
   module-initialization time (Some (ref 0), tuples of tables, ...). *)
let classify_rhs ~mutable_labels (e : Parsetree.expression) =
  let found = ref None in
  let note k = if !found = None then found := Some k in
  let rec go (e : Parsetree.expression) =
    if !found <> None then ()
    else
      match e.Parsetree.pexp_desc with
      | Parsetree.Pexp_fun _ | Parsetree.Pexp_function _
      | Parsetree.Pexp_lazy _ ->
          ()
      | Parsetree.Pexp_apply (f, args) ->
          (match f.Parsetree.pexp_desc with
          | Parsetree.Pexp_ident lid -> (
              match mutable_constructor (flatten lid.Location.txt) with
              | Some k -> note k
              | None -> ())
          | _ -> ());
          if !found = None then (
            go f;
            List.iter (fun (_, a) -> go a) args)
      | Parsetree.Pexp_array _ -> note Array_buffer
      | Parsetree.Pexp_record (fields, base) ->
          if
            List.exists
              (fun ((l : Longident.t Location.loc), _) ->
                match List.rev (flatten l.Location.txt) with
                | f :: _ -> List.mem f mutable_labels
                | [] -> false)
              fields
          then note Mutable_record
          else (
            List.iter (fun (_, v) -> go v) fields;
            Option.iter go base)
      | Parsetree.Pexp_tuple es -> List.iter go es
      | Parsetree.Pexp_construct (_, arg) | Parsetree.Pexp_variant (_, arg) ->
          Option.iter go arg
      | Parsetree.Pexp_constraint (e, _) | Parsetree.Pexp_coerce (e, _, _) ->
          go e
      | Parsetree.Pexp_let (_, vbs, body) ->
          (* let-bound intermediates feed the value: a table built
             locally and returned is still a global table *)
          List.iter (fun (vb : Parsetree.value_binding) -> go vb.Parsetree.pvb_expr) vbs;
          go body
      | Parsetree.Pexp_sequence (_, body) | Parsetree.Pexp_open (_, body) ->
          go body
      | Parsetree.Pexp_ifthenelse (_, t, f) ->
          go t;
          Option.iter go f
      | Parsetree.Pexp_match (_, cases) | Parsetree.Pexp_try (_, cases) ->
          List.iter (fun (c : Parsetree.case) -> go c.Parsetree.pc_rhs) cases
      | _ -> ()
  in
  go e;
  !found

(* --- in-place mutators ------------------------------------------------ *)

(* Functions that write through a bytes/array argument. `a.(i) <- v`
   and `Bytes.set` sugar arrive from the parser as these exact
   applications, so a syntactic witness list is complete for the
   constructs the kernel uses. *)
let mutator_path path =
  match path with
  | [ "Array"; ("set" | "fill" | "blit" | "unsafe_set" | "sort") ]
  | [ "Bytes";
      ("set" | "fill" | "blit" | "blit_string" | "unsafe_set" | "unsafe_blit")
    ] ->
      true
  | _ -> false

(* --- allowlist pragmas ------------------------------------------------ *)

(* Parse `otock-lint: allow <rule> <note>` / `allow-file <rule> <note>`
   out of a comment body. *)
let pragmas_of_comment ~line text =
  let key = "otock-lint:" in
  let rec find i acc =
    if i + String.length key > String.length text then List.rev acc
    else if String.sub text i (String.length key) = key then (
      let rest =
        String.sub text
          (i + String.length key)
          (String.length text - i - String.length key)
      in
      let rest = String.trim rest in
      let word s =
        match String.index_opt s ' ' with
        | Some j -> (String.sub s 0 j, String.trim (String.sub s j (String.length s - j)))
        | None -> (s, "")
      in
      let verb, rest = word rest in
      let p =
        match verb with
        | "allow" | "allow-file" ->
            let rule, note = word rest in
            (* Writers naturally separate rule from justification with a
               dash; drop it from the note. *)
            let note =
              let drop p s =
                if Taxonomy.starts_with p s then
                  String.trim
                    (String.sub s (String.length p)
                       (String.length s - String.length p))
                else s
              in
              drop "\xe2\x80\x94" (drop "--" (drop "- " note))
            in
            if rule = "" then None
            else
              Some
                {
                  pragma_rule = rule;
                  pragma_file_level = verb = "allow-file";
                  pragma_note = note;
                  pragma_line = line;
                }
        | _ -> None
      in
      find (i + String.length key) (match p with Some p -> p :: acc | None -> acc))
    else find (i + 1) acc
  in
  find 0 []

(* --- module references ------------------------------------------------- *)

let is_upper s = s <> "" && s.[0] >= 'A' && s.[0] <= 'Z'

let is_member s = s <> "" && ((s.[0] >= 'a' && s.[0] <= 'z') || s.[0] = '_')

(* Split a path into uppercase module components and at most one
   lowercase member. Only a path naming a module member or a submodule
   is a reference: a bare constructor or module name is not, and an
   operator member ([Int64.( + )]) keeps just its module path. *)
let reference_of path line =
  let rec split mods = function
    | m :: rest when is_upper m -> split (m :: mods) rest
    | [ member ] when is_member member && mods <> [] ->
        Some (List.rev mods, Some member)
    | _ -> if List.length mods > 1 then Some (List.rev mods, None) else None
  in
  Option.map
    (fun (ref_modules, ref_member) -> { ref_modules; ref_member; ref_line = line })
    (split [] path)

(* Bare stdout/stderr writers: recorded as Stdlib references so rules
   can police raw console output. "Stdlib" names no otock library, so
   these never become dependency edges. *)
let bare_print_idents =
  [
    "print_string"; "print_endline"; "print_newline"; "print_char";
    "print_int"; "prerr_string"; "prerr_endline"; "prerr_newline";
  ]

(* Metric registration: [Metrics.counter reg "name"] and friends. *)
let registration_path path =
  match List.rev path with
  | ("counter" | "gauge" | "histogram") :: "Metrics" :: _ -> true
  | _ -> false

(* --- the single pass ---------------------------------------------------- *)

type ast = Impl of Parsetree.structure | Intf of Parsetree.signature

let parse ~path content =
  let lexbuf = Lexing.from_string content in
  Location.init lexbuf path;
  let ast =
    match
      if Filename.check_suffix path ".mli" then Intf (Parse.interface lexbuf)
      else Impl (Parse.implementation lexbuf)
    with
    | ast -> Some ast
    | exception _ -> None
  in
  (* every comment the lexer saw, docstrings included, in source order;
     after a syntax error, those before it *)
  (ast, Lexer.comments ())

let of_source ~path content =
  let ast, comments = parse ~path content in
  let offset (loc : Location.t) = loc.Location.loc_start.Lexing.pos_cnum in
  (* refs and opens carry their source offset: rules see them in textual
     order, whatever order the iterator visits them in *)
  let refs = ref [] in
  let opens = ref [] in
  let attrs = ref [] in
  let regs = ref [] in
  let globals = ref [] in
  let bindings = ref [] in
  let witnesses = ref [] in
  let mutable_labels = ref [] in
  let add_path (lid : Longident.t Location.loc) =
    let loc = lid.Location.loc in
    Option.iter
      (fun r -> refs := (offset loc, r) :: !refs)
      (reference_of (flatten lid.Location.txt) (line_of loc))
  in
  let add_ref (lid : Longident.t Location.loc) =
    if not lid.Location.loc.Location.loc_ghost then add_path lid
  in
  (* a punned field [{ M.x }] is written once but parsed as a ghost
     label over a bare [x]: the label carries the reference *)
  let add_labels fields = List.iter (fun (l, _) -> add_path l) fields in
  let add_open ~scoped (lid : Longident.t Location.loc) =
    let loc = lid.Location.loc in
    let o =
      {
        open_modules = flatten lid.Location.txt;
        open_line = line_of loc;
        open_scoped = scoped;
      }
    in
    opens := (offset loc, o) :: !opens
  in
  let value_ref (lid : Longident.t Location.loc) loc =
    { r_path = flatten lid.Location.txt; r_line = line_of loc }
  in
  let witness (e : Parsetree.expression) =
    match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_ident lid ->
        witnesses := value_ref lid e.Parsetree.pexp_loc :: !witnesses
    | _ -> ()
  in
  (* Module-toplevel binding context. [prefix] is [Some p] while the
     walk is on structure items whose value bindings are module-toplevel
     ([p] qualifies nested-module bindings: "Reference.round_trip"), and
     [None] inside bindings, functor bodies and other module forms.
     [current] accumulates value references; each toplevel binding
     starts it empty and takes what its walk collected. *)
  let prefix = ref (Some "") in
  let current = ref [] in
  let under p f =
    let saved = !prefix in
    prefix := p;
    f ();
    prefix := saved
  in
  let default = Ast_iterator.default_iterator in
  let expr self (e : Parsetree.expression) =
    match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_open
        ( ({
             Parsetree.popen_expr =
               { Parsetree.pmod_desc = Parsetree.Pmod_ident lid; _ } as me;
             _;
           } as od),
          body ) ->
        add_open ~scoped:true lid;
        (* [M.(e)] writes the path inline like any reference; after
           [let open] it is only the open *)
        if offset od.Parsetree.popen_loc = offset me.Parsetree.pmod_loc then
          add_ref lid;
        self.Ast_iterator.attributes self e.Parsetree.pexp_attributes;
        self.Ast_iterator.expr self body
    | desc ->
        (match desc with
        | Parsetree.Pexp_ident lid -> (
            current := value_ref lid e.Parsetree.pexp_loc :: !current;
            match lid.Location.txt with
            | Longident.Lident x when List.mem x bare_print_idents ->
                let stdlib = Longident.Ldot (Longident.Lident "Stdlib", x) in
                add_ref { lid with Location.txt = stdlib }
            | _ -> add_ref lid)
        | Parsetree.Pexp_construct (lid, _)
        | Parsetree.Pexp_field (_, lid)
        | Parsetree.Pexp_new lid ->
            add_ref lid
        | Parsetree.Pexp_setfield (target, lid, _) ->
            (* writing a field of a global record mutates that global *)
            add_ref lid;
            witness target
        | Parsetree.Pexp_record (fields, _) -> add_labels fields
        | Parsetree.Pexp_apply
            ({ Parsetree.pexp_desc = Parsetree.Pexp_ident f; _ }, args) -> (
            let path = flatten f.Location.txt in
            if mutator_path path then List.iter (fun (_, a) -> witness a) args;
            (* [Metrics.counter reg "name"]: the name is the second
               positional argument *)
            match List.filter (fun (l, _) -> l = Asttypes.Nolabel) args with
            | _ :: (_, (arg : Parsetree.expression)) :: _
              when registration_path path -> (
                match arg.Parsetree.pexp_desc with
                | Parsetree.Pexp_constant
                    (Parsetree.Pconst_string (reg_name, _, _)) ->
                    regs :=
                      { reg_name; reg_line = line_of f.Location.loc } :: !regs
                | _ -> ())
            | _ -> ())
        | _ -> ());
        default.Ast_iterator.expr self e
  in
  let pat self (p : Parsetree.pattern) =
    (match p.Parsetree.ppat_desc with
    | Parsetree.Ppat_construct (lid, _) | Parsetree.Ppat_type lid ->
        add_ref lid
    | Parsetree.Ppat_record (fields, _) -> add_labels fields
    | Parsetree.Ppat_open (lid, _) ->
        add_open ~scoped:true lid;
        add_ref lid
    | _ -> ());
    default.Ast_iterator.pat self p
  in
  let typ self (t : Parsetree.core_type) =
    (match t.Parsetree.ptyp_desc with
    | Parsetree.Ptyp_constr (lid, _) | Parsetree.Ptyp_class (lid, _) ->
        add_ref lid
    | Parsetree.Ptyp_package (lid, constraints) ->
        add_ref lid;
        List.iter (fun (l, _) -> add_ref l) constraints
    | _ -> ());
    default.Ast_iterator.typ self t
  in
  let module_expr self (m : Parsetree.module_expr) =
    (match m.Parsetree.pmod_desc with
    | Parsetree.Pmod_ident lid -> add_ref lid
    | _ -> ());
    default.Ast_iterator.module_expr self m
  in
  let module_type self (m : Parsetree.module_type) =
    (match m.Parsetree.pmty_desc with
    | Parsetree.Pmty_ident lid | Parsetree.Pmty_alias lid -> add_ref lid
    | _ -> ());
    default.Ast_iterator.module_type self m
  in
  let type_extension self (x : Parsetree.type_extension) =
    add_ref x.Parsetree.ptyext_path;
    default.Ast_iterator.type_extension self x
  in
  let toplevel_binding p (vb : Parsetree.value_binding) self =
    current := [];
    under None (fun () -> self.Ast_iterator.value_binding self vb);
    let b_refs = List.rev !current in
    current := [];
    List.iter
      (fun (name, vline) ->
        let name = p ^ name in
        bindings := { b_name = name; b_line = vline; b_refs } :: !bindings;
        match
          classify_rhs ~mutable_labels:!mutable_labels vb.Parsetree.pvb_expr
        with
        | Some kind ->
            globals := { g_name = name; g_line = vline; g_kind = kind } :: !globals
        | None -> ())
      (pattern_vars vb.Parsetree.pvb_pat)
  in
  let record_mutable_labels (d : Parsetree.type_declaration) =
    match d.Parsetree.ptype_kind with
    | Parsetree.Ptype_record labels ->
        List.iter
          (fun (l : Parsetree.label_declaration) ->
            if l.Parsetree.pld_mutable = Asttypes.Mutable then
              mutable_labels :=
                l.Parsetree.pld_name.Location.txt :: !mutable_labels)
          labels
    | _ -> ()
  in
  let structure_item self (si : Parsetree.structure_item) =
    match (si.Parsetree.pstr_desc, !prefix) with
    | Parsetree.Pstr_value (_, vbs), Some p ->
        List.iter (fun vb -> toplevel_binding p vb self) vbs
    | Parsetree.Pstr_type (_, decls), Some _ ->
        List.iter record_mutable_labels decls;
        default.Ast_iterator.structure_item self si
    | ( Parsetree.Pstr_module
          {
            Parsetree.pmb_name = { Location.txt = Some name; _ };
            pmb_expr = { Parsetree.pmod_desc = Parsetree.Pmod_structure _; _ };
            _;
          },
        p ) ->
        under
          (Option.map (fun p -> p ^ name ^ ".") p)
          (fun () -> default.Ast_iterator.structure_item self si)
    | ( ( Parsetree.Pstr_open
            {
              Parsetree.popen_expr =
                { Parsetree.pmod_desc = Parsetree.Pmod_ident lid; _ };
              _;
            }
        | Parsetree.Pstr_include
            {
              Parsetree.pincl_mod =
                { Parsetree.pmod_desc = Parsetree.Pmod_ident lid; _ };
              _;
            } ),
        _ ) ->
        add_open ~scoped:false lid
    | _ -> under None (fun () -> default.Ast_iterator.structure_item self si)
  in
  let signature_item self (si : Parsetree.signature_item) =
    match si.Parsetree.psig_desc with
    | Parsetree.Psig_open { Parsetree.popen_expr = lid; _ }
    | Parsetree.Psig_include
        {
          Parsetree.pincl_mod =
            { Parsetree.pmty_desc = Parsetree.Pmty_ident lid; _ };
          _;
        } ->
        add_open ~scoped:false lid
    | _ -> default.Ast_iterator.signature_item self si
  in
  (* Attribute payloads are not code: record the attribute, do not
     descend. Docstrings arrive as [ocaml.doc]/[ocaml.text] attributes
     but are comments. *)
  let attribute _ (a : Parsetree.attribute) =
    let loc = a.Parsetree.attr_loc in
    let start = offset loc and stop = loc.Location.loc_end.Lexing.pos_cnum in
    match a.Parsetree.attr_name.Location.txt with
    | "ocaml.doc" | "ocaml.text" -> ()
    | _ ->
        attrs :=
          {
            attr_text = String.sub content start (stop - start);
            attr_line = line_of loc;
          }
          :: !attrs
  in
  let it =
    {
      default with
      Ast_iterator.expr;
      pat;
      typ;
      module_expr;
      module_type;
      type_extension;
      structure_item;
      signature_item;
      attribute;
    }
  in
  (match ast with
  | Some (Impl st) -> it.Ast_iterator.structure it st
  | Some (Intf sg) -> it.Ast_iterator.signature it sg
  | None -> ());
  let in_order xs =
    List.map snd
      (List.stable_sort (fun (a, _) (b, _) -> compare a b) (List.rev xs))
  in
  {
    a_path = path;
    a_parsed = ast <> None;
    a_structure = (match ast with Some (Impl st) -> st | _ -> []);
    a_refs = in_order !refs;
    a_opens = in_order !opens;
    a_attributes = List.rev !attrs;
    a_pragmas =
      List.concat_map
        (fun (text, (loc : Location.t)) ->
          (* anchored at the comment's closing line, so a multi-line
             justification directly above the flagged code still covers
             it (a line pragma suppresses its own line and the next) *)
          pragmas_of_comment ~line:loc.Location.loc_end.Lexing.pos_lnum text)
        comments;
    a_registrations = List.rev !regs;
    a_globals = List.rev !globals;
    a_bindings = List.rev !bindings;
    a_witnesses = List.rev !witnesses;
  }
