(** The architecture-conformance rule set (see DESIGN.md, "Trust
    taxonomy and architecture lint"). Rules are pure functions over the
    {!Dep_graph}; suppression pragmas from source comments are applied
    before results are returned. A file compiler-libs cannot parse is
    reported as [check-parse], the rule id otock-check uses for the
    same condition. *)

type violation = {
  v_rule : string;
  v_file : string;
  v_line : int;
  v_message : string;
}

type result = {
  violations : violation list;  (** Not suppressed by any pragma. *)
  suppressed : (violation * Ast_extract.pragma) list;
      (** Allowlisted in-source, with the justifying pragma. *)
}

val all_rule_ids : string list

val run : Source.file list -> result

val suppress :
  pragmas_for:(string -> Ast_extract.pragma list) ->
  violation list ->
  violation list * (violation * Ast_extract.pragma) list
(** Partition violations by the shared pragma-matching rule
    ([allow] covers its own line and the next, [allow-file] the whole
    file, rule id ["*"] every rule). Used by both otock-lint and
    otock-check so one grammar governs both tools. *)

val parse_failure : Ast_extract.t -> violation option
(** The [check-parse] finding for a file that did not parse. *)
