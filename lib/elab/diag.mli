(** Diagnostics for the SystemVerilog front-end.

    All lexer, parser and elaborator failures raise {!Error} carrying
    the source position (file, 1-based line/column) of the offending
    token and a message that already embeds a ["file:line:col:"] prefix
    plus a one-line source excerpt with a caret — see
    {!Netlist_io.Srcloc}.

    Non-fatal findings (the [RTL-*] lint rules) go through {!lintf}:
    inside a {!collect} they accumulate as {!Lint_core.Diagnostic.t}s,
    outside one they are dropped, so elaboration behaves identically
    whether or not anyone is listening. *)

exception Error of Netlist_io.Srcloc.t option * string

(** [fail ?source ?loc fmt ...] raises {!Error} with a formatted
    message; when [source] is given the excerpt line is appended. *)
val fail :
  ?source:string -> ?loc:Netlist_io.Srcloc.t ->
  ('a, Format.formatter, unit, 'b) format4 -> 'a

(** Record a lint finding at an (optional) source location.  A no-op
    unless a {!collect} is active. *)
val lintf :
  rule:string -> severity:Lint_core.Diagnostic.severity ->
  ?loc:Netlist_io.Srcloc.t ->
  ('a, Format.formatter, unit, unit) format4 -> 'a

(** [collect f] runs [f] with lint collection enabled and returns its
    result along with the findings, in emission order.  Nests: the
    enclosing collector is restored afterwards (also on exceptions). *)
val collect : (unit -> 'a) -> 'a * Lint_core.Diagnostic.t list
