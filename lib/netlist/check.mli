(** Structural validation of a design.  Used before and after conversion
    to catch netlist-rewrite bugs early, and as the structural pass of
    the lint engine.

    Rules:
    - [NET-001] (error): an instance input pin or primary output reads
      an undriven net;
    - [NET-002] (error): combinational cycle;
    - [NET-003] (error): a sequential clock pin does not trace back to a
      declared clock port;
    - [NET-004] (warning): duplicate instance or net names;
    - [NET-005] (warning): a driven net is read nowhere. *)

(** [diagnostics d] performs all checks, reporting through the unified
    diagnostic type (locations are {!Lint_core.Diagnostic.Object}s
    naming the offending instance, net or port), inside the Obs span
    [lint.structural]. *)
val diagnostics : Design.t -> Lint_core.Diagnostic.t list

(** The messages of the error-severity findings among [diagnostics],
    in order. *)
val errors : Lint_core.Diagnostic.t list -> string list

(** [validate d] returns [Ok ()] when {!diagnostics} would find no
    error-severity finding, otherwise [Error messages], the {!errors}
    of its findings.  It runs only the error rules (NET-001 to
    NET-003), under the same [lint.structural] span, and builds no
    warning. *)
val validate : Design.t -> (unit, string list) result
