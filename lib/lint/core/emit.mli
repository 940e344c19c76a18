(** Emitters for lint reports.  All three formats are deterministic:
    no timestamps, no absolute paths beyond what the diagnostics carry,
    and diagnostics are emitted in the order given (callers sort with
    {!Diagnostic.compare} first). *)

(** Human-readable listing, one diagnostic per line, followed by a
    summary line ["N error(s), N warning(s), N info(s)"].  Waived
    diagnostics are skipped unless [show_waived] is true. *)
val text : ?show_waived:bool -> Format.formatter -> Diagnostic.t list -> unit

(** Machine-readable JSON: an object with a [diagnostics] array and a
    [summary] object with the unwaived counts. *)
val json : Format.formatter -> Diagnostic.t list -> unit

(** Minimal SARIF 2.1.0 document (one run, tool ["ff2latch-lint"]).
    Severities map error/warning/info to SARIF levels
    error/warning/note.  Waived diagnostics are emitted with
    ["suppressions"]. *)
val sarif : Format.formatter -> Diagnostic.t list -> unit
