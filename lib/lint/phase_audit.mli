(** The phase-legality auditor.

    Reads, per register-to-register arc, whether the phase sequence
    implied by the netlist and the clock specification is legal:

    - [PHASE-001] (error): a latch-to-latch arc where both ends close on
      the same phase — data races through two transparent latches;
    - [PHASE-002] (error): setup violation at an edge-triggered
      (zero-width) destination;
    - [PHASE-003] (error): a latch destination borrows more time than
      its transparency window provides;
    - [PHASE-004] (error, design-level): the latch departure-time fixed
      point failed to converge;
    - [PHASE-005] (error): a latch-to-latch arc whose transparency
      windows overlap (distinct closing edges, no non-overlap gap);
    - [PHASE-007] (error): with three or more phases, a latch arc from
      the latest-closing phase straight to the earliest-closing one
      (the paper's C2: the cycle boundary must pass through the middle
      phase), flagged even when its timing closes.

    The arcs, their setup slacks and the convergence flag are those of
    the {!Sta.Smo} analysis the flow signs off with; nothing here is
    computed from the phase assignment's solution. *)

val endpoint_name : Netlist.Design.t -> Sta.Paths.endpoint -> string

(** ["src -> dst"]: where an arc's diagnostics point. *)
val arc_obj : Netlist.Design.t -> Sta.Smo.arc -> Lint_core.Diagnostic.location

val run : Sta.Smo.t -> Lint_core.Diagnostic.t list
