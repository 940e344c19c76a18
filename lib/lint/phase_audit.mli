(** The independent phase-legality auditor.

    Recomputes, per register-to-register arc, whether the phase sequence
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

    The analysis mirrors the SMO formulation used by [Sta.Smo] but is
    computed per exact arc from [Sta.Paths] — strictly less pessimistic
    than the class-based checker, and sharing none of the phase
    assignment's solution construction. *)

val endpoint_name : Netlist.Design.t -> Sta.Paths.endpoint -> string

val run :
  ?setup_margin:float ->
  ?input_delay:float * float ->
  Netlist.Design.t ->
  clocks:Sim.Clock_spec.t ->
  views:Sta.Smo.reg_view list ->
  paths:Sta.Paths.path list ->
  Lint_core.Diagnostic.t list
