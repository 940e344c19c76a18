(** Min-delay (hold) audit over transparent windows.

    [HOLD-001] (error): the earliest next-cycle arrival on an arc lands
    before the destination's previous capture is safely closed — the
    short path races through a transparent window.

    Per-arc mirror of [Sta.Smo]'s hold inequality using exact
    [Sta.Paths] minimum delays; [Sta.Hold_fix] buffering makes a design
    pass this audit at the same margin. *)

val run :
  ?hold_margin:float ->
  ?input_delay:float * float ->
  Netlist.Design.t ->
  clocks:Sim.Clock_spec.t ->
  views:Sta.Smo.reg_view list ->
  paths:Sta.Paths.path list ->
  Lint_core.Diagnostic.t list
