(** Min-delay (hold) audit over transparent windows.

    [HOLD-001] (error): the earliest next-cycle arrival on an arc lands
    before the destination's previous capture is safely closed — the
    short path races through a transparent window.

    Reports every arc of the {!Sta.Smo} analysis whose hold slack is
    negative; [Sta.Hold_fix] buffers until that analysis passes, so a
    design it fixed at a margin passes this audit at the same margin. *)

val run : Sta.Smo.t -> Lint_core.Diagnostic.t list
