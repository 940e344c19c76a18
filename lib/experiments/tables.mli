(** Reproduction of every table and figure in the paper's evaluation.
    Each function renders plain-text tables; paper values are printed next
    to the measured ones so the shape comparison is immediate. *)

(** Table I: register counts and total area for FF / M-S / 3-P. *)
val table1 : Runner.t list -> Report.Table.t list

(** Table II: power by group (clock / sequential / combinational). *)
val table2 : Runner.t list -> Report.Table.t list

(** Fig. 1: linear-pipeline conversion — latch counts across a depth
    sweep, checked against the closed-form optimum. *)
val fig1 : ?widths:int list -> ?stages:int list -> unit -> Report.Table.t

(** Fig. 2: enabled-clock vs gated-clock styles and their effect on
    self-loops, conversion quality and power. *)
val fig2 : unit -> Report.Table.t

(** Fig. 3: simulated waveform of a common-enable p2 clock gate (M1
    style), demonstrating that the gated p2 pulses only when the enable
    was captured high and stays glitch-free. *)
val fig3 : unit -> Report.Table.t

(** Fig. 4: RISC-V and Arm-M0 power under Dhrystone and Coremark, 384
    cycles each. *)
val fig4 : unit -> Report.Table.t

(** Run-time discussion of Section V: ILP time vs. flow time. *)
val runtime : Runner.t list -> Report.Table.t

(** Companion to {!runtime}: one column per {!Phase3.Flow.stage_names}
    entry with that stage's wall-clock seconds (from
    {!Phase3.Flow.result.stage_times}), plus the flow total.  Disabled
    stages print ["-"]. *)
val runtime_stages : Runner.t list -> Report.Table.t

(** Register-style comparison including the pulsed-latch alternative of
    Section I: registers, area, power and hold-buffer demand under 50 ps
    of skew for FF / pulsed-latch / master-slave / 3-phase, on plasma. *)
val baselines : unit -> Report.Table.t

(** Frequency sweep: power and timing sign-off vs clock rate on s15850,
    at periods from 0.4 to 2.5 ns.  Power savings are frequency-independent in a dynamic-power
    world; the crossover appears in timing — a phase only gets about two
    thirds of the cycle, so at the high end the converted design stops
    meeting the SMO constraints before the flip-flop original does. *)
val frequency_sweep : unit -> Report.Table.t
