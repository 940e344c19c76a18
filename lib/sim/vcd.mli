(** Value-change-dump (VCD) writing: an IEEE-1364-style waveform of one
    {!Kernel} lane for waveform viewers.

    Sampling is per clock cycle, at the end of each cycle; intra-cycle
    phase detail is visible through the clock port nets, which are
    sampled at their end-of-cycle levels. *)

(** [dump kernel draw] runs [draw] on [kernel] ({!Kernel.run_sampled})
    and renders lane 0 of the clock ports, the other primary inputs, the
    primary outputs and the register outputs, named by port or register
    instance, at a 1 ns timescale with one cycle per 10 units.  Lane 0
    of a kernel is the {!Engine} run of lane 0 of the draw, so this is
    the waveform of that one stream.  The kernel must observe every net
    (the default of {!Kernel.create}); raises as {!Kernel.run_sampled}
    does. *)
val dump : Kernel.t -> Stimulus.packed -> string

(** [sanitize name] maps every character outside [A-Za-z0-9_] to [_]:
    the identifier form that VCD and {!Saif} share. *)
val sanitize : string -> string
