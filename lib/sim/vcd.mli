(** Value-change-dump (VCD) writing: record selected nets of a running
    {!Engine} and render an IEEE-1364-style VCD file for waveform viewers.

    Sampling is per clock cycle (one timestamp per {!Engine.run_cycle});
    intra-cycle phase detail is visible through the clock port nets, which
    are sampled at their end-of-cycle levels. *)

type t

(** [create engine ~nets] starts recording the given nets (plus all clock
    ports).  Net names become VCD wire identifiers. *)
val create :
  Engine.t -> nets:(string * Netlist.Design.net) list -> t

(** Convenience: record all primary inputs, outputs and register outputs. *)
val create_default : Engine.t -> t

(** Sample the current values (call once per simulated cycle, after
    {!Engine.run_cycle}). *)
val sample : t -> unit

(** Render the dump at a 1 ns timescale, one cycle per 10 units. *)
val render : t -> string

(** [run_and_dump engine stimulus] = run the stream, sampling each cycle,
    and render. *)
val run_and_dump : Engine.t -> Stimulus.t -> string
