(** Reader and writer for the Synopsys-design-constraints (SDC) subset
    the flow exchanges with synthesis scripts.

    {2 Writer}

    {!write} describes the clocking of a design: one [create_clock] per
    clock port with the waveform taken from a {!Sim.Clock_spec.t} (the
    three-phase edges of the converted design, or the single clock of
    the original), plus 0.1 ns input/output delays, a 0.05 ns clock
    uncertainty and the physically-exclusive clock grouping the three
    phases require.  This
    is the hand-off artifact a downstream place-and-route run would
    consume.

    {2 Reader}

    {!parse} accepts the constraint style real synthesis scripts use
    (e.g. the LEN5 [set-constraints.tcl]): [set] variables with
    [$NAME]/[${NAME}] substitution, [#] comments, backslash
    continuations, and the commands

    {v
      set CLK_PERIOD 2.0
      create_clock -name clk -period $CLK_PERIOD [get_ports clk]
      set_input_delay  0.4 -clock clk [all_inputs]
      set_output_delay 0.4 -clock clk [get_ports {res_o valid_o}]
      set_clock_uncertainty 0.05 [get_clocks clk]
    v}

    Unknown commands ([set_clock_groups], [set_false_path], [set_load],
    ...) are collected in {!constraints.ignored} rather than rejected,
    so the reader survives full production constraint files.
    [ff2latch convert --constraints FILE] uses the first clock's period
    (and checks its source port against the design). *)

(** Parse errors carry the source position of the offending word; the
    message embeds a ["file:line:col:"] prefix and a one-line excerpt. *)
exception Error of Srcloc.t option * string

val write : Netlist.Design.t -> clocks:Sim.Clock_spec.t -> string

(** Object a delay constraint applies to. *)
type target =
  | Ports of string list  (** [get_ports ...] or bare names *)
  | All_inputs            (** [all_inputs] *)
  | All_outputs           (** [all_outputs] *)

type clock = {
  clock_name : string;          (** [-name], defaulting to the port *)
  source_port : string option;  (** [None] for virtual clocks *)
  period : float;               (** ns *)
  waveform : (float * float) option;  (** [-waveform {rise fall}], ns *)
}

type io_delay = {
  io_ports : target;
  relative_to : string option;  (** [-clock] name when given *)
  delay : float;                (** ns *)
  is_min : bool;                (** [-min] entry (default is max) *)
}

type constraints = {
  clocks : clock list;
  input_delays : io_delay list;
  output_delays : io_delay list;
  uncertainties : (string option * float) list;
    (** clock name (or [None] for all clocks) -> uncertainty in ns *)
  ignored : (Srcloc.t * string) list;
    (** commands the subset does not interpret, with their location *)
}

(** [parse ?file src] reads a constraint file.  [file] (default
    ["<sdc>"]) only labels error locations. *)
val parse : ?file:string -> string -> constraints

(** Period of the first defined clock, ns. *)
val period : constraints -> float option

(** Source port of the first non-virtual clock. *)
val clock_port : constraints -> string option
