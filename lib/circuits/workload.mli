(** Workload models: input-activity profiles standing in for the paper's
    testbench programs (pseudo-random streams for ISCAS, the CEP
    self-check programs, "pi" / "hello world" / "rv32ui-v-simple" for the
    CPU testbenches, and Dhrystone / Coremark for Fig. 4). *)

type t =
  | Uniform_random of float       (** toggle probability per input *)
  | Self_check                    (** bursty: active vectors then idle *)
  | Program of program

and program =
  | Pi          (** Plasma's "pi" benchmark: steady arithmetic *)
  | Hello_world (** mostly idle, occasional I/O *)
  | Rv32ui      (** ISA test: moderate, regular *)
  | Dhrystone   (** integer-heavy, busy memory interface *)
  | Coremark    (** busiest mix *)

val name : t -> string

(** The stimulus shape of a profile: [Uniform p] for
    [Uniform_random p], a bursty shape for [Self_check], per-port rates
    for the program profiles. *)
val shape : t -> Sim.Stimulus.shape

(** [draw t ~seeds ~cycles design] draws one lane per seed over the
    design's non-clock inputs ({!Sim.Stimulus.draw}), for
    {!Sim.Kernel.run}.  Program profiles give CPU interface ports
    (imem/dmem/irq) their own activity levels. *)
val draw :
  t -> seeds:int array -> cycles:int -> Netlist.Design.t ->
  Sim.Stimulus.packed

(** [stimulus t ~seed ~cycles design] is the list stream of one seed:
    lane 0 of [draw t ~seeds:[|seed|]], for {!Sim.Engine}. *)
val stimulus :
  t -> seed:int -> cycles:int -> Netlist.Design.t -> Sim.Stimulus.t
