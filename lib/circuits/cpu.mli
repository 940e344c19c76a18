(** Structural CPU-like benchmark circuits standing in for the paper's
    Plasma (3-stage MIPS), RISC-V Rocket and Arm Cortex-M0 designs.

    Each CPU is assembled from the blocks that shape its flip-flop graph:
    a self-looping program counter with branch feedback from execute, a
    register file in clock-gated banks written from the last stage (long
    feedback), pipeline rank registers with forwarding paths, and a
    self-looping control FSM.  Register totals match the published
    counts (Plasma 1606, Rocket 2795, Cortex-M0 1397). *)

type spec = {
  name : string;
  seed : int;
  width : int;
  regfile_words : int;
  stage_regs : int array;   (** registers per pipeline rank *)
  ctrl_ffs : int;           (** control-FSM registers (self-looping) *)
  forwarding : float;       (** probability of a forwarding tap per reg *)
  frequency_mhz : float;
}

val num_flip_flops : spec -> int

val plasma : spec

val riscv : spec

val arm_m0 : spec

(** [make spec] builds the CPU over the default library. *)
val make : spec -> Netlist.Design.t
