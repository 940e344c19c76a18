(** Synthetic benchmark synthesis.

    Real benchmark RTL (ISCAS89 netlists, the MIT-LL CEP submodules) is
    not redistributable inside this repository, so each benchmark is
    replaced by a generated circuit with the same register count and the
    structural character that drives the paper's results: the layering of
    registers into pipeline stages, the fraction of flip-flops with
    combinational self-loops, cross-layer feedback density, and the
    grouping of registers under clock-gate enables.  See DESIGN.md for the
    substitution rationale. *)

type spec = {
  name : string;
  seed : int;
  inputs : int;
  outputs : int;
  layers : int array;           (** flip-flops per pipeline layer *)
  fanin : int;                  (** distinct sources per register D cone *)
  cone_depth : int;             (** max gate-tree depth of a D cone *)
  self_loop_fraction : float;   (** registers with direct comb feedback *)
  cross_feedback : float;       (** probability a cone also samples a
                                    non-previous layer (creates FF-graph
                                    cycles like control logic does) *)
  reuse : float;                (** probability of reusing an existing
                                    intermediate net (fanout sharing) *)
  gated_fraction : float;       (** registers behind integrated clock
                                    gates, grouped in banks *)
  bank_size : int;
  po_cones : int;               (** extra comb cones feeding outputs *)
  frequency_mhz : float;
}

(** Sum of [layers]. *)
val num_flip_flops : spec -> int

(** [synthesize spec] builds the design over the default library. *)
val synthesize : spec -> Netlist.Design.t

(** [alternating_layers ~ffs ~n_layers ~ratio] splits [ffs] registers into
    alternating wide/narrow layers with the wide layers holding [ratio] of
    each wide+narrow pair — the structure of datapath-dominated designs
    (wide state ranks, narrow key/control ranks) where conversion keeps
    most registers as single latches. *)
val alternating_layers : ffs:int -> n_layers:int -> ratio:float -> int array
