(** Shared compile-time analyses of a design's evaluation structure, used
    by both the scalar {!Engine} and the bit-parallel {!Kernel}.

    Levelization assigns every combinational (and clock-gating) instance a
    topological depth: an instance's level is strictly greater than the
    level of every combinational instance driving one of its inputs.
    Sequential elements (flip-flops and latches) all share the final
    level, so a level-ordered worklist evaluates the settled combinational
    cone before any register reacts — the classic levelized
    compiled-simulation discipline.  Both simulators draining their
    worklists in level order is what makes the kernel's lane 0 bit-exact
    against the scalar engine, including glitch-free toggle counts. *)

type t = {
  level : int array;   (** per instance *)
  seq_level : int;     (** level shared by all sequential instances *)
  n_buckets : int;     (** [seq_level + 1] *)
  cyclic_level : int option;
  (** bucket holding instances on combinational cycles, when any exist;
      such instances re-enter the worklist out of topological order, so
      compile-time transforms that rely on level monotonicity (e.g. the
      kernel's gate fusion) must leave them alone *)
}

val compute : Netlist.Design.t -> t
