(** Power estimation in the paper's three groups: clock network, sequential
    cells, and combinational logic (Table II's columns).

    Dynamic power comes from simulated per-net toggle counts: every net
    toggle switches its pin and wire capacitance; every cell adds its
    internal energy per relevant event (output toggle for combinational
    cells, clock edge for sequential and clock-gating cells).  The clock
    group uses the clock-tree synthesis result instead of the generic
    wire estimate, so gating that stops a subnet's toggling is rewarded.
    Leakage is summed per group. *)

type breakdown = {
  clock : float;  (** mW *)
  seq : float;
  comb : float;
}

val total : breakdown -> float

type detail = {
  dynamic : breakdown;
  leakage : breakdown;
  overall : breakdown;   (** dynamic + leakage *)
}

(** [run impl ~activity:(toggles, cycles) ~period] — [period] in ns.
    [toggles] must cover every net of the implemented design (a
    simulator's per-net toggle counters); [cycles] is the
    per-lane denominator, so multi-lane kernel runs pass
    [Kernel.lane_cycles].  Raises [Invalid_argument] if the activity
    array is shorter than the design's net count. *)
val run :
  Physical.Implement.t -> activity:int array * int -> period:float -> detail

val pp_breakdown : Format.formatter -> breakdown -> unit
