(** Input streams for simulation: deterministic pseudo-random vectors and
    activity-profiled workloads (the stand-ins for the paper's testbench
    programs).

    A stream comes in two forms.  {!draw} is the lane-packed one: for up
    to {!max_lanes} seeds it fills one [int] word per cycle and input,
    bit [l] holding lane [l]'s value, and {!Kernel.run} commits those
    words as they are.  The list form {!t} is what {!Engine} reads; the
    generators {!random}, {!profiled} and {!bursty} return lane 0 of a
    one-seed draw, so there is one draw order for both forms: lane [l]
    of a draw equals the list stream of its seed. *)

type t = (string * Logic.t) list list  (** one element per cycle *)

(** How often each input toggles. *)
type shape =
  | Uniform of float
      (** every input, every cycle, with this probability *)
  | Profiled of (string -> float)
      (** per input: the function is called once per input name, so it
          must be pure (a workload model: a Dhrystone-like profile
          toggles data buses more than a hello-world-like one) *)
  | Bursty of { burst_len : int; idle_len : int; toggle_probability : float }
      (** active bursts of [burst_len] cycles at [toggle_probability],
          then [idle_len] idle cycles where an input toggles with
          probability 0.01 — the shape of the CEP self-check programs *)

(** A lane-packed draw.  [words.(c * Array.length inputs + k)] holds
    input [inputs.(k)] in cycle [c], bit [l] for lane [l] ([lanes]
    lanes; higher bits are 0).  Values are 0 or 1, never X. *)
type packed = private {
  inputs : string array;
  lanes : int;
  cycles : int;
  words : int array;
}

(** Most lanes one draw holds: 63, one bit of an OCaml immediate int
    per lane. *)
val max_lanes : int

(** [draw ~seeds ~cycles shape inputs] draws one lane per seed.  Each
    lane starts every input at a random value and from the second cycle
    on toggles it with the probability [shape] gives, from its own
    generator seeded by [seeds.(l)], in [inputs] order.  Deterministic in
    the seeds.  Records a [sim.stimulus.build] span and adds
    [cycles * List.length inputs] to the [sim.stimulus.words] counter.
    Raises [Invalid_argument] for more than {!max_lanes} seeds or a
    negative [cycles]; [cycles = 0] gives an empty draw. *)
val draw : seeds:int array -> cycles:int -> shape -> string list -> packed

(** [lane p l] is lane [l] of [p] as a list stream: every input of
    [p.inputs], in order, in every cycle. *)
val lane : packed -> int -> t

(** [pack streams] packs one list stream per lane (lane [l] into bit
    [l]).  Every lane-cycle must list the ports of lane 0's first cycle
    in the same order, with values 0 or 1.  Raises [Invalid_argument]
    for more than {!max_lanes} lanes, lanes of different lengths, a
    lane-cycle with other ports or another order, and an X value. *)
val pack : t array -> packed

(** [random ~seed ~cycles ~toggle_probability inputs]: lane 0 of a
    one-seed {!draw} with [Uniform toggle_probability]. *)
val random :
  seed:int -> cycles:int -> toggle_probability:float -> string list -> t

(** [profiled ~seed ~cycles profile inputs]: lane 0 of a one-seed
    {!draw} with [Profiled profile]. *)
val profiled :
  seed:int -> cycles:int -> (string -> float) -> string list -> t

(** [bursty ~seed ~cycles ~burst_len ~idle_len ~toggle_probability
    inputs]: lane 0 of a one-seed {!draw} with [Bursty]. *)
val bursty :
  seed:int -> cycles:int -> burst_len:int -> idle_len:int ->
  toggle_probability:float -> string list -> t

(** Constant stream (all inputs at the given value each cycle). *)
val constant : cycles:int -> Logic.t -> string list -> t

(** Non-clock primary input names of a design, the usual argument.  In
    the design's input order, which is the order {!Engine} and
    {!Kernel} index their inputs in. *)
val inputs_of : Netlist.Design.t -> string list
