(** Input streams for simulation: deterministic pseudo-random vectors and
    activity-profiled workloads (the stand-ins for the paper's testbench
    programs).

    A stream comes in two forms.  {!draw} is the lane-packed one: for up
    to {!max_lanes} seeds it holds one [int] word per cycle and input,
    bit [l] holding lane [l]'s value, and {!Kernel.run} commits those
    words as they are.  Its words are drawn one input column at a time,
    on demand: a kernel draws only the inputs its cone reads, and a
    draw shared by several kernels, on one domain or several, draws
    each column once.  The list form {!t} is what {!Engine} reads; the
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

(** The words of a draw, one column per input, each filled once, on
    first use; read them with {!columns} and {!words}. *)
type columns

(** A lane-packed draw of [lanes] lanes over [cycles] cycles of
    [inputs].  Input [inputs.(k)]'s word in cycle [c] holds lane [l]'s
    value in bit [l] (higher bits are 0); values are 0 or 1, never X. *)
type packed = private {
  inputs : string array;
  lanes : int;
  cycles : int;
  columns : columns;
}

(** Most lanes one draw holds: 63, one bit of an OCaml immediate int
    per lane. *)
val max_lanes : int

(** [draw ~seeds ~cycles shape inputs] draws one lane per seed.  Each
    lane starts every input at a random value and from the second cycle
    on toggles it with the probability [shape] gives, from its own
    generator seeded by [seeds.(l)], in [inputs] order.  Deterministic in
    the seeds.

    The generator is counter-based (splitmix64): a lane's [j]-th draw is
    [mix (s0 + (j + 1) * gamma)], [s0] its seed's state, and input [k]'s
    word in cycle [c] takes each lane's draw [c * n + k] of [n] inputs.
    So [draw] itself draws nothing: each input's column is drawn on its
    own the first time {!columns}, {!words} or {!lane} reads it,
    bit-identical to a draw of every column, and once per draw,
    whichever kernels or domains read it (a lock guards the fill).
    Raises [Invalid_argument] for more than {!max_lanes} seeds or a
    negative [cycles]; [cycles = 0] gives an empty draw. *)
val draw : seeds:int array -> cycles:int -> shape -> string list -> packed

(** [prefix p ~cycles] is the first [cycles] cycles of [p], a view that
    copies no word: it shares [p]'s columns, so a column filled through
    either is filled for both, once, at [p]'s full length.  A draw's
    first [cycles] cycles equal a [cycles]-cycle draw of the same seeds,
    shape and inputs.  Raises [Invalid_argument] unless [0 <= cycles <=
    p.cycles]. *)
val prefix : packed -> cycles:int -> packed

(** [columns p ks] is, for each [k] of [ks], input [p.inputs.(k)]'s word
    in every cycle: its first [p.cycles] words hold them (a {!prefix}
    view's columns are its draw's, and can be longer).  The columns not
    yet filled are drawn now, whole, under one [sim.stimulus.build]
    span, adding the words drawn to the [sim.stimulus.words] counter:
    the counter counts the words actually drawn.  The arrays are the
    draw's own; do not write them.  Safe to call from several domains
    at once. *)
val columns : packed -> int array -> int array array

(** Every word of [p], cycle-major: element [c * Array.length p.inputs
    + k] is input [k]'s word in cycle [c].  Fills every column. *)
val words : packed -> int array

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
