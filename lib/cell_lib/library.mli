(** A technology library: a named collection of {!Cell.t} plus the
    {!Tech.t} electrical parameters, with role-based cell selection used
    by the conversion flow (e.g. "give me an active-high latch"). *)

type t

val make : name:string -> tech:Tech.t -> Cell.t list -> t

val name : t -> string

val tech : t -> Tech.t

val cells : t -> Cell.t list

val find : t -> string -> Cell.t option

(** [find_exn lib cell_name] raises [Not_found] with a helpful message via
    [Invalid_argument] when the cell does not exist. *)
val find_exn : t -> string -> Cell.t

(** Role-based selection.  Each returns the smallest-area cell matching the
    role and raises [Invalid_argument] if the library has none. *)

val flip_flop : t -> Cell.t

val flip_flop_with_reset : t -> Cell.t

val latch : t -> transparent:Cell.level -> Cell.t

val latch_with_reset : t -> transparent:Cell.level -> Cell.t

val clock_gate : t -> style:Cell.icg_style -> Cell.t

val inverter : t -> Cell.t

val buffer : t -> Cell.t

val clock_buffer : t -> Cell.t

(** The smallest combinational cell with two inputs whose output
    function is the XOR of its two pins. *)
val xor2 : t -> Cell.t

(** Parse a Liberty source into a library. *)
val of_liberty : string -> t

val to_liberty : t -> string
