(** Deterministic splitmix-style PRNG for reproducible circuit
    generation (independent of the global [Random] state). *)

type t

val create : int -> t

val int : t -> int -> int
(** [int t bound] in [0, bound). *)

val float : t -> float
(** uniform in [0, 1). *)

val bool : t -> bool

val chance : t -> float -> bool
(** [chance t p] is true with probability [p]. *)

val pick : t -> 'a list -> 'a
(** uniform element of a non-empty list. *)
