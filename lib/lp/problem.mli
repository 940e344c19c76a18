(** Linear-program description: continuous variables [x >= 0] with linear
    constraints.  Upper bounds are expressed as ordinary constraints. *)

type relation = Le | Ge | Eq

type constr = {
  coeffs : (int * float) list;  (** sparse: variable index, coefficient *)
  relation : relation;
  rhs : float;
}

type sense = Maximize | Minimize

type t = {
  num_vars : int;
  objective : (int * float) list;  (** sparse objective *)
  sense : sense;
  constraints : constr list;
}

val make :
  num_vars:int -> sense:sense -> objective:(int * float) list -> constr list -> t

(** [constr coeffs relation rhs] *)
val constr : (int * float) list -> relation -> float -> constr

(** Evaluate the objective at a point. *)
val objective_value : t -> float array -> float

(** [feasible ?eps t x] checks all constraints and non-negativity. *)
val feasible : ?eps:float -> t -> float array -> bool
