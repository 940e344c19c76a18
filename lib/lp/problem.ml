type relation = Le | Ge | Eq

type constr = {
  coeffs : (int * float) list;
  relation : relation;
  rhs : float;
}

type sense = Maximize | Minimize

type t = {
  num_vars : int;
  objective : (int * float) list;
  sense : sense;
  constraints : constr list;
}

let make ~num_vars ~sense ~objective constraints =
  { num_vars; objective; sense; constraints }

let constr coeffs relation rhs = { coeffs; relation; rhs }

let dot coeffs x =
  List.fold_left (fun acc (j, a) -> acc +. (a *. x.(j))) 0.0 coeffs

let objective_value t x = dot t.objective x

let feasible t x =
  let eps = 1e-6 in
  Array.for_all (fun v -> v >= -.eps) x
  && List.for_all
       (fun c ->
         let lhs = dot c.coeffs x in
         match c.relation with
         | Le -> lhs <= c.rhs +. eps
         | Ge -> lhs >= c.rhs -. eps
         | Eq -> Float.abs (lhs -. c.rhs) <= eps)
       t.constraints
