(** Decomposed LP-relaxation branch and bound for binary programs.

    [solve] splits the model into the connected components of its
    variable–constraint incidence graph ({!Model.decompose}) and solves
    each component as an independent sub-ILP — the objective is
    separable, so per-component optima compose into a global optimum.
    Components are solved one after the other, in component order, on
    the calling domain.

    Decomposition is preceded by a root presolve: unit propagation to
    fixpoint, then probing — each free variable is tentatively fixed
    both ways and a propagation wipeout on one side proves the other
    value.  Proved variables are substituted out ({!Model.reduce}),
    which drops the constraint rows they satisfied and with them
    incidence edges, so one big component often shatters into many.

    Each component search is best-first on the LP bound with a node
    priority queue, *plunging* from every popped node: it dives
    depth-first on the most fractional variable — ties break to the
    {e lowest variable index}, so the branching order, and with it the
    whole search tree, is stable across refactors — rounded to its LP
    value, backtracks locally through a bounded sibling stack, and
    flushes leftovers back to the queue.  Before every LP solve, unit
    propagation fixes implied variables (a constraint
    [x_i + x_j <= 1] with [x_i = 1] forces [x_j = 0]); the fixed
    variables are then eliminated from the relaxation
    ({!Model.reduce}), so the simplex tableau shrinks as the
    search deepens instead of growing fixing rows.  Greedy rounding
    candidates seed the incumbent at the root.  Components of at most
    [brute_max] variables skip the LP machinery entirely and are
    enumerated by {!Brute_force}.

    The [node_budget] applies per component, so one component's search
    never depends on how its siblings went.  On exhaustion the
    incumbent is returned with [optimal = false] and [best_bound] set
    to the most optimistic *open* node bound — the honest remaining
    gap, not the root relaxation.

    [solve] also records {!Obs} metrics: an [ilp.solve] span plus the
    [ilp.components], [ilp.nodes], [ilp.lp_solves] and
    [ilp.propagations] counters, emitted per component. *)

(** Search statistics, also mirrored as [ilp.*] {!Obs} counters. *)
type stats = {
  nodes_explored : int;      (** across all components *)
  lp_solves : int;
  propagations : int;        (** implied fixings applied before LP solves *)
  components : int;
}

(** The root presolve on its own: propagation + probing.  Returns the
    fixing vector ([-1] free, else the proved value) and the number of
    fixings, or [None] when the model is infeasible.  Exposed for tests
    and benchmarks. *)
val presolve : Model.t -> (int array * int) option

(** [solve ?node_budget ?brute_max t] returns [None] when the model is
    infeasible. *)
val solve :
  ?node_budget:int -> ?brute_max:int -> Model.t ->
  (Model.solution * stats) option
