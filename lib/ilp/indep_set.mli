(** Exact (anytime) maximum independent set.

    The paper's conversion ILP reduces to MIS: a flip-flop can stay a
    single [p1] latch exactly when it has no combinational feedback onto
    itself and no chosen neighbour in the FF fanout graph; primary-input
    consistency penalties become auxiliary vertices adjacent to the fanout
    group of each input ([Phase3.Assignment] performs that encoding).

    The solver decomposes into connected components, applies degree-0/1
    reductions, and runs branch and bound with a greedy-matching upper
    bound.  Components are independent and solved one after the other,
    smallest first, each with the full node budget.  The budget makes
    each component anytime: when exhausted it contributes the
    greedy-plus-search incumbent with [optimal = false]. *)

type graph = {
  n : int;
  adj : int list array;  (** undirected adjacency, no self loops *)
}

type result = {
  chosen : bool array;
  size : int;
  optimal : bool;
  upper_bound : int;
  nodes_explored : int;
  components : int;    (** connected components in the conflict graph *)
}

(** Build an undirected graph from directed edges, dropping duplicates.
    Vertices with a self edge are recorded and excluded from the set by
    giving them an [excluded] mark handled by the caller (they simply
    should not be passed in). *)
val graph_of_edges : n:int -> (int * int) list -> graph

(** Greedy min-degree maximal independent set (the warm start). *)
val greedy : graph -> bool array

val solve : ?node_budget:int -> graph -> result

(** {2 Component-level algorithms}

    Exposed for testing.  [solve] composes them: components up to a size
    threshold use exact branch and bound; larger bipartite components are
    solved exactly via Koenig's theorem (max independent set = vertices -
    maximum matching); the rest fall back to greedy plus (1,2)-swap local
    search with a matching-based upper bound. *)

(** [two_colour g members] returns per-vertex sides when the component
    induced by [members] is bipartite. *)
val two_colour : graph -> int list -> (bool array) option

(** Maximum matching on the subgraph induced by [members] (simple
    augmenting paths).  Returns the mate array (-1 = unmatched). *)
val max_matching : graph -> int list -> int array

(** Exact MIS of a bipartite component via Koenig's construction. *)
val bipartite_mis : graph -> int list -> bool array -> int list

(** Improve an independent set in place with up to four rounds of
    additions and (1,2)-swaps.  Returns the improved set. *)
val local_search : graph -> int list -> int list
