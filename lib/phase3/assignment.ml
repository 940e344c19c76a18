module Design = Netlist.Design
module Ff_graph = Netlist.Ff_graph

type plan =
  | Single_p1
  | Pair_p1
  | Pair_p3

type solver = [ `Auto | `Ilp | `Mis | `Greedy ]

type t = {
  graph : Ff_graph.t;
  plans : plan array;
  pi_latches : string list;
  inserted_latches : int;
  optimal : bool;
  solver_used : solver;
  solve_time_s : float;
}

let total_latches t =
  let n = Array.length t.plans in
  let pairs =
    Array.fold_left
      (fun acc p -> match p with Single_p1 -> acc | Pair_p1 | Pair_p3 -> acc + 1)
      0 t.plans
  in
  (n - pairs) + (2 * pairs) + List.length t.pi_latches

(* K(v) = 1 iff the first latch of v is clocked by p1. *)
let k_of = function
  | Single_p1 | Pair_p1 -> true
  | Pair_p3 -> false

(* PI latches derived from the plans: an input needs a p2 latch iff some
   flip-flop in its fanout has its first latch on p1. *)
let derive_pi_latches (g : Ff_graph.t) plans =
  let needs = ref [] in
  Array.iteri
    (fun m fanout ->
      if List.exists (fun v -> k_of plans.(v)) fanout then
        needs := g.Ff_graph.pi_names.(m) :: !needs)
    g.Ff_graph.pi_fanout;
  List.rev !needs

let count_inserted plans pi_latches =
  Array.fold_left
    (fun acc p -> match p with Single_p1 -> acc | Pair_p1 | Pair_p3 -> acc + 1)
    0 plans
  + List.length pi_latches

(* --- MIS reduction --- *)

(* Augmented graph: one vertex per eligible (non-self-loop) flip-flop plus
   one auxiliary vertex per penalised primary input, adjacent to the
   input's eligible fanout set.  Maximum independent set = max (#singles +
   #avoided input penalties); see the module documentation. *)
let build_augmented (g : Ff_graph.t) =
  let n = Ff_graph.size g in
  let eligible = Array.init n (fun k -> not g.Ff_graph.self_loop.(k)) in
  let pi_with_fanout =
    Array.to_list g.Ff_graph.pi_fanout
    |> List.mapi (fun m fo -> (m, List.filter (fun v -> eligible.(v)) fo))
    |> List.filter (fun (_, fo) -> fo <> [])
  in
  let n_aux = List.length pi_with_fanout in
  let edges = ref [] in
  Array.iteri
    (fun u fanout ->
      if eligible.(u) then
        List.iter
          (fun v -> if v <> u && eligible.(v) then edges := (u, v) :: !edges)
          fanout)
    g.Ff_graph.fanout;
  List.iteri
    (fun k (_, fo) ->
      let aux = n + k in
      List.iter (fun v -> edges := (aux, v) :: !edges) fo)
    pi_with_fanout;
  let graph = Ilp.Indep_set.graph_of_edges ~n:(n + n_aux) !edges in
  (graph, eligible)

let decode_mis (g : Ff_graph.t) chosen eligible =
  let n = Ff_graph.size g in
  let plans =
    Array.init n (fun k ->
        if eligible.(k) && chosen.(k) then Single_p1 else Pair_p3)
  in
  let pi_latches = derive_pi_latches g plans in
  (plans, pi_latches)

(* --- Literal ILP formulation --- *)

let build_model (g : Ff_graph.t) =
  let n = Ff_graph.size g in
  let g_var u = 2 * u
  and k_var u = (2 * u) + 1 in
  let pi_with_fanout =
    Array.to_list g.Ff_graph.pi_fanout
    |> List.mapi (fun m fo -> (m, fo))
    |> List.filter (fun (_, fo) -> fo <> [])
  in
  let gpi_var =
    let tbl = Hashtbl.create 16 in
    List.iteri (fun k (m, _) -> Hashtbl.replace tbl m ((2 * n) + k)) pi_with_fanout;
    tbl
  in
  let num_vars = (2 * n) + List.length pi_with_fanout in
  let var_names =
    Array.init num_vars (fun j ->
        if j < 2 * n then
          Printf.sprintf "%s%d" (if j mod 2 = 0 then "G" else "K") (j / 2)
        else Printf.sprintf "Gpi%d" (j - (2 * n)))
  in
  let constraints = ref [] in
  for u = 0 to n - 1 do
    (* G(u) + K(u) >= 1 *)
    constraints :=
      Lp.Problem.constr [(g_var u, 1.0); (k_var u, 1.0)] Lp.Problem.Ge 1.0
      :: !constraints;
    (* G(u) >= K(u) + K(v) - 1 for v in FO(u); for v = u this becomes
       G(u) >= 2K(u) - 1 *)
    List.iter
      (fun v ->
        let coeffs =
          if v = u then [(g_var u, 1.0); (k_var u, -2.0)]
          else [(g_var u, 1.0); (k_var u, -1.0); (k_var v, -1.0)]
        in
        constraints := Lp.Problem.constr coeffs Lp.Problem.Ge (-1.0) :: !constraints)
      g.Ff_graph.fanout.(u)
  done;
  List.iter
    (fun (m, fo) ->
      let gp = Hashtbl.find gpi_var m in
      List.iter
        (fun v ->
          constraints :=
            Lp.Problem.constr [(gp, 1.0); (k_var v, -1.0)] Lp.Problem.Ge 0.0
            :: !constraints)
        fo)
    pi_with_fanout;
  let objective =
    List.init n (fun u -> (g_var u, 1.0))
    @ List.map (fun (m, _) -> (Hashtbl.find gpi_var m, 1.0)) pi_with_fanout
  in
  Ilp.Model.make ~var_names ~sense:Lp.Problem.Minimize ~objective !constraints

let decode_ilp (g : Ff_graph.t) (sol : Ilp.Model.solution) =
  let n = Ff_graph.size g in
  let plans =
    Array.init n (fun u ->
        let gv = sol.Ilp.Model.values.(2 * u) in
        let kv = sol.Ilp.Model.values.((2 * u) + 1) in
        match gv, kv with
        | false, _ -> Single_p1
        | true, true -> Pair_p1
        | true, false -> Pair_p3)
  in
  let pi_latches = derive_pi_latches g plans in
  (plans, pi_latches)

let model_of d = build_model (Ff_graph.build d)

let now () = Unix.gettimeofday ()

let solve ?(solver = `Auto) ?(node_budget = 2_000_000) d =
  let g = Ff_graph.build d in
  let n = Ff_graph.size g in
  let strategy =
    match solver with
    | `Auto -> if n <= 40 then `Ilp else `Mis
    | (`Ilp | `Mis | `Greedy) as s -> s
  in
  let t0 = now () in
  (* solver internals are published as Obs counters and histograms
     under the ilp./mis. prefixes by the solvers themselves; read them
     with Obs.counter_of / Obs.histograms *)
  let plans, pi_latches, optimal =
    match strategy with
    | `Ilp ->
      let model = Obs.span "assign.build_model" (fun () -> build_model g) in
      (match Ilp.Branch_bound.solve ~node_budget:(min node_budget 20_000) model with
       | Some (sol, _) ->
         let plans, pi = Obs.span "assign.decode" (fun () -> decode_ilp g sol) in
         (plans, pi, sol.Ilp.Model.optimal)
       | None ->
         (* The formulation is always feasible (all pairs); cannot happen. *)
         assert false)
    | `Mis ->
      let graph, eligible =
        Obs.span "assign.build_augmented" (fun () -> build_augmented g)
      in
      let r = Obs.span "mis.solve" (fun () -> Ilp.Indep_set.solve ~node_budget graph) in
      Obs.count "mis.components" r.Ilp.Indep_set.components;
      Obs.count "mis.nodes" r.Ilp.Indep_set.nodes_explored;
      let plans, pi =
        Obs.span "assign.decode" (fun () ->
            decode_mis g r.Ilp.Indep_set.chosen eligible)
      in
      (plans, pi, r.Ilp.Indep_set.optimal)
    | `Greedy ->
      let graph, eligible =
        Obs.span "assign.build_augmented" (fun () -> build_augmented g)
      in
      let chosen = Ilp.Indep_set.greedy graph in
      let plans, pi =
        Obs.span "assign.decode" (fun () -> decode_mis g chosen eligible)
      in
      (plans, pi, false)
  in
  let solve_time_s = now () -. t0 in
  Obs.count "assign.registers" n;
  Obs.count "assign.inserted_latches" (count_inserted plans pi_latches);
  { graph = g;
    plans;
    pi_latches;
    inserted_latches = count_inserted plans pi_latches;
    optimal;
    solver_used = strategy;
    solve_time_s }

let validate d t =
  Obs.span "assign.validate" @@ fun () ->
  ignore d;
  let g = t.graph in
  let issues = ref [] in
  Array.iteri
    (fun u plan ->
      if g.Ff_graph.self_loop.(u) && plan = Single_p1 then
        issues :=
          Printf.sprintf "flip-flop %d has a combinational self-loop but is a single latch" u
          :: !issues;
      if plan = Single_p1 then
        List.iter
          (fun v ->
            if v <> u && k_of t.plans.(v) then
              issues :=
                Printf.sprintf
                  "single p1 latch %d feeds flip-flop %d whose first latch is p1" u v
                :: !issues)
          g.Ff_graph.fanout.(u))
    t.plans;
  Array.iteri
    (fun m fanout ->
      let needs = List.exists (fun v -> k_of t.plans.(v)) fanout in
      let has = List.exists (String.equal g.Ff_graph.pi_names.(m)) t.pi_latches in
      if needs && not has then
        issues :=
          Printf.sprintf "input %s feeds a p1 first latch but has no p2 latch"
            g.Ff_graph.pi_names.(m)
          :: !issues)
    g.Ff_graph.pi_fanout;
  List.rev !issues
