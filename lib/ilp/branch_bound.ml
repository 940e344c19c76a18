type stats = {
  nodes_explored : int;
  lp_solves : int;
  propagations : int;
  components : int;
}

let integrality_eps = 1e-6

let is_integral x =
  Array.for_all (fun v -> Float.abs (v -. Float.round v) <= integrality_eps) x

(* Most fractional variable; ties break to the lowest index so the
   branching order — and with it the whole search tree — is stable
   across refactors. *)
let most_fractional x =
  let best = ref (-1) and best_frac = ref 0.0 in
  Array.iteri
    (fun j v ->
      let frac = Float.abs (v -. Float.round v) in
      if frac > integrality_eps && frac > !best_frac +. integrality_eps then begin
        best := j;
        best_frac := frac
      end)
    x;
  if !best < 0 then None else Some !best

(* --- binary heap keyed on (bound, insertion seq) ------------------- *)

module Heap = struct
  type 'a t = {
    mutable data : 'a array;
    mutable len : int;
    lt : 'a -> 'a -> bool;
  }

  let create lt = { data = [||]; len = 0; lt }

  let push h v =
    if h.len = Array.length h.data then begin
      let cap = max 16 (2 * h.len) in
      let data = Array.make cap v in
      Array.blit h.data 0 data 0 h.len;
      h.data <- data
    end;
    h.data.(h.len) <- v;
    h.len <- h.len + 1;
    let i = ref (h.len - 1) in
    while !i > 0 && h.lt h.data.(!i) h.data.((!i - 1) / 2) do
      let p = (!i - 1) / 2 in
      let tmp = h.data.(p) in
      h.data.(p) <- h.data.(!i);
      h.data.(!i) <- tmp;
      i := p
    done

  let pop h =
    if h.len = 0 then None
    else begin
      let top = h.data.(0) in
      h.len <- h.len - 1;
      if h.len > 0 then begin
        h.data.(0) <- h.data.(h.len);
        let i = ref 0 in
        let continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let smallest = ref !i in
          if l < h.len && h.lt h.data.(l) h.data.(!smallest) then smallest := l;
          if r < h.len && h.lt h.data.(r) h.data.(!smallest) then smallest := r;
          if !smallest = !i then continue := false
          else begin
            let tmp = h.data.(!smallest) in
            h.data.(!smallest) <- h.data.(!i);
            h.data.(!i) <- tmp;
            i := !smallest
          end
        done
      end;
      Some top
    end

  let peek h = if h.len = 0 then None else Some h.data.(0)
end

(* --- unit propagation ---------------------------------------------- *)

type index = {
  ix_constrs : Lp.Problem.constr array;
  ix_occurs : int array array;  (* var -> ids of constraints mentioning it *)
  ix_inqueue : bool array;      (* worklist scratch, clean between calls *)
  ix_queue : int Queue.t;
}

let build_index (t : Model.t) =
  let ix_constrs = Array.of_list t.Model.constraints in
  let occurs = Array.make (max 1 t.Model.num_vars) [] in
  Array.iteri
    (fun ci (c : Lp.Problem.constr) ->
      List.iter (fun (j, _) -> occurs.(j) <- ci :: occurs.(j)) c.Lp.Problem.coeffs)
    ix_constrs;
  { ix_constrs;
    ix_occurs = Array.map (fun l -> Array.of_list (List.rev l)) occurs;
    ix_inqueue = Array.make (Array.length ix_constrs) false;
    ix_queue = Queue.create () }

(* Fix implied values before paying for an LP solve: over binary
   variables every constraint bounds its own achievable lhs, so a free
   variable whose one value already busts the constraint is forced to
   the other (e.g. [x_i + x_j <= 1] with [x_i = 1] forces [x_j = 0]).
   Runs to fixpoint on a worklist seeded from [seeds] ([None] = every
   constraint, as at a search node), so probing a single variable only
   touches its propagation cone.  Mutates [fixed] and returns the
   wipeout flag (some constraint cannot be satisfied at all) plus the
   trail of fixed variables (undoing it restores [fixed]). *)
let propagate idx fixed seeds =
  let eps = 1e-9 in
  let enqueue ci =
    if not idx.ix_inqueue.(ci) then begin
      idx.ix_inqueue.(ci) <- true;
      Queue.add ci idx.ix_queue
    end
  in
  (match seeds with
   | None -> Array.iteri (fun ci _ -> enqueue ci) idx.ix_constrs
   | Some js -> List.iter (fun j -> Array.iter enqueue idx.ix_occurs.(j)) js);
  let trail = ref [] and wiped = ref false in
  let fix j v =
    fixed.(j) <- v;
    trail := j :: !trail;
    Array.iter enqueue idx.ix_occurs.(j)
  in
  while (not !wiped) && not (Queue.is_empty idx.ix_queue) do
    let ci = Queue.pop idx.ix_queue in
    idx.ix_inqueue.(ci) <- false;
    let c = idx.ix_constrs.(ci) in
    let min_lhs = ref 0.0 and max_lhs = ref 0.0 in
    List.iter
      (fun (j, a) ->
        match fixed.(j) with
        | -1 ->
          if a < 0.0 then min_lhs := !min_lhs +. a
          else max_lhs := !max_lhs +. a
        | v ->
          let contrib = a *. float_of_int v in
          min_lhs := !min_lhs +. contrib;
          max_lhs := !max_lhs +. contrib)
      c.Lp.Problem.coeffs;
    let rhs = c.Lp.Problem.rhs in
    let le = c.Lp.Problem.relation <> Lp.Problem.Ge in
    let ge = c.Lp.Problem.relation <> Lp.Problem.Le in
    if le && !min_lhs > rhs +. eps then wiped := true
    else if ge && !max_lhs < rhs -. eps then wiped := true
    else
      List.iter
        (fun (j, a) ->
          if fixed.(j) = -1 && Float.abs a > eps then begin
            if le then begin
              if a > 0.0 && !min_lhs +. a > rhs +. eps then fix j 0
              else if a < 0.0 && !min_lhs -. a > rhs +. eps then fix j 1
            end;
            if ge && fixed.(j) = -1 then begin
              if a > 0.0 && !max_lhs -. a < rhs -. eps then fix j 1
              else if a < 0.0 && !max_lhs +. a < rhs -. eps then fix j 0
            end
          end)
        c.Lp.Problem.coeffs
  done;
  if !wiped then begin
    Queue.iter (fun ci -> idx.ix_inqueue.(ci) <- false) idx.ix_queue;
    Queue.clear idx.ix_queue
  end;
  (!wiped, !trail)

(* --- root presolve: propagation + probing --------------------------- *)

exception Infeasible_model

(* Root presolve: propagate to fixpoint, then *probe* — tentatively fix
   each free variable both ways; a wipeout on one side proves the other
   value (a self-loop flip-flop's [G] probes to 1, say).  Every proved
   fixing propagates and the passes repeat until no probe fires.
   Returns the root fixing vector and the fixing count, or [None] when
   the model is infeasible. *)
let presolve (t : Model.t) =
  let n = t.Model.num_vars in
  let fixed = Array.make n (-1) in
  if n = 0 || t.Model.constraints = [] then Some (fixed, 0)
  else begin
    let idx = build_index t in
    try
      let count = ref 0 in
      let run seeds =
        let wiped, trail = propagate idx fixed seeds in
        if wiped then raise Infeasible_model;
        count := !count + List.length trail
      in
      run None;
      let blocked j v =
        fixed.(j) <- v;
        let wiped, trail = propagate idx fixed (Some [j]) in
        List.iter (fun k -> fixed.(k) <- -1) trail;
        fixed.(j) <- -1;
        wiped
      in
      let changed = ref true in
      while !changed do
        changed := false;
        for j = 0 to n - 1 do
          if fixed.(j) = -1 then begin
            let b0 = blocked j 0 in
            let b1 = blocked j 1 in
            if b0 && b1 then raise Infeasible_model
            else if b0 || b1 then begin
              fixed.(j) <- (if b0 then 1 else 0);
              incr count;
              run (Some [j]);
              changed := true
            end
          end
        done
      done;
      Some (fixed, !count)
    with Infeasible_model -> None
  end

(* --- single-component best-first branch and bound ------------------ *)

type comp_outcome = {
  co_solution : Model.solution option;  (* None = component infeasible *)
  co_nodes : int;
  co_lps : int;
  co_props : int;
  co_depth : int;        (* deepest branching depth explored *)
}

type node = {
  nd_fixed : int array;  (* -1 free, 0, 1 *)
  nd_bound : float;      (* parent LP bound: optimistic for the subtree *)
  nd_seq : int;          (* insertion order, the deterministic tie-break *)
  nd_depth : int;        (* branching decisions from the root *)
}

let solve_component ~node_budget ~brute_max (t : Model.t) =
  let n = t.Model.num_vars in
  if n <= brute_max then
    { co_solution = Brute_force.solve t; co_nodes = 0; co_lps = 0;
      co_props = 0; co_depth = 0 }
  else begin
    let idx = build_index t in
    let minimize = t.Model.sense = Lp.Problem.Minimize in
    let better a b = if minimize then a < b -. 1e-9 else a > b +. 1e-9 in
    (* objective-integrality cutoff: with an all-integer objective every
       0/1 solution scores an integer, so LP bounds round towards the
       objective — a node at 9.33 cannot beat an incumbent of 10 *)
    let obj_integral =
      List.for_all
        (fun (_, a) -> Float.abs (a -. Float.round a) <= 1e-9)
        t.Model.objective
    in
    let tighten bound =
      if not obj_integral then bound
      else if minimize then Float.ceil (bound -. integrality_eps)
      else Float.floor (bound +. integrality_eps)
    in
    let bound_can_beat bound incumbent = better bound incumbent in
    let incumbent = ref None in
    let try_update_incumbent values =
      if Model.feasible t values then begin
        let obj = Model.objective_value t values in
        match !incumbent with
        | None -> incumbent := Some (Array.copy values, obj)
        | Some (_, cur) ->
          if better obj cur then incumbent := Some (Array.copy values, obj)
      end
    in
    let nodes = ref 0 and lps = ref 0 and props = ref 0 in
    let max_depth = ref 0 in
    let exhausted = ref false in
    let open_bound = ref None in
    let seq = ref 0 in
    let heap =
      Heap.create (fun a b ->
          if minimize then
            a.nd_bound < b.nd_bound
            || (a.nd_bound = b.nd_bound && a.nd_seq < b.nd_seq)
          else
            a.nd_bound > b.nd_bound
            || (a.nd_bound = b.nd_bound && a.nd_seq < b.nd_seq))
    in
    let push fixed bound depth =
      Heap.push heap
        { nd_fixed = fixed; nd_bound = bound; nd_seq = !seq; nd_depth = depth };
      incr seq
    in
    push (Array.make n (-1)) (if minimize then neg_infinity else infinity) 0;
    (* Pop the globally best node, then *plunge*: dive depth-first from
       it, fixing the most fractional variable to its rounded value and
       stacking the sibling.  Dead ends (infeasible, pruned, integral)
       backtrack onto the deepest stacked sibling first — pure
       best-first on a weak bound balloons the frontier before it ever
       reaches a leaf, and aborting a dive on its first dead end is no
       better.  Each plunge explores at most [plunge_cap] nodes; the
       siblings it leaves behind flush to the heap, which keeps the
       global exploration order — and the exhaustion bound —
       best-first. *)
    let plunge_cap = (4 * n) + 16 in
    let frontier_bound locals current =
      let pick a b =
        match a with
        | None -> Some b
        | Some a -> Some (if minimize then Float.min a b else Float.max a b)
      in
      let acc = Option.map (fun nd -> nd.nd_bound) (Heap.peek heap) in
      let acc = List.fold_left (fun acc nd -> pick acc nd.nd_bound) acc locals in
      let acc = match current with None -> acc | Some b -> pick acc b in
      acc
    in
    let stop = ref false in
    while not !stop do
      match Heap.pop heap with
      | None -> stop := true
      | Some nd ->
        (match !incumbent with
         | Some (_, cur) when not (bound_can_beat nd.nd_bound cur) ->
           (* best-first: nothing left in the queue can beat it either *)
           stop := true
         | _ ->
           if !nodes >= node_budget then begin
             exhausted := true;
             open_bound := frontier_bound [] (Some nd.nd_bound);
             stop := true
           end
           else begin
             let locals = ref [nd] in
             let plunged = ref 0 in
             while !locals <> [] && not !stop do
               if !plunged >= plunge_cap then begin
                 (* flush what the plunge did not consume *)
                 List.iter
                   (fun nd -> push nd.nd_fixed nd.nd_bound nd.nd_depth)
                   !locals;
                 locals := []
               end
               else begin
                 match !locals with
                 | [] -> ()
                 | cur :: rest ->
                   locals := rest;
                   let skip =
                     match !incumbent with
                     | Some (_, best) ->
                       not (bound_can_beat cur.nd_bound best)
                     | None -> false
                   in
                   if not skip then begin
                     if !nodes >= node_budget then begin
                       exhausted := true;
                       open_bound :=
                         frontier_bound !locals (Some cur.nd_bound);
                       locals := [];
                       stop := true
                     end
                     else begin
                       let fixed = Array.copy cur.nd_fixed in
                       let diving = ref true in
                       let dive_bound = ref cur.nd_bound in
                       let ddepth = ref cur.nd_depth in
                       while !diving do
                         if !nodes >= node_budget then begin
                           exhausted := true;
                           open_bound :=
                             frontier_bound !locals (Some !dive_bound);
                           diving := false;
                           locals := [];
                           stop := true
                         end
                         else begin
                           incr nodes;
                           incr plunged;
                           if !ddepth > !max_depth then max_depth := !ddepth;
                           match propagate idx fixed None with
                           | true, _ -> diving := false  (* wipe-out *)
                           | false, trail ->
                             props := !props + List.length trail;
                             (* genuine substitution: fixed variables
                                leave the tableau entirely, and rows
                                they satisfied leave with them *)
                             (match Model.reduce t ~fixed with
                              | None -> diving := false  (* infeasible *)
                              | Some (rm, _, offset)
                                when rm.Model.num_vars = 0 ->
                                (* every variable fixed and every row
                                   checked by [reduce]: a feasible leaf *)
                                dive_bound := offset;
                                try_update_incumbent
                                  (Array.map (fun f -> f = 1) fixed);
                                diving := false
                              | Some (rm, old_of_new, offset) ->
                                incr lps;
                                (match
                                   Lp.Simplex.solve (Model.relaxation rm)
                                 with
                                 | Lp.Simplex.Infeasible -> diving := false
                                 | Lp.Simplex.Unbounded ->
                                   (* binary relaxations keep x <= 1 *)
                                   assert false
                                 | Lp.Simplex.Optimal { x; objective } ->
                                   let bound = tighten (objective +. offset) in
                                   dive_bound := bound;
                                   let full = Array.make n 0.0 in
                                   Array.iteri
                                     (fun j f ->
                                       if f >= 0 then
                                         full.(j) <- float_of_int f)
                                     fixed;
                                   Array.iteri
                                     (fun k v -> full.(old_of_new.(k)) <- v)
                                     x;
                                   let prune =
                                     match !incumbent with
                                     | None -> false
                                     | Some (_, best) ->
                                       not (bound_can_beat bound best)
                                   in
                                   if prune then diving := false
                                   else if is_integral full then begin
                                     try_update_incumbent
                                       (Array.map
                                          (fun v -> Float.round v >= 0.5)
                                          full);
                                     diving := false
                                   end
                                   else begin
                                     if !incumbent = None then begin
                                       (* greedy rounding candidates seed
                                          the incumbent so the first real
                                          bounds already prune *)
                                       try_update_incumbent
                                         (Array.map (fun v -> v >= 0.5) full);
                                       try_update_incumbent
                                         (Array.make n false);
                                       try_update_incumbent
                                         (Array.make n true)
                                     end;
                                     match most_fractional full with
                                     | None -> diving := false
                                     | Some j ->
                                       let first =
                                         if full.(j) >= 0.5 then 1 else 0
                                       in
                                       let sibling = Array.copy fixed in
                                       sibling.(j) <- 1 - first;
                                       locals :=
                                         { nd_fixed = sibling;
                                           nd_bound = bound;
                                           nd_seq = !seq;
                                           nd_depth = !ddepth + 1 }
                                         :: !locals;
                                       incr seq;
                                       fixed.(j) <- first;
                                       incr ddepth
                                   end))
                         end
                       done
                     end
                   end
               end
             done
           end)
    done;
    let co_solution =
      match !incumbent with
      | None -> None
      | Some (values, objective) ->
        let optimal = not !exhausted in
        let best_bound =
          if optimal then objective
          else
            (* the most optimistic open node at exhaustion — the honest
               dual bound, not the root relaxation *)
            match !open_bound, Heap.peek heap with
            | Some b, _ -> b
            | None, Some nd -> nd.nd_bound
            | None, None -> objective
        in
        Some { Model.values; objective; optimal; best_bound }
    in
    { co_solution; co_nodes = !nodes; co_lps = !lps; co_props = !props;
      co_depth = !max_depth }
  end

(* --- decomposed top level ------------------------------------------- *)

let solve ?(node_budget = 200_000) ?(brute_max = 10) (t : Model.t) =
  Obs.span "ilp.solve" @@ fun () ->
  match presolve t with
  | None -> None
  | Some (root_fixed, root_props) ->
    (match Model.reduce t ~fixed:root_fixed with
     | None -> None
     | Some (rt, old_of_new, offset) ->
       (* presolve fixings are implied, so they are part of every
          feasible solution and contribute exactly [offset] *)
       let values = Array.init t.Model.num_vars (fun j -> root_fixed.(j) = 1) in
       if rt.Model.num_vars = 0 then begin
         Obs.count "ilp.propagations" root_props;
         Some
           ( { Model.values;
               objective = offset;
               optimal = true;
               best_bound = offset },
             { nodes_explored = 0;
               lp_solves = 0;
               propagations = root_props;
               components = 0 } )
       end
       else
         match Model.decompose rt with
         | None -> None
         | Some comps ->
           Obs.count "ilp.components" (List.length comps);
           Obs.count "ilp.propagations" root_props;
           (* each component gets the full budget, so a component's
              search never depends on how its siblings went *)
           let outcomes =
             List.map
               (fun (c : Model.component) ->
                 let o =
                   solve_component ~node_budget ~brute_max c.Model.comp_model
                 in
                 Obs.count "ilp.nodes" o.co_nodes;
                 Obs.count "ilp.lp_solves" o.co_lps;
                 Obs.count "ilp.propagations" o.co_props;
                 Obs.hist "ilp.component_vars"
                   (float_of_int c.Model.comp_model.Model.num_vars);
                 Obs.hist "ilp.component_nodes" (float_of_int o.co_nodes);
                 Obs.hist "ilp.component_depth" (float_of_int o.co_depth);
                 o)
               comps
           in
           let infeasible =
             List.exists (fun o -> o.co_solution = None) outcomes
           in
           if infeasible then None
           else begin
             let objective = ref offset and best_bound = ref offset in
             let optimal = ref true in
             List.iter2
               (fun (c : Model.component) o ->
                 match o.co_solution with
                 | None -> assert false
                 | Some s ->
                   Array.iteri
                     (fun k rj ->
                       values.(old_of_new.(rj)) <- s.Model.values.(k))
                     c.Model.comp_vars;
                   objective := !objective +. s.Model.objective;
                   best_bound := !best_bound +. s.Model.best_bound;
                   if not s.Model.optimal then optimal := false)
               comps outcomes;
             let stats =
               { nodes_explored =
                   List.fold_left (fun acc o -> acc + o.co_nodes) 0 outcomes;
                 lp_solves =
                   List.fold_left (fun acc o -> acc + o.co_lps) 0 outcomes;
                 propagations =
                   root_props
                   + List.fold_left (fun acc o -> acc + o.co_props) 0 outcomes;
                 components = List.length comps }
             in
             Some
               ( { Model.values;
                   objective = !objective;
                   optimal = !optimal;
                   best_bound = !best_bound },
                 stats )
           end)
