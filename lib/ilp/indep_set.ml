type graph = {
  n : int;
  adj : int list array;
}

type result = {
  chosen : bool array;
  size : int;
  optimal : bool;
  upper_bound : int;
  nodes_explored : int;
  components : int;
}

let graph_of_edges ~n edges =
  let seen = Hashtbl.create (2 * List.length edges) in
  let adj = Array.make n [] in
  List.iter
    (fun (u, v) ->
      if u <> v && not (Hashtbl.mem seen (u, v)) then begin
        Hashtbl.add seen (u, v) ();
        Hashtbl.add seen (v, u) ();
        adj.(u) <- v :: adj.(u);
        adj.(v) <- u :: adj.(v)
      end)
    edges;
  { n; adj }

let greedy g =
  (* repeatedly pick the live vertex of minimum live degree *)
  let alive = Array.make g.n true in
  let degree = Array.map List.length g.adj in
  let chosen = Array.make g.n false in
  let remaining = ref g.n in
  while !remaining > 0 do
    let best = ref (-1) in
    for v = 0 to g.n - 1 do
      if alive.(v) && (!best < 0 || degree.(v) < degree.(!best)) then best := v
    done;
    let v = !best in
    chosen.(v) <- true;
    alive.(v) <- false;
    decr remaining;
    List.iter
      (fun w ->
        if alive.(w) then begin
          alive.(w) <- false;
          decr remaining;
          List.iter (fun z -> if alive.(z) then degree.(z) <- degree.(z) - 1) g.adj.(w)
        end)
      g.adj.(v)
  done;
  chosen

(* Connected components over the undirected graph. *)
let components g =
  let comp = Array.make g.n (-1) in
  let count = ref 0 in
  for s = 0 to g.n - 1 do
    if comp.(s) < 0 then begin
      let id = !count in
      incr count;
      let stack = ref [s] in
      comp.(s) <- id;
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | v :: rest ->
          stack := rest;
          List.iter
            (fun w ->
              if comp.(w) < 0 then begin
                comp.(w) <- id;
                stack := w :: !stack
              end)
            g.adj.(v)
      done
    end
  done;
  (comp, !count)

(* Exact B&B for one component, on a subgraph given by [members].
   Mutable "alive" sets are simulated with arrays + undo trails. *)
type search = {
  g : graph;
  alive : bool array;
  deg : int array;
  mutable budget : int;
  mutable explored : int;
  mutable best_size : int;
  mutable best_set : int list;
  mutable exhausted : bool;
}

(* greedy maximal matching size among live vertices; UB = live - matching *)
let matching_bound s members =
  let matched = Hashtbl.create 64 in
  let m = ref 0 in
  let live = ref 0 in
  List.iter
    (fun v ->
      if s.alive.(v) then begin
        incr live;
        if not (Hashtbl.mem matched v) then
          let rec try_match = function
            | [] -> ()
            | w :: rest ->
              if s.alive.(w) && not (Hashtbl.mem matched w) && w <> v then begin
                Hashtbl.add matched v ();
                Hashtbl.add matched w ();
                incr m
              end
              else try_match rest
          in
          try_match s.g.adj.(v)
      end)
    members;
  !live - !m

let remove s v trail =
  s.alive.(v) <- false;
  trail := v :: !trail;
  List.iter (fun w -> if s.alive.(w) then s.deg.(w) <- s.deg.(w) - 1) s.g.adj.(v)

let undo s trail_snapshot trail =
  while !trail != trail_snapshot do
    match !trail with
    | [] -> assert false
    | v :: rest ->
      s.alive.(v) <- true;
      List.iter (fun w -> if s.alive.(w) then s.deg.(w) <- s.deg.(w) + 1) s.g.adj.(v);
      trail := rest
  done

let rec search_component s members current current_size trail =
  if s.explored >= s.budget then s.exhausted <- true
  else begin
    s.explored <- s.explored + 1;
    (* reductions: repeatedly take degree-0 and degree-1 vertices *)
    let trail_snapshot = !trail in
    let current = ref current and current_size = ref current_size in
    let progress = ref true in
    while !progress do
      progress := false;
      List.iter
        (fun v ->
          if s.alive.(v) && s.deg.(v) <= 1 then begin
            (* include v; drop its (at most one) live neighbour *)
            current := v :: !current;
            incr current_size;
            let neighbours = List.filter (fun w -> s.alive.(w)) s.g.adj.(v) in
            remove s v trail;
            List.iter (fun w -> remove s w trail) neighbours;
            progress := true
          end)
        members
    done;
    let live = List.filter (fun v -> s.alive.(v)) members in
    (match live with
     | [] ->
       if !current_size > s.best_size then begin
         s.best_size <- !current_size;
         s.best_set <- !current
       end
     | _ :: _ ->
       let ub = !current_size + matching_bound s live in
       if ub > s.best_size then begin
         (* branch on a max-degree vertex *)
         let v =
           List.fold_left
             (fun best v -> if s.deg.(v) > s.deg.(best) then v else best)
             (List.hd live) live
         in
         (* branch 1: include v *)
         let snap = !trail in
         let neighbours = List.filter (fun w -> s.alive.(w)) s.g.adj.(v) in
         remove s v trail;
         List.iter (fun w -> remove s w trail) neighbours;
         search_component s live (v :: !current) (!current_size + 1) trail;
         undo s snap trail;
         (* branch 2: exclude v *)
         let snap2 = !trail in
         remove s v trail;
         search_component s live !current !current_size trail;
         undo s snap2 trail
       end);
    undo s trail_snapshot trail
  end

(* --- bipartite machinery --- *)

let two_colour g members =
  let colour = Array.make g.n (-1) in
  let ok = ref true in
  List.iter
    (fun s0 ->
      if colour.(s0) < 0 then begin
        colour.(s0) <- 0;
        let q = Queue.create () in
        Queue.add s0 q;
        while not (Queue.is_empty q) do
          let v = Queue.pop q in
          List.iter
            (fun w ->
              if colour.(w) < 0 then begin
                colour.(w) <- 1 - colour.(v);
                Queue.add w q
              end
              else if colour.(w) = colour.(v) then ok := false)
            g.adj.(v)
        done
      end)
    members;
  if !ok then Some (Array.map (fun c -> c = 1) colour) else None

(* Simple augmenting-path maximum matching on the induced subgraph. *)
let max_matching g members =
  let in_comp = Array.make g.n false in
  List.iter (fun v -> in_comp.(v) <- true) members;
  let mate = Array.make g.n (-1) in
  let visited = Array.make g.n 0 in
  let stamp = ref 0 in
  let rec augment v =
    let rec try_neighbours = function
      | [] -> false
      | w :: rest ->
        if in_comp.(w) && visited.(w) <> !stamp then begin
          visited.(w) <- !stamp;
          if mate.(w) < 0 || augment mate.(w) then begin
            mate.(w) <- v;
            mate.(v) <- w;
            true
          end
          else try_neighbours rest
        end
        else try_neighbours rest
    in
    try_neighbours g.adj.(v)
  in
  List.iter
    (fun v ->
      if mate.(v) < 0 then begin
        incr stamp;
        ignore (augment v)
      end)
    members;
  mate

(* Koenig: minimum vertex cover = (L \\ Z) union (R inter Z) where Z is the
   set reachable from unmatched L vertices by alternating paths.  The MIS
   is the complement within the component. *)
let bipartite_mis g members side =
  let mate = max_matching g members in
  let in_comp = Array.make g.n false in
  List.iter (fun v -> in_comp.(v) <- true) members;
  let z = Array.make g.n false in
  let q = Queue.create () in
  List.iter
    (fun v ->
      if (not side.(v)) && mate.(v) < 0 then begin
        z.(v) <- true;
        Queue.add v q
      end)
    members;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    if not side.(v) then
      (* free edges L -> R *)
      List.iter
        (fun w ->
          if in_comp.(w) && (not z.(w)) && mate.(v) <> w then begin
            z.(w) <- true;
            Queue.add w q
          end)
        g.adj.(v)
    else if mate.(v) >= 0 && not z.(mate.(v)) then begin
      (* matched edge R -> L *)
      z.(mate.(v)) <- true;
      Queue.add mate.(v) q
    end
  done;
  (* complement of the cover: L vertices in Z, R vertices outside Z *)
  List.filter (fun v -> if side.(v) then not z.(v) else z.(v)) members

(* (1,2)-swap local search, at most four rounds.  tight.(v) = number of
   chosen neighbours. *)
let local_search g set =
  let chosen = Array.make g.n false in
  List.iter (fun v -> chosen.(v) <- true) set;
  let tight = Array.make g.n 0 in
  let members = ref set in
  let recompute_tight () =
    Array.fill tight 0 g.n 0;
    Array.iteri
      (fun v c ->
        if c then List.iter (fun w -> tight.(w) <- tight.(w) + 1) g.adj.(v))
      chosen
  in
  recompute_tight ();
  (* candidate pool: every vertex adjacent to the current set or free *)
  let vertices = List.init g.n Fun.id in
  let changed = ref true in
  let round = ref 0 in
  while !changed && !round < 4 do
    incr round;
    changed := false;
    (* additions *)
    List.iter
      (fun v ->
        if (not chosen.(v)) && tight.(v) = 0 then begin
          chosen.(v) <- true;
          members := v :: !members;
          List.iter (fun w -> tight.(w) <- tight.(w) + 1) g.adj.(v);
          changed := true
        end)
      vertices;
    (* (1,2)-swaps: drop u, add two non-adjacent neighbours only tight
       to u *)
    List.iter
      (fun u ->
        if chosen.(u) then begin
          let cands =
            List.filter (fun w -> (not chosen.(w)) && tight.(w) = 1) g.adj.(u)
          in
          let rec find_pair = function
            | [] -> None
            | w1 :: rest ->
              (match
                 List.find_opt
                   (fun w2 -> not (List.exists (( = ) w2) g.adj.(w1)))
                   rest
               with
               | Some w2 -> Some (w1, w2)
               | None -> find_pair rest)
          in
          match find_pair cands with
          | None -> ()
          | Some (w1, w2) ->
            chosen.(u) <- false;
            List.iter (fun w -> tight.(w) <- tight.(w) - 1) g.adj.(u);
            chosen.(w1) <- true;
            List.iter (fun w -> tight.(w) <- tight.(w) + 1) g.adj.(w1);
            chosen.(w2) <- true;
            List.iter (fun w -> tight.(w) <- tight.(w) + 1) g.adj.(w2);
            changed := true
        end)
      vertices;
    members := List.filter (fun v -> chosen.(v)) !members
  done;
  List.filter (fun v -> chosen.(v)) (List.init g.n Fun.id)

(* Independent set seeded from a (possibly conflicted) 2-colouring: take
   one colour class greedily.  On layered FF graphs this captures the
   "alternate pipeline ranks" structure that min-degree greedy misses. *)
let colour_class_set g members side_value =
  let colour = Array.make g.n (-1) in
  List.iter
    (fun s0 ->
      if colour.(s0) < 0 then begin
        colour.(s0) <- 0;
        let q = Queue.create () in
        Queue.add s0 q;
        while not (Queue.is_empty q) do
          let v = Queue.pop q in
          List.iter
            (fun w ->
              if colour.(w) < 0 then begin
                colour.(w) <- 1 - colour.(v);
                Queue.add w q
              end)
            g.adj.(v)
        done
      end)
    members;
  let chosen = Array.make g.n false in
  let set = ref [] in
  List.iter
    (fun v ->
      if colour.(v) = side_value
      && not (List.exists (fun w -> chosen.(w)) g.adj.(v))
      then begin
        chosen.(v) <- true;
        set := v :: !set
      end)
    members;
  (* grow to a maximal set with the other class's free vertices *)
  List.iter
    (fun v ->
      if (not chosen.(v)) && not (List.exists (fun w -> chosen.(w)) g.adj.(v))
      then begin
        chosen.(v) <- true;
        set := v :: !set
      end)
    members;
  !set

let exact_component_threshold = 400

let solve ?(node_budget = 2_000_000) g =
  let comp, n_comp = components g in
  let members = Array.make n_comp [] in
  for v = g.n - 1 downto 0 do
    members.(comp.(v)) <- v :: members.(comp.(v))
  done;
  let warm = greedy g in
  let ordered =
    List.sort
      (fun a b -> compare (List.length a) (List.length b))
      (Array.to_list members)
    |> List.filter (fun mem -> mem <> [])
  in
  (* Solves one component; [g], [comp] and [warm] are read but never
     written.  Every component receives the full [node_budget], so its
     search never depends on how its siblings went.
     Returns (set, optimal, upper bound, nodes explored). *)
  let solve_component mem =
    let size = List.length mem in
    let result =
      if size <= exact_component_threshold then begin
      (* exact branch and bound *)
      let s = {
        g;
        alive = Array.make g.n false;
        deg = Array.make g.n 0;
        budget = max 1 node_budget;
        explored = 0;
        best_size = 0;
        best_set = [];
        exhausted = false;
      } in
      List.iter (fun v -> s.alive.(v) <- true) mem;
      List.iter
        (fun v ->
          s.deg.(v) <- List.length (List.filter (fun w -> s.alive.(w)) g.adj.(v)))
        mem;
      let warm_set = List.filter (fun v -> warm.(v)) mem in
      s.best_size <- List.length warm_set;
      s.best_set <- warm_set;
      let root_ub = matching_bound s mem in
      let trail = ref [] in
      search_component s mem [] 0 trail;
      if s.exhausted then (s.best_set, false, root_ub, s.explored)
      else (s.best_set, true, s.best_size, s.explored)
      end
      else
        match two_colour g mem with
        | Some side ->
          let set = bipartite_mis g mem side in
          (set, true, List.length set, 0)
        | None ->
          let cid = match mem with v :: _ -> comp.(v) | [] -> -1 in
          let restrict set = List.filter (fun v -> comp.(v) = cid) set in
          let candidates =
            [ List.filter (fun v -> warm.(v)) mem;
              colour_class_set g mem 0;
              colour_class_set g mem 1 ]
          in
          let improved =
            List.fold_left
              (fun best cand ->
                let improved = restrict (local_search g cand) in
                if List.length improved > List.length best then improved
                else best)
              [] candidates
          in
          let s_dummy = {
            g; alive = Array.make g.n false; deg = Array.make g.n 0;
            budget = 0; explored = 0; best_size = 0; best_set = [];
            exhausted = false;
          } in
          List.iter (fun v -> s_dummy.alive.(v) <- true) mem;
          let ub = matching_bound s_dummy mem in
          (improved, List.length improved = ub, ub, 0)
    in
    (* per-component search-shape distributions *)
    let _, _, _, nodes = result in
    Obs.hist "mis.component_vars" (float_of_int size);
    Obs.hist "mis.component_nodes" (float_of_int nodes);
    result
  in
  let outcomes = List.map solve_component ordered in
  let chosen = Array.make g.n false in
  let total = ref 0 and ub_total = ref 0 and explored = ref 0 in
  let all_optimal = ref true in
  List.iter
    (fun (set, optimal, ub, nodes) ->
      if not optimal then all_optimal := false;
      ub_total := !ub_total + ub;
      total := !total + List.length set;
      explored := !explored + nodes;
      List.iter (fun v -> chosen.(v) <- true) set)
    outcomes;
  { chosen; size = !total; optimal = !all_optimal; upper_bound = !ub_total;
    nodes_explored = !explored; components = n_comp }
