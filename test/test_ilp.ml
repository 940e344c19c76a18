(* Tests for the binary-program solvers: branch and bound against brute
   force, and the independent-set solver's exact paths. *)

let check = Alcotest.check

module P = Lp.Problem

let random_model rand =
  let open QCheck.Gen in
  let n = 2 + int_bound 7 rand in
  let m = 1 + int_bound 5 rand in
  let names = Array.init n (Printf.sprintf "x%d") in
  let constraints =
    List.init m (fun _ ->
        let coeffs =
          List.filter_map
            (fun j ->
              if bool rand then Some (j, float_of_int (int_range (-3) 3 rand))
              else None)
            (List.init n Fun.id)
        in
        let rel = match int_bound 2 rand with
          | 0 -> P.Le
          | 1 -> P.Ge
          | _ -> P.Eq
        in
        P.constr coeffs rel (float_of_int (int_range (-2) 4 rand)))
  in
  let objective = List.init n (fun j -> (j, float_of_int (1 + int_bound 4 rand))) in
  let sense = if bool rand then P.Maximize else P.Minimize in
  Ilp.Model.make ~var_names:names ~sense ~objective constraints

let prop_bb_matches_brute_force =
  QCheck.Test.make ~name:"branch&bound = brute force" ~count:120
    (QCheck.make random_model)
    (fun m ->
      let bf = Ilp.Brute_force.solve m in
      let bb = Ilp.Branch_bound.solve m in
      match bf, bb with
      | None, None -> true
      | Some s1, Some (s2, _) ->
        Float.abs (s1.Ilp.Model.objective -. s2.Ilp.Model.objective) < 1e-6
        && Ilp.Model.feasible m s2.Ilp.Model.values
      | Some _, None | None, Some _ -> false)

(* A model built from disjoint variable blocks: constraints never cross
   blocks, so the incidence graph has one component per block (or more)
   and the decomposed solver must still find the exhaustive optimum
   (at most 4 blocks of at most 4 variables, so brute force stays
   cheap). *)
let random_blocks_model rand =
  let open QCheck.Gen in
  let n_blocks = 2 + int_bound 2 rand in
  let sense = if bool rand then P.Maximize else P.Minimize in
  let blocks =
    List.init n_blocks (fun _ ->
        let n = 2 + int_bound 2 rand in
        let m = 1 + int_bound 2 rand in
        let constraints =
          List.init m (fun _ ->
              let coeffs =
                List.filter_map
                  (fun j ->
                    if bool rand then
                      Some (j, float_of_int (int_range (-3) 3 rand))
                    else None)
                  (List.init n Fun.id)
              in
              let rel = match int_bound 2 rand with
                | 0 -> P.Le
                | 1 -> P.Ge
                | _ -> P.Eq
              in
              P.constr coeffs rel (float_of_int (int_range (-2) 4 rand)))
        in
        let objective =
          List.init n (fun j -> (j, float_of_int (1 + int_bound 4 rand)))
        in
        (n, constraints, objective))
  in
  let total = List.fold_left (fun acc (n, _, _) -> acc + n) 0 blocks in
  let names = Array.init total (Printf.sprintf "x%d") in
  let shift off = List.map (fun (j, a) -> (j + off, a)) in
  let _, constraints, objective =
    List.fold_left
      (fun (off, cs, os) (n, bc, bo) ->
        ( off + n,
          cs @ List.map (fun c -> { c with P.coeffs = shift off c.P.coeffs }) bc,
          os @ shift off bo ))
      (0, [], []) blocks
  in
  Ilp.Model.make ~var_names:names ~sense ~objective constraints

let prop_decomposed_matches_brute_force =
  QCheck.Test.make ~name:"decomposed = brute force on multi-component models"
    ~count:120
    (QCheck.make random_blocks_model)
    (fun m ->
      let dec = Ilp.Branch_bound.solve m in
      let bf = Ilp.Brute_force.solve m in
      match dec, bf with
      | None, None -> true
      | Some (s1, _), Some s2 ->
        Float.abs (s1.Ilp.Model.objective -. s2.Ilp.Model.objective) < 1e-6
        && Ilp.Model.feasible m s1.Ilp.Model.values
        && s1.Ilp.Model.optimal
      | Some _, None | None, Some _ -> false)

let prop_presolve_sound =
  (* probing only fixes a variable when the opposite value propagates to
     a wipeout, so every feasible assignment must agree with the fixing *)
  QCheck.Test.make ~name:"presolve fixings hold in every feasible point"
    ~count:120
    (QCheck.make random_model)
    (fun m ->
      let n = m.Ilp.Model.num_vars in
      match Ilp.Branch_bound.presolve m with
      | None -> Ilp.Brute_force.solve m = None
      | Some (fixed, _) ->
        let ok = ref true in
        for mask = 0 to (1 lsl n) - 1 do
          let values = Array.init n (fun j -> (mask lsr j) land 1 = 1) in
          if Ilp.Model.feasible m values then
            Array.iteri
              (fun j f ->
                if f >= 0 && values.(j) <> (f = 1) then ok := false)
              fixed
        done;
        !ok)

let random_graph ?(max_n = 12) ?(edge_pct = 30) rand =
  let open QCheck.Gen in
  let n = 2 + int_bound (max_n - 2) rand in
  let edges =
    List.concat
      (List.init n (fun u ->
           List.filter_map
             (fun v ->
               if v > u && int_bound 99 rand < edge_pct then Some (u, v) else None)
             (List.init n Fun.id)))
  in
  (n, edges)

let brute_force_mis n edges =
  let best = ref 0 in
  for mask = 0 to (1 lsl n) - 1 do
    let independent =
      List.for_all
        (fun (u, v) ->
          not ((mask lsr u) land 1 = 1 && (mask lsr v) land 1 = 1))
        edges
    in
    if independent then begin
      let size = ref 0 in
      for k = 0 to n - 1 do
        if (mask lsr k) land 1 = 1 then incr size
      done;
      if !size > !best then best := !size
    end
  done;
  !best

let prop_mis_exact_small =
  QCheck.Test.make ~name:"indep-set solver exact on small graphs" ~count:150
    (QCheck.make random_graph)
    (fun (n, edges) ->
      let g = Ilp.Indep_set.graph_of_edges ~n edges in
      let r = Ilp.Indep_set.solve g in
      r.Ilp.Indep_set.size = brute_force_mis n edges
      && r.Ilp.Indep_set.optimal
      (* the chosen set really is independent *)
      && List.for_all
           (fun (u, v) ->
             not (r.Ilp.Indep_set.chosen.(u) && r.Ilp.Indep_set.chosen.(v)))
           edges)

let prop_greedy_independent =
  QCheck.Test.make ~name:"greedy set is independent and maximal" ~count:150
    (QCheck.make random_graph)
    (fun (n, edges) ->
      let g = Ilp.Indep_set.graph_of_edges ~n edges in
      let chosen = Ilp.Indep_set.greedy g in
      let independent =
        List.for_all (fun (u, v) -> not (chosen.(u) && chosen.(v))) edges
      in
      let maximal =
        List.for_all
          (fun v ->
            chosen.(v)
            || List.exists (fun w -> chosen.(w)) g.Ilp.Indep_set.adj.(v))
          (List.init n Fun.id)
      in
      independent && maximal)

let prop_local_search_improves =
  QCheck.Test.make ~name:"local search keeps independence, never shrinks"
    ~count:100 (QCheck.make random_graph)
    (fun (n, edges) ->
      let g = Ilp.Indep_set.graph_of_edges ~n edges in
      let warm = Ilp.Indep_set.greedy g in
      let warm_list =
        List.filter (fun v -> warm.(v)) (List.init n Fun.id)
      in
      let improved = Ilp.Indep_set.local_search g warm_list in
      let in_improved = Array.make n false in
      List.iter (fun v -> in_improved.(v) <- true) improved;
      List.length improved >= List.length warm_list
      && List.for_all
           (fun (u, v) -> not (in_improved.(u) && in_improved.(v)))
           edges)

let test_bipartite_exact () =
  (* layered bipartite graph solved exactly by the Koenig path *)
  let n = 900 in
  let edges =
    List.concat
      (List.init 450 (fun u ->
           List.init 3 (fun k -> (u, 450 + ((u * 11 + k * 77) mod 450)))))
  in
  let g = Ilp.Indep_set.graph_of_edges ~n edges in
  let r = Ilp.Indep_set.solve g in
  check Alcotest.bool "optimal" true r.Ilp.Indep_set.optimal;
  check Alcotest.bool "at least one side" true (r.Ilp.Indep_set.size >= 450);
  check Alcotest.bool "independent" true
    (List.for_all
       (fun (u, v) -> not (r.Ilp.Indep_set.chosen.(u) && r.Ilp.Indep_set.chosen.(v)))
       edges)

let test_two_colour () =
  let g = Ilp.Indep_set.graph_of_edges ~n:4 [(0, 1); (1, 2); (2, 3)] in
  (match Ilp.Indep_set.two_colour g [0; 1; 2; 3] with
   | Some side ->
     check Alcotest.bool "alternating" true
       (side.(0) <> side.(1) && side.(1) <> side.(2) && side.(2) <> side.(3))
   | None -> Alcotest.fail "path is bipartite");
  let odd = Ilp.Indep_set.graph_of_edges ~n:3 [(0, 1); (1, 2); (2, 0)] in
  check Alcotest.bool "triangle rejected" true
    (Ilp.Indep_set.two_colour odd [0; 1; 2] = None)

let test_matching_maximum () =
  (* perfect matching on an even cycle *)
  let n = 8 in
  let edges = List.init n (fun k -> (k, (k + 1) mod n)) in
  let g = Ilp.Indep_set.graph_of_edges ~n edges in
  let mate = Ilp.Indep_set.max_matching g (List.init n Fun.id) in
  let matched = List.length (List.filter (fun v -> mate.(v) >= 0) (List.init n Fun.id)) in
  check Alcotest.int "all matched" n matched

let test_mis_budget_anytime () =
  (* with a tiny budget the solver still returns a valid independent set
     and reports non-optimality (or optimality when reductions solved it) *)
  let n = 60 in
  let edges =
    List.concat
      (List.init n (fun u ->
           List.filter_map
             (fun v -> if v > u && (u * v) mod 7 = 1 then Some (u, v) else None)
             (List.init n Fun.id)))
  in
  let g = Ilp.Indep_set.graph_of_edges ~n edges in
  let r = Ilp.Indep_set.solve ~node_budget:5 g in
  check Alcotest.bool "independent" true
    (List.for_all
       (fun (u, v) -> not (r.Ilp.Indep_set.chosen.(u) && r.Ilp.Indep_set.chosen.(v)))
       edges);
  check Alcotest.bool "bound sane" true
    (r.Ilp.Indep_set.upper_bound >= r.Ilp.Indep_set.size)

let test_exhaustion_honest_bound () =
  (* C5 vertex cover with objective weight 1.5 per vertex: the LP
     relaxation is half-integral (all 0.5, objective 3.75) and the true
     optimum covers three vertices (4.5).  [brute_max:0] forces the
     branch-and-bound path even on this small component. *)
  let n = 5 in
  let names = Array.init n (Printf.sprintf "x%d") in
  let constraints =
    List.init n (fun k -> P.constr [(k, 1.0); ((k + 1) mod n, 1.0)] P.Ge 1.0)
  in
  let objective = List.init n (fun j -> (j, 1.5)) in
  let m = Ilp.Model.make ~var_names:names ~sense:P.Minimize ~objective constraints in
  let solve budget =
    match Ilp.Branch_bound.solve ~brute_max:0 ~node_budget:budget m with
    | None -> Alcotest.fail "C5 cover is feasible"
    | Some (s, _) -> s
  in
  (* budget 1: only the root LP ran; the greedy all-ones cover is the
     incumbent and the dual bound is the open frontier *)
  let s1 = solve 1 in
  check (Alcotest.float 1e-9) "budget 1 incumbent" 7.5 s1.Ilp.Model.objective;
  check Alcotest.bool "budget 1 not optimal" false s1.Ilp.Model.optimal;
  check (Alcotest.float 1e-9) "budget 1 open bound" 3.75 s1.Ilp.Model.best_bound;
  (* budget 2: the dive already found the optimum but cannot prove it —
     the root sibling is still open at the root bound *)
  let s2 = solve 2 in
  check (Alcotest.float 1e-9) "budget 2 incumbent" 4.5 s2.Ilp.Model.objective;
  check Alcotest.bool "budget 2 not optimal" false s2.Ilp.Model.optimal;
  check (Alcotest.float 1e-9) "budget 2 open bound" 3.75 s2.Ilp.Model.best_bound;
  (* the dual sandwich every exhausted solve must respect *)
  check Alcotest.bool "bound below optimum" true
    (s2.Ilp.Model.best_bound <= 4.5 +. 1e-9);
  (* budget 3: proven — the gap closes and the bound meets the objective *)
  let s3 = solve 3 in
  check (Alcotest.float 1e-9) "budget 3 optimum" 4.5 s3.Ilp.Model.objective;
  check Alcotest.bool "budget 3 optimal" true s3.Ilp.Model.optimal;
  check (Alcotest.float 1e-9) "budget 3 closed bound" 4.5 s3.Ilp.Model.best_bound

let suite =
  [ QCheck_alcotest.to_alcotest prop_bb_matches_brute_force;
    QCheck_alcotest.to_alcotest prop_decomposed_matches_brute_force;
    QCheck_alcotest.to_alcotest prop_presolve_sound;
    Alcotest.test_case "honest bound on exhaustion" `Quick
      test_exhaustion_honest_bound;
    QCheck_alcotest.to_alcotest prop_mis_exact_small;
    QCheck_alcotest.to_alcotest prop_greedy_independent;
    QCheck_alcotest.to_alcotest prop_local_search_improves;
    Alcotest.test_case "bipartite path exact" `Quick test_bipartite_exact;
    Alcotest.test_case "two-colouring" `Quick test_two_colour;
    Alcotest.test_case "matching on even cycle" `Quick test_matching_maximum;
    Alcotest.test_case "anytime budget" `Quick test_mis_budget_anytime ]

let test_penalized_reduction_matches_ilp () =
  (* the auxiliary-vertex encoding of the input penalty agrees with the
     literal formulation on hand-built shapes where the penalty matters *)
  let lib = Cell_lib.Default_library.library () in
  (* star: one input feeds k registers that form an independent set;
     keeping them all single costs one input latch *)
  let b = Netlist.Builder.create ~name:"star" ~library:lib in
  let clk = Netlist.Builder.add_input ~clock:true b "clk" in
  let a = Netlist.Builder.add_input b "a" in
  let qs =
    List.init 4 (fun k ->
        let q = Netlist.Builder.fresh_net b (Printf.sprintf "q%d" k) in
        let d =
          Netlist.Gates.emit_fresh b Netlist.Gates.Not [a]
            ~prefix:(Printf.sprintf "d%d" k)
        in
        ignore (Netlist.Builder.add_cell b (Printf.sprintf "r%d" k) "DFF_X1"
                  [("CK", clk); ("D", d); ("Q", q)]);
        q)
  in
  List.iteri (fun k q -> Netlist.Builder.add_output b (Printf.sprintf "y%d" k) q) qs;
  let d = Netlist.Builder.freeze b in
  let ilp = Phase3.Assignment.solve ~solver:`Ilp d in
  let mis = Phase3.Assignment.solve ~solver:`Mis d in
  Alcotest.(check int) "both cost exactly the one input latch" 1
    ilp.Phase3.Assignment.inserted_latches;
  Alcotest.(check int) "reduction agrees" ilp.Phase3.Assignment.inserted_latches
    mis.Phase3.Assignment.inserted_latches

let suite =
  suite
  @ [ Alcotest.test_case "penalized reduction matches ilp" `Quick
        test_penalized_reduction_matches_ilp ]
