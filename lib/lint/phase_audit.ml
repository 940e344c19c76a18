module Design = Netlist.Design
module D = Lint_core.Diagnostic

(* circular overlap of two half-open windows (s, s+len] within a period *)
let windows_overlap period s1 len1 s2 len2 =
  let wrap x =
    let r = Float.rem x period in
    if r < 0.0 then r +. period else r
  in
  wrap (s2 -. s1) < len1 -. 1e-9 || wrap (s1 -. s2) < len2 -. 1e-9

let endpoint_name d = function
  | Sta.Paths.Reg i -> Design.inst_name d i
  | Sta.Paths.Port p -> p

let arc_obj d (arc : Sta.Smo.arc) =
  D.Object
    (Printf.sprintf "%s -> %s" (endpoint_name d arc.src)
       (Design.inst_name d arc.capture.inst))

let run (a : Sta.Smo.t) =
  Obs.span "lint.phase_audit" @@ fun () ->
  let d = a.graph.Sta.Graph.design and clocks = a.clocks in
  let period = clocks.Sim.Clock_spec.period in
  let arcs = Lazy.force a.arcs in
  let diags = ref [] in
  let add dg = diags := dg :: !diags in
  (* the 3-phase discipline's C2: with three phases, the cycle boundary
     must be crossed through the middle phase, so a data arc from the
     latest-closing phase straight to the earliest-closing one is
     illegal even when its timing happens to close *)
  let first_phase, last_phase =
    match
      List.filter_map
        (fun (port, _) ->
          Option.map (fun c -> (port, c)) (Sim.Clock_spec.closing_time clocks port))
        clocks.Sim.Clock_spec.ports
    with
    | ([] | [_] | [_; _]) -> (None, None)
    | closes ->
      let by_close (_, a) (_, b) = Float.compare a b in
      ( Some (fst (List.hd (List.sort by_close closes))),
        Some (fst (List.hd (List.sort (fun a b -> by_close b a) closes))) )
  in
  List.iter
    (fun (arc : Sta.Smo.arc) ->
      let vd = arc.capture in
      (* window legality: latch-to-latch arcs must connect
         non-overlapping transparency windows *)
      (match arc.launch with
       | Some vs when vs.width > 0.0 && vd.width > 0.0 ->
         let same_phase =
           String.equal vs.port vd.port && Float.abs (vs.close -. vd.close) <= 1e-9
         in
         if (not same_phase) && Some vs.port = last_phase && Some vd.port = first_phase
         then
           add
             (D.makef ~rule:"PHASE-007" ~severity:D.Error ~loc:(arc_obj d arc)
                "latch %s (%s, the last phase) feeds latch %s (%s, the \
                 first phase) directly: the cycle boundary must be \
                 crossed through the middle phase"
                (Design.inst_name d vs.inst) vs.port
                (Design.inst_name d vd.inst) vd.port);
         if same_phase then
           add
             (D.makef ~rule:"PHASE-001" ~severity:D.Error ~loc:(arc_obj d arc)
                "latch %s feeds latch %s on the same phase (%s closing at \
                 %.4f ns): data races through both transparent windows"
                (Design.inst_name d vs.inst) (Design.inst_name d vd.inst)
                vd.port vd.close)
         else if
           windows_overlap period (vs.close -. vs.width) vs.width
             (vd.close -. vd.width) vd.width
         then
           add
             (D.makef ~rule:"PHASE-005" ~severity:D.Error ~loc:(arc_obj d arc)
                "transparency windows of latch %s (%s) and latch %s (%s) \
                 overlap on a connecting path"
                (Design.inst_name d vs.inst) vs.port
                (Design.inst_name d vd.inst) vd.port)
       | Some _ | None -> ());
      (* setup / borrow at the fixed point, when there is one *)
      let slack = arc.setup_slack in
      if a.converged && slack < -1e-9 then
        if vd.width <= 0.0 then
          add
            (D.makef ~rule:"PHASE-002" ~severity:D.Error ~loc:(arc_obj d arc)
               "setup violation at %s on the arc from %s: data arrives \
                %.4f ns after the capturing edge allows (slack %.4f ns)"
               (Design.inst_name d vd.inst)
               (endpoint_name d arc.src) arc.arrival slack)
        else
          add
            (D.makef ~rule:"PHASE-003" ~severity:D.Error ~loc:(arc_obj d arc)
               "latch %s borrows %.4f ns on the arc from %s but its \
                transparency window is only %.4f ns (slack %.4f ns)"
               (Design.inst_name d vd.inst)
               (arc.arrival +. vd.width)
               (endpoint_name d arc.src) vd.width slack))
    arcs;
  if not a.converged then
    add
      (D.makef ~rule:"PHASE-004" ~severity:D.Error
         "latch departure times failed to converge after %d iterations: \
          time borrowing accumulates around a loop"
         a.report.Sta.Smo.iterations);
  List.rev !diags
