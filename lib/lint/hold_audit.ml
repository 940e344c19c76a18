module Design = Netlist.Design
module D = Lint_core.Diagnostic

let run (a : Sta.Smo.t) =
  Obs.span "lint.hold_audit" @@ fun () ->
  let d = a.graph.Sta.Graph.design in
  List.filter_map
    (fun (arc : Sta.Smo.arc) ->
      if arc.hold_slack < -1e-9 then
        Some
          (D.makef ~rule:"HOLD-001" ~severity:D.Error ~loc:(Phase_audit.arc_obj d arc)
             "min-delay violation at %s on the arc from %s: earliest arrival \
              %.4f ns is within the hold margin %.4f ns (slack %.4f ns)"
             (Design.inst_name d arc.capture.inst)
             (Phase_audit.endpoint_name d arc.src)
             arc.early arc.hold_margin arc.hold_slack)
      else None)
    (Lazy.force a.arcs)
