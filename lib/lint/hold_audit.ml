module Design = Netlist.Design
module D = Lint_core.Diagnostic

let run ?(hold_margin = 0.02) ?(input_delay = (0.05, 0.10)) d ~clocks
    ~(views : Sta.Smo.reg_view list) ~paths =
  Obs.span "lint.hold_audit" @@ fun () ->
  let input_delay_min, _ = input_delay in
  let period = clocks.Sim.Clock_spec.period in
  let view_of = Hashtbl.create 64 in
  List.iter (fun v -> Hashtbl.replace view_of v.Sta.Smo.inst v) views;
  let diags = ref [] in
  List.iter
    (fun (p : Sta.Paths.path) ->
      match p.dst with
      | Sta.Paths.Port _ -> ()
      | Sta.Paths.Reg jd ->
        (match Hashtbl.find_opt view_of jd with
         | None -> ()
         | Some vd ->
           let early =
             match p.src with
             | Sta.Paths.Port _ ->
               let shift = Sta.Smo.forward_shift period 0.0 vd.close in
               Some (input_delay_min +. p.min_delay -. shift +. period)
             | Sta.Paths.Reg js ->
               (match Hashtbl.find_opt view_of js with
                | None -> None
                | Some vs ->
                  let shift = Sta.Smo.forward_shift period vs.close vd.close in
                  Some
                    (-.vs.width +. vs.clk2q_min
                     +. p.min_delay -. shift +. period))
           in
           (match early with
            | None -> ()
            | Some early ->
              let slack = early -. hold_margin in
              if slack < -1e-9 then
                diags :=
                  D.makef ~rule:"HOLD-001" ~severity:D.Error
                    ~loc:
                      (D.Object
                         (Printf.sprintf "%s -> %s"
                            (Phase_audit.endpoint_name d p.src)
                            (Design.inst_name d jd)))
                    "min-delay violation at %s on the arc from %s: earliest \
                     arrival %.4f ns is within the hold margin %.4f ns \
                     (slack %.4f ns)"
                    (Design.inst_name d jd)
                    (Phase_audit.endpoint_name d p.src)
                    early hold_margin slack
                  :: !diags)))
    paths;
  List.rev !diags
