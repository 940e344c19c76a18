module Design = Netlist.Design
module D = Lint_core.Diagnostic

(* combinational fan-in cone of [net]: every net reached walking drivers
   backwards through combinational cells, stopping at sequential / ICG
   outputs, constants and ports.  Returns the visited net set and the
   sequential start points / non-clock primary-input flag (the same
   start-point notion as [Phase3.Clock_gating]'s [seq_sources]). *)
let enable_cone d net =
  let visited = Hashtbl.create 64 in
  let sources = ref [] in
  let has_pi = ref false in
  let rec walk net =
    if not (Hashtbl.mem visited net) then begin
      Hashtbl.add visited net ();
      match d.Design.net_driver.(net) with
      | Design.Driven_by (i, _) ->
        let c = Design.cell d i in
        (match c.Cell_lib.Cell.kind with
         | Cell_lib.Cell.Combinational -> List.iter walk (Design.input_nets d i)
         | Cell_lib.Cell.Flip_flop _ | Cell_lib.Cell.Latch _ ->
           sources := i :: !sources
         | Cell_lib.Cell.Clock_gate _ -> ())
      | Design.Driven_by_input port ->
        if not (Design.is_clock_port d port) then has_pi := true
      | Design.Driven_const _ | Design.Undriven -> ()
    end
  in
  walk net;
  (visited, List.rev !sources, !has_pi)

let run d ~clocks =
  Obs.span "lint.clock_audit" @@ fun () ->
  let diags = ref [] in
  let add dg = diags := dg :: !diags in
  let in_network = (Netlist.Clocking.network d).Netlist.Clocking.has_net in
  (* CLK-001: ICG clock pins must be rooted at declared clocks (Check's
     NET-003 covers flip-flops and latches; ICGs are audited here) *)
  List.iter
    (fun icg ->
      match (Design.cell d icg).Cell_lib.Cell.kind with
      | Cell_lib.Cell.Clock_gate { clock_pin; aux_clock_pin; _ } ->
        let check_pin pin =
          match Design.pin_net_opt d icg pin with
          | None ->
            add
              (D.makef ~rule:"CLK-001" ~severity:D.Error
                 ~loc:(D.Object (Design.inst_name d icg))
                 "clock gate %s has no net on clock pin %s"
                 (Design.inst_name d icg) pin)
          | Some n ->
            if Netlist.Clocking.trace_to_root d n = None then
              add
                (D.makef ~rule:"CLK-001" ~severity:D.Error
                   ~loc:(D.Object (Design.inst_name d icg))
                   "clock pin %s of clock gate %s does not trace to a \
                    clock port (net %s)"
                   pin (Design.inst_name d icg) (Design.net_name d n))
        in
        check_pin clock_pin;
        Option.iter check_pin aux_clock_pin
      | Cell_lib.Cell.Combinational | Cell_lib.Cell.Flip_flop _
      | Cell_lib.Cell.Latch _ -> ())
    (Design.clock_gate_insts d);
  (* CLK-002: clock-network nets stay inside the clock network *)
  for net = 0 to Design.num_nets d - 1 do
    if in_network net then
      List.iter
        (fun (i, pin) ->
          let c = Design.cell d i in
          let ok =
            match c.Cell_lib.Cell.kind with
            | Cell_lib.Cell.Flip_flop { clock_pin; _ } ->
              String.equal pin clock_pin
            | Cell_lib.Cell.Latch { enable_pin; _ } ->
              String.equal pin enable_pin
            | Cell_lib.Cell.Clock_gate { clock_pin; enable_pin; aux_clock_pin; _ }
              ->
              String.equal pin clock_pin
              || Option.fold ~none:false ~some:(String.equal pin) aux_clock_pin
              (* a clock on the enable pin is CLK-003's finding *)
              || String.equal pin enable_pin
            | Cell_lib.Cell.Combinational ->
              (* buffers and inverters inside the tree re-drive network
                 nets; anything else treats the clock as data *)
              List.exists in_network (Design.output_nets d i)
          in
          if not ok then
            add
              (D.makef ~rule:"CLK-002" ~severity:D.Error
                 ~loc:(D.Object (Design.inst_name d i))
                 "clock-network net %s feeds data pin %s of %s"
                 (Design.net_name d net) pin (Design.inst_name d i)))
        d.Design.net_sinks.(net)
  done;
  (* CLK-003 / CLK-004: enable cones of every clock gate *)
  let earliest_port =
    List.fold_left
      (fun acc port ->
        match Sim.Clock_spec.closing_time clocks port with
        | None -> acc
        | Some t ->
          (match acc with
           | Some (_, t0) when t0 <= t -> acc
           | _ -> Some (port, t)))
      None d.Design.clock_ports
    |> Option.map fst
  in
  List.iter
    (fun icg ->
      match (Design.cell d icg).Cell_lib.Cell.kind with
      | Cell_lib.Cell.Clock_gate { enable_pin; style; _ } ->
        (match Design.pin_net_opt d icg enable_pin with
         | None -> ()
         | Some en ->
           let cone, sources, has_pi = enable_cone d en in
           let offending =
             Hashtbl.fold
               (fun n () acc ->
                 if in_network n then
                   match acc with
                   | Some m when Design.net_name d m <= Design.net_name d n -> acc
                   | _ -> Some n
                 else acc)
               cone None
           in
           (match offending with
            | Some n ->
              add
                (D.makef ~rule:"CLK-003" ~severity:D.Error
                   ~loc:(D.Object (Design.inst_name d icg))
                   "enable cone of clock gate %s contains clock-network net \
                    %s: the gated clock can glitch"
                   (Design.inst_name d icg) (Design.net_name d n))
            | None -> ());
           (* CLK-004: the latchless gate relies on its enable settling
              before its own phase opens *)
           (match style with
            | Cell_lib.Cell.Icg_m2_latchless ->
              (match Netlist.Clocking.root_port d icg with
               | None -> ()  (* CLK-001 already fired *)
               | Some phi ->
                 let source_ports =
                   List.filter_map (Netlist.Clocking.root_port d) sources
                 in
                 let pi_phase = if has_pi then earliest_port else None in
                 let bad =
                   List.exists (String.equal phi) source_ports
                   || Option.fold ~none:false ~some:(String.equal phi) pi_phase
                 in
                 if bad then
                   add
                     (D.makef ~rule:"CLK-004" ~severity:D.Error
                        ~loc:(D.Object (Design.inst_name d icg))
                        "latchless clock gate %s is clocked by %s but its \
                         enable cone starts on that same phase: the enable \
                         is not stable across the gate's open window"
                        (Design.inst_name d icg) phi))
            | Cell_lib.Cell.Icg_standard | Cell_lib.Cell.Icg_m1_p3 -> ()))
      | Cell_lib.Cell.Combinational | Cell_lib.Cell.Flip_flop _
      | Cell_lib.Cell.Latch _ -> ())
    (Design.clock_gate_insts d);
  List.rev !diags
