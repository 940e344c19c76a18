(* Hand-off artifacts: everything a downstream physical-design or
   verification flow would consume from the conversion — the converted
   Verilog, SDC clock constraints, a VCD waveform, SAIF switching
   activity, and a critical-path timing report.

   Run with: dune exec examples/artifacts.exe *)

let bench_source = {|
INPUT(a0)
INPUT(a1)
INPUT(a2)
OUTPUT(y0)
OUTPUT(y1)
r0 = DFF(m0)
r1 = DFF(m1)
r2 = DFF(f)
m0 = XOR(a0, a1)
m1 = NAND(a2, r0)
f = XOR(r2, r1)
y0 = AND(r1, r2)
y1 = OR(r0, f)
|}

let write path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc;
  Printf.printf "  wrote %-18s (%d bytes)\n" path (String.length text)

let () =
  let library = Cell_lib.Default_library.library () in
  let design = Netlist_io.Bench_format.parse ~name:"handoff" ~library bench_source in
  let config =
    { (Phase3.Flow.default_config ~period:1.0) with Phase3.Flow.optimize = true }
  in
  let result = Phase3.Flow.run ~config design in
  let final = result.Phase3.Flow.final in
  let clocks = Phase3.Flow.clocks_of config in
  let dir = Filename.get_temp_dir_name () in
  let p name = Filename.concat dir name in
  Printf.printf "artifacts for %s:\n" final.Netlist.Design.design_name;

  (* 1. the converted netlist *)
  write (p "handoff_3p.v") (Netlist_io.Verilog.write final);

  (* 2. clock constraints *)
  write (p "handoff_3p.sdc") (Netlist_io.Sdc.write final ~clocks);

  (* 3. waveforms of a short run: lane 0 of a 63-lane kernel *)
  let kernel = Sim.Kernel.create final ~clocks in
  let draw =
    Sim.Stimulus.draw
      ~seeds:(Array.init Sim.Kernel.max_lanes (fun l -> 7 + l))
      ~cycles:48 (Sim.Stimulus.Uniform 0.4) (Sim.Stimulus.inputs_of final)
  in
  write (p "handoff_3p.vcd") (Sim.Vcd.dump kernel draw);

  (* 4. switching activity of the same run, over all its lanes *)
  let toggles = Sim.Kernel.toggles kernel in
  let lane_cycles = Sim.Kernel.lane_cycles kernel in
  write (p "handoff_3p.saif")
    (Sim.Saif.render final ~toggles ~duration:lane_cycles);
  Printf.printf "  %d toggles over %d lane-cycles\n"
    (Array.fold_left ( + ) 0 toggles) lane_cycles;

  (* 5. timing: critical paths and corner sign-off *)
  print_newline ();
  Format.printf "%a" (Sta.Timing_report.pp final)
    (Sta.Timing_report.worst_paths ~count:3 final);
  List.iter
    (fun ((c : Sta.Corners.corner), r) ->
      Format.printf "corner %-8s %a@." c.Sta.Corners.corner_name
        Sta.Smo.pp_report r)
    (Sta.Corners.check_all final ~clocks)
