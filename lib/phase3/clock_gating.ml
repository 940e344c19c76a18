module Design = Netlist.Design

type options = {
  common_enable : bool;
  m2_latch_removal : bool;
  ddcg : bool;
  ddcg_threshold : float;
  max_fanout : int;
}

let default_options = {
  common_enable = true;
  m2_latch_removal = true;
  ddcg = true;
  ddcg_threshold = 0.01;
  max_fanout = 32;
}

type stats = {
  p2_latches : int;
  gated_common_enable : int;
  ddcg_gated : int;
  ddcg_groups : int;
  m2_replaced : int;
  cg_cells_added : int;
}

(* Sequential sources feeding [net] through combinational logic only. *)
let seq_sources d net =
  let visited = Hashtbl.create 64 in
  let sources = ref [] in
  let pis = ref [] in
  let rec walk net =
    if not (Hashtbl.mem visited net) then begin
      Hashtbl.add visited net ();
      match d.Design.net_driver.(net) with
      | Design.Driven_by (i, _) ->
        let c = Design.cell d i in
        (match c.Cell_lib.Cell.kind with
         | Cell_lib.Cell.Combinational ->
           List.iter walk (Design.input_nets d i)
         | Cell_lib.Cell.Flip_flop _ | Cell_lib.Cell.Latch _ ->
           sources := i :: !sources
         | Cell_lib.Cell.Clock_gate _ -> ())
      | Design.Driven_by_input port ->
        if not (Design.is_clock_port d port) then pis := port :: !pis
      | Design.Driven_const _ | Design.Undriven -> ()
    end
  in
  walk net;
  (!sources, !pis)

(* The enable net gating a sequential element, when its clock pin is
   driven by an ICG. *)
let gating_enable d i =
  match Design.clock_net_of d i with
  | None -> None
  | Some cn ->
    (match d.Design.net_driver.(cn) with
     | Design.Driven_by (icg, _) ->
       (match (Design.cell d icg).Cell_lib.Cell.kind with
        | Cell_lib.Cell.Clock_gate { enable_pin; _ } ->
          Some (Design.pin_net d icg enable_pin)
        | Cell_lib.Cell.Combinational | Cell_lib.Cell.Flip_flop _
        | Cell_lib.Cell.Latch _ -> None)
     | Design.Driven_by_input _ | Design.Driven_const _ | Design.Undriven -> None)

let chunk max_n l =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if k = max_n then go (List.rev cur :: acc) [x] 1 rest
      else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 l

(* Every decision that does not read activity, taken once: the
   common-enable groups, the DDCG pool with its data nets, and the M2
   replacements. *)
type plan = {
  design : Design.t;
  options : options;
  ports : Convert.clock_ports;
  n_p2 : int;
  gated_by_enable : (int, int list) Hashtbl.t;  (* EN net -> latch list *)
  pool : (int * int) list;  (* DDCG candidate latch, its data net *)
  m2_replace : (int, unit) Hashtbl.t;
}

let plan ?(options = default_options) ?(ports = Convert.default_ports) d =
  let p2_latches =
    List.filter (fun i -> Convert.is_inserted_p2 d i) (Design.sequential_insts d)
  in
  let init = Sim.Init_state.create d in
  (* a latch is initialisation-safe to gate when its data input's value in
     the all-zero initial state equals the latch's reset value (0) *)
  let init_safe l =
    match Design.data_net_of d l with
    | Some dn ->
      Sim.Logic.equal (Sim.Init_state.net_value init dn) Sim.Logic.L0
    | None -> false
  in
  (* only consider p2 latches still enabled directly by the p2 port *)
  let direct_p2 =
    List.filter
      (fun i ->
        match Design.clock_net_of d i with
        | Some cn ->
          (match d.Design.net_driver.(cn) with
           | Design.Driven_by_input port -> String.equal port ports.Convert.p2
           | Design.Driven_by _ | Design.Driven_const _ | Design.Undriven -> false)
        | None -> false)
      p2_latches
  in
  (* --- step 1: common-enable gating -------------------------------- *)
  let gated_by_enable = Hashtbl.create 16 in  (* EN net -> latch list *)
  let gated_set = Hashtbl.create 64 in
  if options.common_enable then
    List.iter
      (fun l ->
        match Design.data_net_of d l with
        | None -> ()
        | Some dn ->
          let sources, pis = seq_sources d dn in
          if sources <> [] && pis = [] then begin
            (* All fan-in latches must share one enable AND one phase: the
               p2 CG samples the enable at the e3 boundary just before the
               p2 window, which matches a p1 first latch's previous-cycle
               enable and a p3 first latch's same-cycle enable — but a
               mixed group would need both samples at once. *)
            let enables = List.map (gating_enable d) sources in
            let phases = List.map (Netlist.Clocking.root_port d) sources in
            let uniform = function
              | [] -> None
              | Some x :: rest when List.for_all (Option.equal ( = ) (Some x)) rest ->
                Some x
              | _ :: _ -> None
            in
            match uniform enables, uniform phases with
            | Some en, Some _phase when init_safe l ->
              Hashtbl.replace gated_by_enable en
                (l :: Option.value ~default:[] (Hashtbl.find_opt gated_by_enable en));
              Hashtbl.replace gated_set l ()
            | (Some _ | None), (Some _ | None) -> ()
          end)
      direct_p2;
  (* --- step 3 pool: DDCG candidates -------------------------------- *)
  (* DDCG samples XOR(D,Q) at the e3 boundary before the p2 window, so the
     data cone must have settled by then: only latches fed exclusively by
     p3 first latches qualify (p1 latches and input ports change after
     that boundary). *)
  let ddcg_safe l =
    match Design.data_net_of d l with
    | None -> false
    | Some dn ->
      let sources, pis = seq_sources d dn in
      pis = []
      && sources <> []
      && List.for_all
           (fun s ->
             Option.equal String.equal (Netlist.Clocking.root_port d s)
               (Some ports.Convert.p3))
           sources
  in
  let pool =
    if options.ddcg then
      List.filter_map
        (fun l ->
          if Hashtbl.mem gated_set l || not (ddcg_safe l) || not (init_safe l)
          then None
          else Option.map (fun dn -> (l, dn)) (Design.data_net_of d l))
        direct_p2
    else []
  in
  (* --- step 2 selection: M2 latch removal --------------------------- *)
  let m2_replace = Hashtbl.create 16 in
  if options.m2_latch_removal then
    List.iter
      (fun icg ->
        match (Design.cell d icg).Cell_lib.Cell.kind with
        | Cell_lib.Cell.Clock_gate { style = Cell_lib.Cell.Icg_standard;
                                     enable_pin; clock_pin; _ } ->
          let en_net = Design.pin_net d icg enable_pin in
          let ck_net = Design.pin_net d icg clock_pin in
          (match d.Design.net_driver.(ck_net) with
           | Design.Driven_by_input phase
             when String.equal phase ports.Convert.p1
               || String.equal phase ports.Convert.p3 ->
             let sources, pis = seq_sources d en_net in
             (* primary inputs behave like p1 start points *)
             let source_phases =
               List.filter_map (Netlist.Clocking.root_port d) sources
               @ (if pis <> [] then [ports.Convert.p1] else [])
             in
             if not (List.exists (String.equal phase) source_phases) then
               Hashtbl.replace m2_replace icg ()
           | Design.Driven_by_input _ | Design.Driven_by _ | Design.Driven_const _
           | Design.Undriven -> ())
        | Cell_lib.Cell.Clock_gate _ | Cell_lib.Cell.Combinational
        | Cell_lib.Cell.Flip_flop _ | Cell_lib.Cell.Latch _ -> ())
      (Design.clock_gate_insts d);
  { design = d; options; ports; n_p2 = List.length p2_latches;
    gated_by_enable; pool; m2_replace }

let observed p = Array.of_list (List.map snd p.pool)

let partners p d =
  let g = p.design in
  let observed = observed p in
  (* the instances of [d] named like the pool nets' drivers: the first
     of each name, as [Design.find_inst] finds it *)
  let named = Hashtbl.create 64 in
  Array.iter
    (fun dn ->
      match g.Design.net_driver.(dn) with
      | Design.Driven_by (i, _) -> Hashtbl.replace named (Design.inst_name g i) (-1)
      | Design.Driven_by_input _ | Design.Driven_const _ | Design.Undriven -> ())
    observed;
  Design.fold_insts
    (fun j () ->
      let name = Design.inst_name d j in
      match Hashtbl.find_opt named name with
      | Some -1 -> Hashtbl.replace named name j
      | Some _ | None -> ())
    d ();
  Array.map
    (fun dn ->
      match g.Design.net_driver.(dn) with
      | Design.Driven_by (i, pin) ->
        (match Hashtbl.find named (Design.inst_name g i) with
         | -1 -> None
         | j ->
           let ci = Design.cell g i and cj = Design.cell d j in
           (match ci.Cell_lib.Cell.kind, cj.Cell_lib.Cell.kind with
            | Cell_lib.Cell.Latch _, Cell_lib.Cell.Flip_flop _ -> Design.q_net_of d j
            | Cell_lib.Cell.Combinational, Cell_lib.Cell.Combinational
              when String.equal ci.Cell_lib.Cell.name cj.Cell_lib.Cell.name ->
              Design.pin_net_opt d j pin
            | _, _ -> None))
      | Design.Driven_by_input _ | Design.Driven_const _ | Design.Undriven -> None)
    observed

let reference_activity p d ~lane_cycles ~simulate =
  if p.pool = [] then ([||], lane_cycles)
  else begin
    let partners = partners p d in
    (* a net with no partner never reads as quiet *)
    let toggles = Array.make (Design.num_nets p.design) max_int in
    let nets = Array.of_seq (Seq.filter_map Fun.id (Array.to_seq partners)) in
    if Array.length nets > 0 then begin
      let reference = simulate nets in
      Array.iteri
        (fun k dn ->
          Option.iter (fun n -> toggles.(dn) <- reference.(n)) partners.(k))
        (observed p)
    end;
    (toggles, lane_cycles)
  end

let apply p ~activity:(toggles, cycles) =
  let d = p.design and options = p.options and ports = p.ports in
  let gated_by_enable = p.gated_by_enable and m2_replace = p.m2_replace in
  let lib = d.Design.library in
  let icgp3 = Cell_lib.Library.clock_gate lib ~style:Cell_lib.Cell.Icg_m1_p3 in
  let icgnl = Cell_lib.Library.clock_gate lib ~style:Cell_lib.Cell.Icg_m2_latchless in
  (* --- step 3 selection: DDCG groups -------------------------------- *)
  let rate net = float_of_int toggles.(net) /. float_of_int (max 1 cycles) in
  let ddcg_groups =
    List.filter_map
      (fun (l, dn) ->
        if rate dn < options.ddcg_threshold then Some (l, rate dn) else None)
      p.pool
    |> List.sort (fun (_, a) (_, b) -> compare a b)
    |> List.map fst
    |> chunk options.max_fanout
  in
  (* --- rebuild ------------------------------------------------------ *)
  let rw = Netlist.Rewrite.start d in
  let b = Netlist.Rewrite.builder rw in
  let p2_net =
    match Design.find_input d ports.Convert.p2 with
    | Some n -> Netlist.Rewrite.map_net rw n
    | None -> invalid_arg "Clock_gating: design has no p2 port"
  in
  let p3_net =
    match Design.find_input d ports.Convert.p3 with
    | Some n -> Netlist.Rewrite.map_net rw n
    | None -> invalid_arg "Clock_gating: design has no p3 port"
  in
  let cg_added = ref 0 in
  (* new gated-clock nets per latch *)
  let latch_gclk = Hashtbl.create 64 in
  Hashtbl.iter
    (fun en latches ->
      List.iteri
        (fun gi group ->
          incr cg_added;
          let gck =
            Netlist.Builder.fresh_net b (Printf.sprintf "p2cg_en%d_%d_gck" en gi)
          in
          ignore
            (Netlist.Builder.add_instance b
               (Printf.sprintf "p2cg_en%d_%d" en gi) icgp3
               [("CK", p2_net); ("P3", p3_net);
                ("EN", Netlist.Rewrite.map_net rw en); ("GCK", gck)]);
          List.iter (fun l -> Hashtbl.replace latch_gclk l gck) group)
        (chunk options.max_fanout latches))
    gated_by_enable;
  (* DDCG groups: XOR(D,Q) per latch, OR tree, shared CG *)
  let ddcg_gated = ref 0 in
  List.iteri
    (fun gi group ->
      incr cg_added;
      let comparisons =
        List.map
          (fun l ->
            let dn = match Design.data_net_of d l with Some n -> n | None -> assert false in
            let qn = match Design.q_net_of d l with Some n -> n | None -> assert false in
            Netlist.Gates.emit_fresh b Netlist.Gates.Xor
              [Netlist.Rewrite.map_net rw dn; Netlist.Rewrite.map_net rw qn]
              ~prefix:(Printf.sprintf "ddcg%d_cmp" gi))
          group
      in
      let en =
        match comparisons with
        | [single] -> single
        | _ :: _ :: _ ->
          Netlist.Gates.emit_fresh b Netlist.Gates.Or comparisons
            ~prefix:(Printf.sprintf "ddcg%d_or" gi)
        | [] -> assert false
      in
      let gck = Netlist.Builder.fresh_net b (Printf.sprintf "ddcg%d_gck" gi) in
      ignore
        (Netlist.Builder.add_instance b (Printf.sprintf "ddcg%d_cg" gi) icgp3
           [("CK", p2_net); ("P3", p3_net); ("EN", en); ("GCK", gck)]);
      List.iter
        (fun l ->
          incr ddcg_gated;
          Hashtbl.replace latch_gclk l gck)
        group)
    ddcg_groups;
  (* copy instances, rewiring gated latches and replacing M2 ICGs *)
  Design.fold_insts
    (fun i () ->
      match Hashtbl.find_opt latch_gclk i with
      | Some gck ->
        let enable_pin =
          match (Design.cell d i).Cell_lib.Cell.kind with
          | Cell_lib.Cell.Latch { enable_pin; _ } -> enable_pin
          | Cell_lib.Cell.Combinational | Cell_lib.Cell.Flip_flop _
          | Cell_lib.Cell.Clock_gate _ -> assert false
        in
        Netlist.Rewrite.copy_inst ~override:[(enable_pin, gck)] rw i
      | None ->
        if Hashtbl.mem m2_replace i then begin
          (* same connections, latch-less cell *)
          let conns =
            Array.to_list d.Design.inst_conns.(i)
            |> List.map (fun (pin, n) -> (pin, Netlist.Rewrite.map_net rw n))
          in
          ignore (Netlist.Builder.add_instance b (Design.inst_name d i) icgnl conns)
        end
        else Netlist.Rewrite.copy_inst rw i)
    d ();
  let d' = Netlist.Rewrite.finish rw in
  let gated_common =
    Hashtbl.fold (fun _ ls acc -> acc + List.length ls) gated_by_enable 0
  in
  (d',
   { p2_latches = p.n_p2;
     gated_common_enable = gated_common;
     ddcg_gated = !ddcg_gated;
     ddcg_groups = List.length ddcg_groups;
     m2_replaced = Hashtbl.length m2_replace;
     cg_cells_added = !cg_added })

let run ?options ?ports ~activity d = apply (plan ?options ?ports d) ~activity
