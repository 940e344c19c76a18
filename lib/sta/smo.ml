module Design = Netlist.Design

type violation = {
  dst : Design.inst;
  kind : [ `Setup | `Hold ];
  slack : float;
  src_class : string;
}

type report = {
  worst_setup_slack : float;
  worst_hold_slack : float;
  violations : violation list;
  max_borrow : float;
  iterations : int;
}

let ok r = r.worst_setup_slack >= 0.0 && r.worst_hold_slack >= 0.0

type reg_view = {
  inst : Design.inst;
  port : string;
  close : float;
  width : float;
  clk2q_max : float;
  clk2q_min : float;
}

let views (g : Graph.t) ~(clocks : Sim.Clock_spec.t) =
  Obs.span "sta.smo.views" @@ fun () ->
  let d = g.design in
  let period = clocks.period in
  let view i port (w : Sim.Clock_spec.waveform) =
    let rise = w.rise_at *. period in
    let fall = w.fall_at *. period in
    let close, width =
      match (Design.cell d i).Cell_lib.Cell.kind with
      | Cell_lib.Cell.Flip_flop _ -> rise, 0.0
      | Cell_lib.Cell.Latch { transparent = Cell_lib.Cell.Active_high; _ } ->
        fall, fall -. rise
      | Cell_lib.Cell.Latch { transparent = Cell_lib.Cell.Active_low; _ } ->
        (* transparent while the port is low: closes at rise *)
        rise, period -. (fall -. rise)
      | Cell_lib.Cell.Combinational | Cell_lib.Cell.Clock_gate _ -> 0.0, 0.0
    in
    { inst = i; port; close; width;
      clk2q_max = g.delay_max.(i); clk2q_min = g.delay_min.(i) }
  in
  Design.sequential_insts d
  |> List.filter_map (fun i ->
      Option.bind (Design.clock_net_of d i) (Netlist.Clocking.trace_to_root d)
      |> Option.map (fun (t : Netlist.Clocking.trace) -> (i, t.root_port)))
  |> List.partition_map (fun (i, port) ->
      match List.assoc_opt port clocks.ports with
      | Some w -> Either.Left (view i port w)
      | None -> Either.Right (i, port))

let forward_shift period e_from e_to =
  let diff = Float.rem (e_to -. e_from) period in
  if diff <= 1e-12 then diff +. period else diff

(* A launch class: registers launching together, or the primary inputs
   ([port = None]), with their path relaxation. *)
type launch = {
  name : string;
  port : string option;
  close : float;
  amax : float array;
  amin : float array;
  mutable late : float;  (* max over members of departure + late clk->q *)
  early : float;         (* min over members of the opening, -width *)
  clk2q_min : float;
}

let pi_class = "input"

let check ?(exact = false) ?(setup_margin = 0.03) ?(hold_margin = 0.02)
    ?(input_delay = (0.05, 0.10)) ?(clock_skew = 0.0) ?(derate = (1.0, 1.0))
    d ~clocks =
  Obs.span "sta.smo.check" @@ fun () ->
  let derate_early, derate_late = derate in
  let input_delay_min, input_delay_max = input_delay in
  let base_hold_margin = hold_margin in
  let setup_margin = setup_margin +. clock_skew in
  let hold_margin = hold_margin +. clock_skew in
  let period = clocks.Sim.Clock_spec.period in
  let g = Graph.create d in
  let views = Array.of_list (fst (views g ~clocks)) in
  let data_nets = Array.map (fun v -> Design.data_net_of d v.inst) views in
  (* classes: one per (clock port, closing time) — a master-slave pair
     shares the port but launches from different edges — plus the
     primary-input class.  [exact] puts every register in its own launch
     class (one path relaxation per register): no worst-departure/
     worst-path pairing pessimism, at O(registers) relaxations instead
     of O(ports). *)
  let module SM = Map.Make (String) in
  let view_key (v : reg_view) =
    if exact then Printf.sprintf "%s#%d" v.port v.inst
    else Printf.sprintf "%s@%.4f" v.port v.close
  in
  let members = ref SM.empty in
  Array.iteri
    (fun k v ->
      members :=
        SM.update (view_key v)
          (fun ks -> Some (k :: Option.value ~default:[] ks)) !members)
    views;
  let view_class = Array.make (Array.length views) 0 in
  let reg_classes =
    List.rev (SM.bindings !members)
    |> List.mapi (fun c (name, ks) ->
        List.iter (fun k -> view_class.(k) <- c) ks;
        let vs = List.map (Array.get views) ks in
        (* classes are homogeneous per port: FFs and latches on one port
           share their closing time *)
        let rep = List.hd vs in
        let amax, amin =
          Graph.forward g (List.filter_map (fun v -> Design.q_net_of d v.inst) vs)
        in
        let fold f init = List.fold_left f init vs in
        { name; port = Some rep.port; close = rep.close; amax; amin;
          late =
            fold
              (fun acc v ->
                Float.max acc (-.v.width +. (v.clk2q_max *. derate_late)))
              Float.neg_infinity;
          early = fold (fun acc v -> Float.min acc (-.v.width)) Float.infinity;
          clk2q_min =
            fold (fun acc v -> Float.min acc v.clk2q_min) Float.infinity })
  in
  let pi_nets =
    List.filter_map
      (fun (p, net) -> if Design.is_clock_port d p then None else Some net)
      d.Design.primary_inputs
  in
  let classes =
    Array.of_list
      (if pi_nets = [] then reg_classes
       else
         let amax, amin = Graph.forward g pi_nets in
         (* inputs depart at the external input delay *)
         reg_classes
         @ [ { name = pi_class; port = None; close = 0.0; amax; amin;
               late = input_delay_max; early = input_delay_min;
               clk2q_min = 0.0 } ])
  in
  (* the latest arrival at a register's data pin, relative to its
     closing edge *)
  let arrival_of k =
    match data_nets.(k) with
    | None -> Float.neg_infinity
    | Some dn ->
      Array.fold_left
        (fun acc c ->
          if c.amax.(dn) > Float.neg_infinity then
            let shift = forward_shift period c.close views.(k).close in
            Float.max acc (c.late +. (c.amax.(dn) *. derate_late) -. shift)
          else acc)
        Float.neg_infinity classes
  in
  (* departure iteration: D_j relative to the register's closing edge.
     Departures only rise, so raising each class's [late] with them keeps
     it equal to the maximum over its members. *)
  let departures = Array.map (fun v -> -.v.width) views in
  let iterations = ref 0 in
  let changed = ref true in
  let failed_to_converge = ref false in
  while !changed && not !failed_to_converge do
    incr iterations;
    if !iterations > Array.length views + 8 then failed_to_converge := true
    else begin
      changed := false;
      Array.iteri
        (fun k (v : reg_view) ->
          let dep = Float.max (-.v.width) (arrival_of k) in
          if dep > departures.(k) +. 1e-9 then begin
            departures.(k) <- dep;
            let c = classes.(view_class.(k)) in
            c.late <- Float.max c.late (dep +. (v.clk2q_max *. derate_late));
            changed := true
          end)
        views
    end
  done;
  (* constraint evaluation *)
  let violations = ref [] in
  let worst_setup = ref Float.infinity and worst_hold = ref Float.infinity in
  let max_borrow = ref 0.0 in
  Array.iteri
    (fun k (v : reg_view) ->
      (match data_nets.(k) with
       | None -> ()
       | Some dn ->
         Array.iter
           (fun c ->
             if c.amax.(dn) > Float.neg_infinity then begin
               let shift = forward_shift period c.close v.close in
               (* setup: arrival relative to closing + margin <= 0 *)
               let arr = c.late +. (c.amax.(dn) *. derate_late) -. shift in
               let setup_slack = -.arr -. setup_margin in
               if setup_slack < !worst_setup then worst_setup := setup_slack;
               if setup_slack < 0.0 then
                 violations := { dst = v.inst; kind = `Setup;
                                 slack = setup_slack; src_class = c.name } :: !violations;
               (* hold: earliest arrival after the previous closing edge.
                  Earliest departure of the class is at its opening. *)
               let early_arrival =
                 c.early +. ((c.clk2q_min +. c.amin.(dn)) *. derate_early)
                 -. shift +. period
               in
               (* complementary latches on the same clock port (a
                  master-slave pair) share their clock leaf, so no
                  inter-corner skew applies between them *)
               let margin =
                 match c.port with
                 | Some port
                   when String.equal port v.port
                        && Float.abs (c.close -. v.close) > 1e-9 ->
                   base_hold_margin
                 | Some _ | None -> hold_margin
               in
               let hold_slack = early_arrival -. margin in
               if hold_slack < !worst_hold then worst_hold := hold_slack;
               if hold_slack < 0.0 then
                 violations := { dst = v.inst; kind = `Hold;
                                 slack = hold_slack; src_class = c.name } :: !violations
             end)
           classes);
      (* time borrowed: how far into the transparency window the data
         arrives (0 when it is ready before the latch opens) *)
      let borrow = departures.(k) +. v.width in
      if v.width > 0.0 && borrow > !max_borrow then max_borrow := borrow)
    views;
  let worst_setup =
    if !failed_to_converge then Float.neg_infinity
    else if !worst_setup = Float.infinity then period
    else !worst_setup
  in
  let worst_hold = if !worst_hold = Float.infinity then period else !worst_hold in
  Obs.count "sta.smo.iterations" !iterations;
  Obs.count "sta.smo.registers_checked" (Array.length views);
  { worst_setup_slack = worst_setup;
    worst_hold_slack = worst_hold;
    violations = List.rev !violations;
    max_borrow = !max_borrow;
    iterations = !iterations }

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>setup slack %.4f ns, hold slack %.4f ns, %d violation(s), \
     borrow %.4f ns, %d iteration(s)@]"
    r.worst_setup_slack r.worst_hold_slack (List.length r.violations)
    r.max_borrow r.iterations
