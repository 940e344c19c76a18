module Design = Netlist.Design

type violation = {
  src : Paths.endpoint;
  dst : Design.inst;
  kind : [ `Setup | `Hold ];
  slack : float;
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
      Option.map (fun port -> (i, port)) (Netlist.Clocking.root_port d i))
  |> List.partition_map (fun (i, port) ->
      match List.assoc_opt port clocks.ports with
      | Some w -> Either.Left (view i port w)
      | None -> Either.Right (i, port))

let forward_shift period e_from e_to =
  let diff = Float.rem (e_to -. e_from) period in
  if diff <= 1e-12 then diff +. period else diff

type arc = {
  src : Paths.endpoint;
  launch : reg_view option;
  capture : reg_view;
  arrival : float;
  setup_slack : float;
  early : float;
  hold_margin : float;
  hold_slack : float;
}

type t = {
  graph : Graph.t;
  clocks : Sim.Clock_spec.t;
  views : reg_view list;
  unclocked : (Design.inst * string) list;
  arcs : arc list Lazy.t;
  converged : bool;
  report : report;
}

(* ns: the setup margin, and the (min, max) delay after the cycle start
   at which primary inputs change *)
let setup_margin = 0.03
let input_delay_min, input_delay_max = (0.05, 0.10)

let analyse ?(hold_margin = 0.02) ?(clock_skew = 0.0) ?(derate = (1.0, 1.0))
    d ~clocks =
  Obs.span "sta.smo.check" @@ fun () ->
  let derate_early, derate_late = derate in
  let base_hold_margin = hold_margin in
  let setup_margin = setup_margin +. clock_skew in
  let hold_margin = hold_margin +. clock_skew in
  let period = clocks.Sim.Clock_spec.period in
  let g = Graph.create d in
  let views, unclocked = views g ~clocks in
  let vs = Array.of_list views in
  let nv = Array.length vs in
  let index = Array.make (Design.num_insts d) (-1) in
  Array.iteri (fun k v -> index.(v.inst) <- k) vs;
  (* the arcs timed, into a viewed register from a viewed register or an
     input port (launch -1), grouped by capture in view order *)
  let launch_of (p : Paths.path) =
    match p.src with Paths.Reg j -> index.(j) | Paths.Port _ -> -1
  in
  let capture_of (p : Paths.path) =
    match (p.src, p.dst) with
    | Paths.Reg j, _ when index.(j) < 0 -> -1
    | _, Paths.Reg i -> index.(i)
    | _, Paths.Port _ -> -1
  in
  (* counting sort: register k's arcs are [first.(k)] to [first.(k + 1) - 1] *)
  let all = Paths.compute g in
  let first = Array.make (nv + 1) 0 in
  List.iter
    (fun p ->
      let k = capture_of p in
      if k >= 0 then first.(k + 1) <- first.(k + 1) + 1)
    all;
  for k = 1 to nv do first.(k) <- first.(k) + first.(k - 1) done;
  let n = first.(nv) and next = Array.sub first 0 nv in
  let paths = if n = 0 then [||] else Array.make n (List.hd all) in
  let capture = Array.make n 0 and launch = Array.make n (-1) in
  let shift = Array.make n 0.0 in
  List.iter
    (fun p ->
      let k = capture_of p in
      if k >= 0 then begin
        let a = next.(k) and j = launch_of p in
        next.(k) <- a + 1;
        paths.(a) <- p;
        capture.(a) <- k;
        launch.(a) <- j;
        (* inputs launch at cycle start *)
        shift.(a) <-
          forward_shift period (if j < 0 then 0.0 else vs.(j).close) vs.(k).close
      end)
    all;
  (* departure fixpoint: D_k relative to register k's closing edge, at
     least its opening; an arc's arrival is its latest launch (departure
     plus late clk->q, or the input delay) plus its delay, shifted to the
     capturing edge *)
  let departure = Array.map (fun v -> -.v.width) vs in
  let arrival = Array.make n Float.neg_infinity in
  let arrive k =
    for a = first.(k) to first.(k + 1) - 1 do
      let j = launch.(a) in
      let late =
        if j < 0 then input_delay_max
        else departure.(j) +. (vs.(j).clk2q_max *. derate_late)
      in
      arrival.(a) <- late +. (paths.(a).max_delay *. derate_late) -. shift.(a)
    done
  in
  (* Gauss-Seidel sweeps in view order until no departure rises *)
  let rec settle iterations =
    if iterations > nv + 8 then (iterations, false)
    else begin
      let changed = ref false in
      for k = 0 to nv - 1 do
        arrive k;
        let dep = ref (-.vs.(k).width) in
        for a = first.(k) to first.(k + 1) - 1 do
          dep := Float.max !dep arrival.(a)
        done;
        if !dep > departure.(k) +. 1e-9 then begin
          departure.(k) <- !dep;
          changed := true
        end
      done;
      if !changed then settle (iterations + 1) else (iterations, true)
    end
  in
  let iterations, converged = settle 1 in
  (* without convergence the last sweep's arrivals may predate a
     departure it raised *)
  if not converged then for k = 0 to nv - 1 do arrive k done;
  (* hold: the earliest arrival after the previous closing edge,
     launched at the source's opening.  Complementary latches on the
     same clock port (a master-slave pair) share their clock leaf, so no
     inter-corner skew applies between them. *)
  let early = Array.make n 0.0 and margin = Array.make n hold_margin in
  let violations = ref [] in
  let worst_setup = ref Float.infinity and worst_hold = ref Float.infinity in
  for a = n - 1 downto 0 do
    let j = launch.(a) and v = vs.(capture.(a)) and p = paths.(a) in
    if j < 0 then
      early.(a) <-
        input_delay_min +. (p.min_delay *. derate_early) -. shift.(a) +. period
    else begin
      let u = vs.(j) in
      early.(a) <-
        -.u.width +. ((u.clk2q_min +. p.min_delay) *. derate_early) -. shift.(a)
        +. period;
      if String.equal u.port v.port && Float.abs (u.close -. v.close) > 1e-9
      then margin.(a) <- base_hold_margin
    end;
    let setup = -.arrival.(a) -. setup_margin and hold = early.(a) -. margin.(a) in
    if setup < !worst_setup then worst_setup := setup;
    if hold < !worst_hold then worst_hold := hold;
    if hold < 0.0 then
      violations :=
        { src = p.src; dst = v.inst; kind = `Hold; slack = hold } :: !violations;
    if setup < 0.0 then
      violations :=
        { src = p.src; dst = v.inst; kind = `Setup; slack = setup } :: !violations
  done;
  let arc a =
    let j = launch.(a) in
    { src = paths.(a).src;
      launch = (if j < 0 then None else Some vs.(j));
      capture = vs.(capture.(a));
      arrival = arrival.(a);
      setup_slack = -.arrival.(a) -. setup_margin;
      early = early.(a);
      hold_margin = margin.(a);
      hold_slack = early.(a) -. margin.(a) }
  in
  (* time borrowed: how far into the transparency window the data
     arrives (0 when it is ready before the latch opens) *)
  let max_borrow = ref 0.0 in
  Array.iteri
    (fun k v ->
      let borrow = departure.(k) +. v.width in
      if v.width > 0.0 && borrow > !max_borrow then max_borrow := borrow)
    vs;
  Obs.count "sta.smo.iterations" iterations;
  Obs.count "sta.smo.registers_checked" nv;
  { graph = g; clocks; views; unclocked;
    arcs = lazy (List.init n arc);
    converged;
    report =
      { worst_setup_slack =
          (if not converged then Float.neg_infinity
           else if !worst_setup = Float.infinity then period
           else !worst_setup);
        worst_hold_slack =
          (if !worst_hold = Float.infinity then period else !worst_hold);
        violations = !violations;
        max_borrow = !max_borrow;
        iterations } }

let check ?hold_margin ?clock_skew ?derate d ~clocks =
  (analyse ?hold_margin ?clock_skew ?derate d ~clocks).report

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>setup slack %.4f ns, hold slack %.4f ns, %d violation(s), \
     borrow %.4f ns, %d iteration(s)@]"
    r.worst_setup_slack r.worst_hold_slack (List.length r.violations)
    r.max_borrow r.iterations
