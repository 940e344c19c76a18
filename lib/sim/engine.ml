module Design = Netlist.Design

exception Oscillation of string

type compiled =
  | C_comb of {
      ins : int array;                       (* input nets, pin order *)
      out : int;
      f : Logic.t array -> Logic.t;
      scratch : Logic.t array;
    }
  | C_ff of { clk : int; d : int; q : int; rn : int option }
  | C_latch of {
      en : int;
      d : int;
      q : int;
      rn : int option;
      active_high : bool;
    }
  | C_icg of {
      ck : int;
      en : int;
      gck : int;
      style : Cell_lib.Cell.icg_style;
      p3 : int option;
    }

type t = {
  design : Design.t;
  clocks : Clock_spec.t;
  values : Logic.t array;
  state : Logic.t array;          (* FF/latch state; ICG enable-latch state *)
  prev_clk : Logic.t array;       (* last clock/enable pin value seen per inst *)
  compiled : compiled array;
  fanout_insts : int array array; (* net -> reading instances *)
  clock_insts : int array;        (* clock-network instances in BFS order *)
  toggle_count : int array;
  mutable cycle_count : int;
  period_events : (float * (string * bool) list) list;
  (* level-ordered worklist: woken instances drain lowest level first, so
     every gate sees fully settled inputs of the current wave (glitch-free
     and deterministic; matches Sim.Kernel's evaluation order) *)
  levels : int array;             (* per instance; sequential = last bucket *)
  buckets : int Queue.t array;
  mutable cursor : int;           (* <= lowest non-empty bucket *)
  mutable queued : int;
  in_queue : bool array;
  input_nets : (string * int) list;       (* non-clock PIs *)
  input_index : (string, int) Hashtbl.t;  (* port name -> net *)
}

(* --- Compilation --- *)

let compile_expr pins expr =
  let index p =
    let rec go k = function
      | [] -> invalid_arg ("Engine: function references unknown pin " ^ p)
      | name :: rest -> if String.equal name p then k else go (k + 1) rest
    in
    go 0 pins
  in
  let rec go = function
    | Cell_lib.Expr.Const b ->
      let v = Logic.of_bool b in
      fun _ -> v
    | Cell_lib.Expr.Pin p ->
      let i = index p in
      fun vals -> vals.(i)
    | Cell_lib.Expr.Not e ->
      let fe = go e in
      fun vals -> Logic.lnot (fe vals)
    | Cell_lib.Expr.And (a, b) ->
      let fa = go a and fb = go b in
      fun vals -> Logic.land_ (fa vals) (fb vals)
    | Cell_lib.Expr.Or (a, b) ->
      let fa = go a and fb = go b in
      fun vals -> Logic.lor_ (fa vals) (fb vals)
    | Cell_lib.Expr.Xor (a, b) ->
      let fa = go a and fb = go b in
      fun vals -> Logic.lxor_ (fa vals) (fb vals)
  in
  go expr

let compile_inst d i =
  let c = Design.cell d i in
  let conn pin =
    match Design.pin_net_opt d i pin with
    | Some n -> n
    | None ->
      invalid_arg
        (Printf.sprintf "Engine: %s pin %s unconnected" (Design.inst_name d i) pin)
  in
  match c.Cell_lib.Cell.kind with
  | Cell_lib.Cell.Flip_flop { clock_pin; data_pin; edge; reset_pin } ->
    (* active-low-edge FFs are not used by this project *)
    assert (edge = Cell_lib.Cell.Active_high);
    C_ff { clk = conn clock_pin; d = conn data_pin;
           q = conn "Q"; rn = Option.map conn reset_pin }
  | Cell_lib.Cell.Latch { enable_pin; data_pin; transparent; reset_pin } ->
    C_latch { en = conn enable_pin; d = conn data_pin; q = conn "Q";
              rn = Option.map conn reset_pin;
              active_high = (transparent = Cell_lib.Cell.Active_high) }
  | Cell_lib.Cell.Clock_gate { clock_pin; enable_pin; style; aux_clock_pin } ->
    C_icg { ck = conn clock_pin; en = conn enable_pin; gck = conn "GCK";
            style; p3 = Option.map conn aux_clock_pin }
  | Cell_lib.Cell.Combinational ->
    let input_pins = Cell_lib.Cell.input_pins c in
    let pin_names =
      List.map (fun (p : Cell_lib.Cell.pin) -> p.Cell_lib.Cell.pin_name) input_pins
    in
    let out_pin, func =
      match Cell_lib.Cell.output_pins c with
      | [p] ->
        (match p.Cell_lib.Cell.func with
         | Some f -> p.Cell_lib.Cell.pin_name, f
         | None ->
           invalid_arg
             (Printf.sprintf "Engine: comb cell %s output has no function"
                c.Cell_lib.Cell.name))
      | [] | _ :: _ :: _ ->
        invalid_arg
          (Printf.sprintf "Engine: comb cell %s must have one output"
             c.Cell_lib.Cell.name)
    in
    let ins = Array.of_list (List.map conn pin_names) in
    C_comb { ins; out = conn out_pin; f = compile_expr pin_names func;
             scratch = Array.make (Array.length ins) Logic.LX }

let make_raw ~init design ~clocks =
  let n_nets = Design.num_nets design in
  let n_insts = Design.num_insts design in
  let values = Array.make n_nets Logic.LX in
  let compiled = Array.init n_insts (compile_inst design) in
  let fanout_insts =
    Array.init n_nets (fun n ->
        Array.of_list (List.map fst design.Design.net_sinks.(n)))
  in
  (* constants *)
  Array.iteri
    (fun n drv ->
      match drv with
      | Design.Driven_const v -> values.(n) <- Logic.of_bool v
      | Design.Driven_by _ | Design.Driven_by_input _ | Design.Undriven -> ())
    design.Design.net_driver;
  let init_val = match init with `Zero -> Logic.L0 | `X -> Logic.LX in
  let state = Array.make n_insts init_val in
  let prev_clk = Array.make n_insts Logic.LX in
  let input_nets =
    List.filter_map
      (fun (p, n) ->
        if Design.is_clock_port design p then None else Some (p, n))
      design.Design.primary_inputs
  in
  let input_index = Hashtbl.create (List.length input_nets) in
  List.iter (fun (p, n) -> Hashtbl.replace input_index p n) input_nets;
  let lv = Levelize.compute design in
  let t = {
    design;
    clocks;
    values;
    state;
    prev_clk;
    compiled;
    fanout_insts;
    clock_insts = (Netlist.Clocking.network design).Netlist.Clocking.insts;
    toggle_count = Array.make n_nets 0;
    cycle_count = 0;
    period_events = Clock_spec.events clocks;
    levels = lv.Levelize.level;
    buckets = Array.init lv.Levelize.n_buckets (fun _ -> Queue.create ());
    cursor = 0;
    queued = 0;
    in_queue = Array.make n_insts false;
    input_nets;
    input_index;
  } in
  t

(* --- Worklist ------------------------------------------------------- *)

let wake t i =
  if not t.in_queue.(i) then begin
    t.in_queue.(i) <- true;
    let l = t.levels.(i) in
    Queue.add i t.buckets.(l);
    t.queued <- t.queued + 1;
    if l < t.cursor then t.cursor <- l
  end

let pop t =
  while Queue.is_empty t.buckets.(t.cursor) do
    t.cursor <- t.cursor + 1
  done;
  t.queued <- t.queued - 1;
  Queue.pop t.buckets.(t.cursor)

(* --- Value updates --- *)

(* Record a value change without waking readers (used on clock paths where
   propagation order is explicit). *)
let set_net_quiet t net v =
  let old = t.values.(net) in
  if not (Logic.equal old v) then begin
    (match old, v with
     | (Logic.L0, Logic.L1) | (Logic.L1, Logic.L0) ->
       t.toggle_count.(net) <- t.toggle_count.(net) + 1
     | (Logic.L0 | Logic.L1 | Logic.LX), (Logic.L0 | Logic.L1 | Logic.LX) -> ());
    t.values.(net) <- v
  end

let set_net t net v =
  let old = t.values.(net) in
  if not (Logic.equal old v) then begin
    (match old, v with
     | (Logic.L0, Logic.L1) | (Logic.L1, Logic.L0) ->
       t.toggle_count.(net) <- t.toggle_count.(net) + 1
     | (Logic.L0 | Logic.L1 | Logic.LX), (Logic.L0 | Logic.L1 | Logic.LX) -> ());
    t.values.(net) <- v;
    let fo = t.fanout_insts.(net) in
    for k = 0 to Array.length fo - 1 do
      wake t fo.(k)
    done
  end

(* ICG evaluation: update the internal enable latch, return the gated
   clock value.  The standard cell latches EN while CK is low; the M1
   variant latches while P3 is high; M2 has no latch. *)
let icg_output t i ck en style p3 =
  (match style with
   | Cell_lib.Cell.Icg_standard ->
     if Logic.equal t.values.(ck) Logic.L0 then t.state.(i) <- t.values.(en)
   | Cell_lib.Cell.Icg_m1_p3 ->
     (match p3 with
      | Some p3n ->
        if Logic.equal t.values.(p3n) Logic.L1 then t.state.(i) <- t.values.(en)
      | None -> t.state.(i) <- t.values.(en))
   | Cell_lib.Cell.Icg_m2_latchless -> t.state.(i) <- t.values.(en));
  Logic.land_ t.values.(ck) t.state.(i)

(* Evaluate one instance against the current net values.  FF edges seen
   here (i.e. during data settle, not at a scheduled clock event) capture
   immediately — this models gated-clock glitches. *)
let eval_inst t i =
  match t.compiled.(i) with
  | C_comb { ins; out; f; scratch } ->
    for k = 0 to Array.length ins - 1 do
      scratch.(k) <- t.values.(ins.(k))
    done;
    set_net t out (f scratch)
  | C_ff { clk; d; q; rn } ->
    let cv = t.values.(clk) in
    (match rn with
     | Some rnet when Logic.equal t.values.(rnet) Logic.L0 ->
       t.state.(i) <- Logic.L0
     | Some _ | None ->
       if Logic.rising ~from_:t.prev_clk.(i) ~to_:cv then t.state.(i) <- t.values.(d));
    t.prev_clk.(i) <- cv;
    set_net t q t.state.(i)
  | C_latch { en; d; q; rn; active_high } ->
    let ev = t.values.(en) in
    let transparent =
      match ev, active_high with
      | Logic.L1, true | Logic.L0, false -> true
      | (Logic.L0 | Logic.LX), true | (Logic.L1 | Logic.LX), false -> false
    in
    (match rn with
     | Some rnet when Logic.equal t.values.(rnet) Logic.L0 -> t.state.(i) <- Logic.L0
     | Some _ | None -> if transparent then t.state.(i) <- t.values.(d));
    t.prev_clk.(i) <- ev;
    set_net t q t.state.(i)
  | C_icg { ck; en; gck; style; p3 } ->
    set_net t gck (icg_output t i ck en style p3)

let settle t =
  let budget = 64 * (Design.num_insts t.design + 16) in
  let steps = ref 0 in
  while t.queued > 0 do
    incr steps;
    if !steps > budget then
      raise (Oscillation
               (Printf.sprintf "design %s failed to settle"
                  t.design.Design.design_name));
    let i = pop t in
    t.in_queue.(i) <- false;
    eval_inst t i
  done

(* --- Clock events --- *)

(* Propagate current values through the clock network in BFS order
   (quietly; readers are woken afterwards). *)
let propagate_clock_network t =
  Array.iter
    (fun i ->
      match t.compiled.(i) with
      | C_comb { ins; out; f; scratch } ->
        for k = 0 to Array.length ins - 1 do
          scratch.(k) <- t.values.(ins.(k))
        done;
        set_net_quiet t out (f scratch)
      | C_icg { ck; en; gck; style; p3 } ->
        set_net_quiet t gck (icg_output t i ck en style p3)
      | C_ff _ | C_latch _ -> ())
    t.clock_insts

(* Process one scheduled clock event: all FFs whose clock rises capture
   their pre-event data simultaneously; latch transparency updates; then
   the data network settles. *)
let apply_clock_event t changes =
  (* 1. apply clock port levels *)
  List.iter
    (fun (port, level) ->
      match Design.find_input t.design port with
      | Some net -> set_net_quiet t net (Logic.of_bool level)
      | None -> ())
    changes;
  (* 2. propagate through the clock network in BFS order *)
  propagate_clock_network t;
  (* 3. simultaneous FF captures + latch transparency transitions *)
  let pending = ref [] in
  Array.iteri
    (fun i comp ->
      match comp with
      | C_ff { clk; d; q; rn } ->
        let cv = t.values.(clk) in
        let reset_active =
          match rn with
          | Some rnet -> Logic.equal t.values.(rnet) Logic.L0
          | None -> false
        in
        if reset_active then begin
          t.state.(i) <- Logic.L0;
          pending := (q, Logic.L0) :: !pending
        end
        else if Logic.rising ~from_:t.prev_clk.(i) ~to_:cv then begin
          t.state.(i) <- t.values.(d);
          pending := (q, t.state.(i)) :: !pending
        end;
        t.prev_clk.(i) <- cv
      | C_latch { en; d; q; rn; active_high } ->
        let ev = t.values.(en) in
        let transparent =
          match ev, active_high with
          | Logic.L1, true | Logic.L0, false -> true
          | (Logic.L0 | Logic.LX), true | (Logic.L1 | Logic.LX), false -> false
        in
        let reset_active =
          match rn with
          | Some rnet -> Logic.equal t.values.(rnet) Logic.L0
          | None -> false
        in
        if reset_active then begin
          t.state.(i) <- Logic.L0;
          pending := (q, Logic.L0) :: !pending
        end
        else if transparent then begin
          t.state.(i) <- t.values.(d);
          pending := (q, t.state.(i)) :: !pending
        end;
        t.prev_clk.(i) <- ev
      | C_comb _ | C_icg _ -> ())
    t.compiled;
  (* 4. release the new register outputs and settle the data network.
     Also wake the readers of every clock net that changed in step 2 —
     transparent latches notice their enable through eval_inst. *)
  List.iter (fun (q, v) -> set_net t q v) !pending;
  List.iter
    (fun (port, _) ->
      match Design.find_input t.design port with
      | Some net ->
        let fo = t.fanout_insts.(net) in
        for k = 0 to Array.length fo - 1 do
          wake t fo.(k)
        done
      | None -> ())
    changes;
  Array.iter
    (fun i ->
      match t.compiled.(i) with
      | C_comb { out; _ } | C_icg { gck = out; _ } ->
        let fo = t.fanout_insts.(out) in
        for k = 0 to Array.length fo - 1 do
          wake t fo.(k)
        done
      | C_ff _ | C_latch _ -> ())
    t.clock_insts;
  settle t

let design t = t.design

let net_value t n = t.values.(n)

let cycles t = t.cycle_count

let toggles t = t.toggle_count

let output_sample t =
  List.map
    (fun (port, net) -> (port, t.values.(net)))
    t.design.Design.primary_outputs

let run_cycle t inputs =
  (* Primary inputs behave like signals launched at the start of the
     cycle: they change right after the first rising clock event (the
     FF capture edge, or the opening of p1), so captures at that event
     still see the previous values. *)
  let evs = t.period_events in
  let first_rise =
    List.fold_left
      (fun acc (time, changes) ->
        match acc with
        | Some _ -> acc
        | None -> if List.exists snd changes then Some time else None)
      None evs
  in
  let threshold = Option.value ~default:(-1.0) first_rise in
  List.iter
    (fun (time, changes) -> if time <= threshold +. 1e-9 then apply_clock_event t changes)
    evs;
  List.iter
    (fun (port, v) ->
      match Hashtbl.find_opt t.input_index port with
      | Some net -> set_net t net v
      | None -> invalid_arg (Printf.sprintf "Engine.run_cycle: unknown input %s" port))
    inputs;
  settle t;
  List.iter
    (fun (time, changes) -> if time > threshold +. 1e-9 then apply_clock_event t changes)
    evs;
  t.cycle_count <- t.cycle_count + 1;
  output_sample t

let run_stream t stream = List.map (run_cycle t) stream

(* Establish a consistent pre-time-0 state: clock nets at their level just
   before the first event, register outputs reflecting the initial state,
   and the whole data network settled. *)
let create ?(init = `Zero) design ~clocks =
  let t = make_raw ~init design ~clocks in
  let just_before_zero = clocks.Clock_spec.period *. (1.0 -. 1e-7) in
  List.iter
    (fun (port, _) ->
      match Design.find_input design port, Clock_spec.level_at clocks port just_before_zero with
      | Some net, Some level -> t.values.(net) <- Logic.of_bool level
      | Some net, None -> t.values.(net) <- Logic.LX
      | None, _ -> ())
    clocks.Clock_spec.ports;
  (match init with
   | `Zero ->
     List.iter (fun (_, net) -> t.values.(net) <- Logic.L0) t.input_nets
   | `X -> ());
  propagate_clock_network t;
  Array.iteri
    (fun i comp ->
      match comp with
      | C_ff { clk; q; _ } ->
        t.prev_clk.(i) <- t.values.(clk);
        t.values.(q) <- t.state.(i)
      | C_latch { en; q; _ } ->
        t.prev_clk.(i) <- t.values.(en);
        t.values.(q) <- t.state.(i)
      | C_comb _ | C_icg _ -> ())
    t.compiled;
  (* settle the combinational network against the initial register state
     so enable cones carry their reset values *)
  Array.iteri
    (fun i comp ->
      match comp with
      | C_comb _ -> wake t i
      | C_ff _ | C_latch _ | C_icg _ -> ())
    t.compiled;
  settle t;
  (* clock-gate enable latches behave as if the clocks had always been
     running: they hold the settled enable of the initial state (a real
     ICG tracked EN during the low phase "before" time zero).  Without
     this, gated level-sensitive latches miss the capture that the
     flip-flop reference performs on its very first active edge. *)
  Array.iteri
    (fun i comp ->
      match comp with
      | C_icg { en; _ } ->
        (match init with
         | `Zero -> t.state.(i) <- t.values.(en)
         | `X -> ())
      | C_comb _ | C_ff _ | C_latch _ -> ())
    t.compiled;
  propagate_clock_network t;
  (* final settle: latches whose (possibly gated) enables are active at
     time zero-minus now track their data inputs *)
  Array.iteri (fun i _ -> wake t i) t.compiled;
  settle t;
  t
