type stats = {
  folded : int;
  collapsed : int;
  swept : int;
}

(* three-valued constant evaluation over cell functions *)
let rec eval_const env = function
  | Cell_lib.Expr.Const b -> Some b
  | Cell_lib.Expr.Pin p -> env p
  | Cell_lib.Expr.Not e -> Option.map not (eval_const env e)
  | Cell_lib.Expr.And (a, b) ->
    (match eval_const env a, eval_const env b with
     | Some false, _ | _, Some false -> Some false
     | Some true, Some true -> Some true
     | _, _ -> None)
  | Cell_lib.Expr.Or (a, b) ->
    (match eval_const env a, eval_const env b with
     | Some true, _ | _, Some true -> Some true
     | Some false, Some false -> Some false
     | _, _ -> None)
  | Cell_lib.Expr.Xor (a, b) ->
    (match eval_const env a, eval_const env b with
     | Some x, Some y -> Some (x <> y)
     | _, _ -> None)

let run d =
  let n_nets = Design.num_nets d in
  (* --- constant propagation (memoised, cycle-guarded) --------------- *)
  let const_memo : bool option option array = Array.make n_nets None in
  let rec const_of net =
    match const_memo.(net) with
    | Some v -> v
    | None ->
      const_memo.(net) <- Some None;  (* guard *)
      let v =
        match d.Design.net_driver.(net) with
        | Design.Driven_const b -> Some b
        | Design.Driven_by_input _ | Design.Undriven -> None
        | Design.Driven_by (i, pin) ->
          let c = Design.cell d i in
          (match c.Cell_lib.Cell.kind with
           | Cell_lib.Cell.Combinational ->
             (match Cell_lib.Cell.find_pin c pin with
              | Some { Cell_lib.Cell.func = Some f; _ } ->
                eval_const
                  (fun pname ->
                    match Design.pin_net_opt d i pname with
                    | Some m -> const_of m
                    | None -> None)
                  f
              | Some _ | None -> None)
           | Cell_lib.Cell.Flip_flop _ | Cell_lib.Cell.Latch _
           | Cell_lib.Cell.Clock_gate _ -> None)
      in
      const_memo.(net) <- Some v;
      v
  in
  (* clock-network nets: buffers there stay (they model the clock tree) *)
  let on_clock = (Clocking.network d).Clocking.has_net in
  (* --- classification ------------------------------------------------ *)
  (* per net: `Keep, `Const of bool, or `Alias of source_net *)
  let folded = ref 0 and collapsed = ref 0 in
  let classify = Array.make n_nets `Keep in
  for net = 0 to n_nets - 1 do
    match d.Design.net_driver.(net) with
    | Design.Driven_by (i, pin) when not (on_clock net) ->
      let c = Design.cell d i in
      (match c.Cell_lib.Cell.kind with
       | Cell_lib.Cell.Combinational ->
         (match const_of net with
          | Some b ->
            classify.(net) <- `Const b;
            incr folded
          | None ->
            (* non-inverting single-input cell = buffer *)
            (match Cell_lib.Cell.find_pin c pin with
             | Some { Cell_lib.Cell.func = Some (Cell_lib.Expr.Pin p); _ } ->
               (match Design.pin_net_opt d i p with
                | Some src ->
                  classify.(net) <- `Alias src;
                  incr collapsed
                | None -> ())
             | Some _ | None -> ()))
       | Cell_lib.Cell.Flip_flop _ | Cell_lib.Cell.Latch _
       | Cell_lib.Cell.Clock_gate _ -> ())
    | Design.Driven_by _ | Design.Driven_by_input _ | Design.Driven_const _
    | Design.Undriven -> ()
  done;
  (* resolve a net to its representative through alias/const chains *)
  let rec resolve net fuel =
    if fuel = 0 then `Keep_net net
    else
      match classify.(net) with
      | `Const b -> `Const b
      | `Alias src -> resolve src (fuel - 1)
      | `Keep -> `Keep_net net
  in
  let resolve net = resolve net n_nets in
  (* an instance is obsolete when its only role was producing a folded or
     collapsed net *)
  let inst_obsolete i =
    let c = Design.cell d i in
    c.Cell_lib.Cell.kind = Cell_lib.Cell.Combinational
    && (match Design.output_nets d i with
        | [out] ->
          (match classify.(out) with `Const _ | `Alias _ -> true | `Keep -> false)
        | [] | _ :: _ :: _ -> false)
  in
  (* --- liveness sweep ------------------------------------------------ *)
  let live_net = Array.make n_nets false in
  let queue = Queue.create () in
  let mark net =
    match resolve net with
    | `Const _ -> ()
    | `Keep_net m ->
      if not live_net.(m) then begin
        live_net.(m) <- true;
        Queue.add m queue
      end
  in
  List.iter (fun (_, net) -> mark net) d.Design.primary_outputs;
  Design.fold_insts
    (fun i () ->
      let c = Design.cell d i in
      match c.Cell_lib.Cell.kind with
      | Cell_lib.Cell.Flip_flop _ | Cell_lib.Cell.Latch _
      | Cell_lib.Cell.Clock_gate _ ->
        List.iter mark (Design.input_nets d i)
      | Cell_lib.Cell.Combinational -> ())
    d ();
  while not (Queue.is_empty queue) do
    let net = Queue.pop queue in
    match d.Design.net_driver.(net) with
    | Design.Driven_by (i, _) when not (inst_obsolete i) ->
      List.iter mark (Design.input_nets d i)
    | Design.Driven_by _ | Design.Driven_by_input _ | Design.Driven_const _
    | Design.Undriven -> ()
  done;
  let swept = ref 0 in
  let keep_inst i =
    let c = Design.cell d i in
    match c.Cell_lib.Cell.kind with
    | Cell_lib.Cell.Flip_flop _ | Cell_lib.Cell.Latch _
    | Cell_lib.Cell.Clock_gate _ -> true
    | Cell_lib.Cell.Combinational ->
      if inst_obsolete i then false
      else if (match Design.output_nets d i with
          | out :: _ -> on_clock out
          | [] -> false)
      then true
      else
        let alive = List.exists (fun n -> live_net.(n)) (Design.output_nets d i) in
        if not alive then incr swept;
        alive
  in
  (* --- rebuild -------------------------------------------------------- *)
  let b = Builder.create ~name:d.Design.design_name ~library:d.Design.library in
  let net_map = Array.make n_nets (-1) in
  List.iter
    (fun (port, net) ->
      net_map.(net) <- Builder.add_input ~clock:(Design.is_clock_port d port) b port)
    d.Design.primary_inputs;
  let rec map_net net =
    match resolve net with
    | `Const v -> Builder.const b v
    | `Keep_net m ->
      if m <> net then map_net m
      else begin
        (match d.Design.net_driver.(m) with
         | Design.Driven_const v -> if net_map.(m) < 0 then net_map.(m) <- Builder.const b v
         | Design.Driven_by _ | Design.Driven_by_input _ | Design.Undriven -> ());
        if net_map.(m) < 0 then net_map.(m) <- Builder.fresh_net b (Design.net_name d m);
        net_map.(m)
      end
  in
  Design.fold_insts
    (fun i () ->
      if keep_inst i then begin
        let conns =
          Array.to_list d.Design.inst_conns.(i)
          |> List.map (fun (pin, net) -> (pin, map_net net))
        in
        ignore (Builder.add_instance b (Design.inst_name d i) (Design.cell d i) conns)
      end)
    d ();
  List.iter
    (fun (port, net) -> Builder.add_output b port (map_net net))
    d.Design.primary_outputs;
  (Builder.freeze b, { folded = !folded; collapsed = !collapsed; swept = !swept })
