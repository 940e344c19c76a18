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

let run ?(setup_margin = 0.03) ?(input_delay = (0.05, 0.10)) d ~clocks
    ~(views : Sta.Smo.reg_view list) ~(paths : Sta.Paths.path list) =
  Obs.span "lint.phase_audit" @@ fun () ->
  let _, input_delay_max = input_delay in
  let period = clocks.Sim.Clock_spec.period in
  let view_of = Hashtbl.create 64 in
  List.iter (fun v -> Hashtbl.replace view_of v.Sta.Smo.inst v) views;
  let diags = ref [] in
  let add dg = diags := dg :: !diags in
  let arc_obj src (v : Sta.Smo.reg_view) =
    D.Object
      (Printf.sprintf "%s -> %s" (endpoint_name d src) (Design.inst_name d v.inst))
  in
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
  (* window legality: latch-to-latch arcs must connect non-overlapping
     transparency windows *)
  List.iter
    (fun (p : Sta.Paths.path) ->
      match (p.src, p.dst) with
      | Sta.Paths.Reg js, Sta.Paths.Reg jd ->
        (match (Hashtbl.find_opt view_of js, Hashtbl.find_opt view_of jd) with
         | Some vs, Some vd when vs.width > 0.0 && vd.width > 0.0 ->
           let same_phase =
             String.equal vs.port vd.port
             && Float.abs (vs.close -. vd.close) <= 1e-9
           in
           if
             (not same_phase)
             && Some vs.port = last_phase
             && Some vd.port = first_phase
           then
             add
               (D.makef ~rule:"PHASE-007" ~severity:D.Error ~loc:(arc_obj p.src vd)
                  "latch %s (%s, the last phase) feeds latch %s (%s, the \
                   first phase) directly: the cycle boundary must be \
                   crossed through the middle phase"
                  (Design.inst_name d js) vs.port
                  (Design.inst_name d jd) vd.port);
           if same_phase then
             add
               (D.makef ~rule:"PHASE-001" ~severity:D.Error ~loc:(arc_obj p.src vd)
                  "latch %s feeds latch %s on the same phase (%s closing at \
                   %.4f ns): data races through both transparent windows"
                  (Design.inst_name d js) (Design.inst_name d jd)
                  vd.port vd.close)
           else if
             windows_overlap period (vs.close -. vs.width) vs.width
               (vd.close -. vd.width) vd.width
           then
             add
               (D.makef ~rule:"PHASE-005" ~severity:D.Error ~loc:(arc_obj p.src vd)
                  "transparency windows of latch %s (%s) and latch %s (%s) \
                   overlap on a connecting path"
                  (Design.inst_name d js) vs.port
                  (Design.inst_name d jd) vd.port)
         | _ -> ())
      | _ -> ())
    paths;
  (* arcs into each viewed destination register *)
  let into = Hashtbl.create 64 in
  List.iter
    (fun (p : Sta.Paths.path) ->
      match p.dst with
      | Sta.Paths.Reg jd when Hashtbl.mem view_of jd ->
        let keep =
          match p.src with
          | Sta.Paths.Port _ -> true
          | Sta.Paths.Reg js -> Hashtbl.mem view_of js
        in
        if keep then
          Hashtbl.replace into jd
            (p :: (Option.value ~default:[] (Hashtbl.find_opt into jd)))
      | Sta.Paths.Reg _ | Sta.Paths.Port _ -> ())
    paths;
  (* departure-time fixed point, exactly the SMO recurrence but with one
     launch time per register instead of per class *)
  let departures = Hashtbl.create 64 in
  List.iter
    (fun (v : Sta.Smo.reg_view) -> Hashtbl.replace departures v.inst (-.v.width))
    views;
  let arc_arrival (v : Sta.Smo.reg_view) (p : Sta.Paths.path) =
    match p.src with
    | Sta.Paths.Port _ ->
      let shift = Sta.Smo.forward_shift period 0.0 v.close in
      Some (input_delay_max +. p.max_delay -. shift)
    | Sta.Paths.Reg js ->
      (match Hashtbl.find_opt view_of js with
       | None -> None
       | Some vs ->
         let shift = Sta.Smo.forward_shift period vs.close v.close in
         Some
           (Hashtbl.find departures js
            +. vs.clk2q_max +. p.max_delay -. shift))
  in
  let arrival_of (v : Sta.Smo.reg_view) =
    List.fold_left
      (fun acc p ->
        match arc_arrival v p with None -> acc | Some a -> Float.max acc a)
      Float.neg_infinity
      (Option.value ~default:[] (Hashtbl.find_opt into v.inst))
  in
  let iterations = ref 0 in
  let changed = ref true in
  let diverged = ref false in
  while !changed && not !diverged do
    incr iterations;
    if !iterations > List.length views + 8 then diverged := true
    else begin
      changed := false;
      List.iter
        (fun (v : Sta.Smo.reg_view) ->
          let dep = Float.max (-.v.width) (arrival_of v) in
          let old = Hashtbl.find departures v.inst in
          if dep > old +. 1e-9 then begin
            Hashtbl.replace departures v.inst dep;
            changed := true
          end)
        views
    end
  done;
  if !diverged then
    add
      (D.makef ~rule:"PHASE-004" ~severity:D.Error
         "latch departure times failed to converge after %d iterations: \
          time borrowing accumulates around a loop"
         !iterations)
  else
    (* per-arc setup / borrow audit at the fixed point *)
    List.iter
      (fun (v : Sta.Smo.reg_view) ->
        List.iter
          (fun (p : Sta.Paths.path) ->
            match arc_arrival v p with
            | None -> ()
            | Some arr ->
              let slack = -.arr -. setup_margin in
              if slack < -1e-9 then
                if v.width <= 0.0 then
                  add
                    (D.makef ~rule:"PHASE-002" ~severity:D.Error
                       ~loc:(arc_obj p.src v)
                       "setup violation at %s on the arc from %s: data \
                        arrives %.4f ns after the capturing edge allows \
                        (slack %.4f ns)"
                       (Design.inst_name d v.inst)
                       (endpoint_name d p.src) arr slack)
                else
                  add
                    (D.makef ~rule:"PHASE-003" ~severity:D.Error
                       ~loc:(arc_obj p.src v)
                       "latch %s borrows %.4f ns on the arc from %s but its \
                        transparency window is only %.4f ns (slack %.4f ns)"
                       (Design.inst_name d v.inst)
                       (arr +. v.width)
                       (endpoint_name d p.src) v.width slack))
          (Option.value ~default:[] (Hashtbl.find_opt into v.inst)))
      views;
  List.rev !diags
