module D = Lint_core.Diagnostic

let err ~rule ~obj fmt = D.makef ~rule ~severity:D.Error ~loc:(D.Object obj) fmt
let warn ~rule ~obj fmt = D.makef ~rule ~severity:D.Warning ~loc:(D.Object obj) fmt

(* NET-001: every instance input pin and primary output must be driven *)
let check_drivers d diags =
  let diags = ref diags in
  for i = 0 to Design.num_insts d - 1 do
    List.iter
      (fun net ->
        match d.Design.net_driver.(net) with
        | Design.Undriven ->
          diags := err ~rule:"NET-001" ~obj:(Design.inst_name d i)
              "instance %s reads undriven net %s"
              (Design.inst_name d i) (Design.net_name d net) :: !diags
        | Design.Driven_by _ | Design.Driven_by_input _ | Design.Driven_const _ -> ())
      (Design.input_nets d i)
  done;
  List.iter
    (fun (port, net) ->
      match d.Design.net_driver.(net) with
      | Design.Undriven ->
        diags := err ~rule:"NET-001" ~obj:port
            "primary output %s is undriven" port :: !diags
      | Design.Driven_by _ | Design.Driven_by_input _ | Design.Driven_const _ -> ())
    d.Design.primary_outputs;
  !diags

(* NET-002: the combinational network must be acyclic *)
let check_comb_cycles d diags =
  match Traverse.comb_topo d with
  | Ok _ -> diags
  | Error insts ->
    let example = match insts with [] -> "?" | i :: _ -> Design.inst_name d i in
    err ~rule:"NET-002" ~obj:example
      "combinational cycle involving %d instances (e.g. %s)"
      (List.length insts) example
    :: diags

(* NET-003: every sequential clock pin traces back to a clock port *)
let check_clock_roots d diags =
  List.fold_left
    (fun diags i ->
      match Design.clock_net_of d i with
      | None ->
        err ~rule:"NET-003" ~obj:(Design.inst_name d i)
          "sequential instance %s has no clock connection" (Design.inst_name d i)
        :: diags
      | Some net ->
        (match Clocking.trace_to_root d net with
         | Some _ -> diags
         | None ->
           err ~rule:"NET-003" ~obj:(Design.inst_name d i)
             "clock pin of %s does not trace to a clock port (net %s)"
             (Design.inst_name d i) (Design.net_name d net)
           :: diags))
    diags (Design.sequential_insts d)

(* NET-004: instance and net names are unique *)
let check_unique_names d diags =
  let dup what names diags =
    let seen = Hashtbl.create (Array.length names) in
    Array.fold_left
      (fun diags name ->
        if Hashtbl.mem seen name then
          warn ~rule:"NET-004" ~obj:name "duplicate %s name %s" what name :: diags
        else begin
          Hashtbl.add seen name ();
          diags
        end)
      diags names
  in
  diags |> dup "net" d.Design.net_names |> dup "instance" d.Design.inst_names

(* NET-005: driven nets should be read somewhere *)
let check_dangling d diags =
  let used = Array.make (Design.num_nets d) false in
  List.iter (fun (_, n) -> used.(n) <- true) d.Design.primary_outputs;
  for i = 0 to Design.num_insts d - 1 do
    List.iter (fun n -> used.(n) <- true) (Design.input_nets d i)
  done;
  let diags = ref diags in
  for i = 0 to Design.num_insts d - 1 do
    List.iter
      (fun n ->
        if not used.(n) then
          diags := warn ~rule:"NET-005" ~obj:(Design.net_name d n)
              "output net %s of %s drives nothing"
              (Design.net_name d n) (Design.inst_name d i) :: !diags)
      (Design.output_nets d i)
  done;
  !diags

let diagnostics d =
  Obs.span "lint.structural" @@ fun () ->
  []
  |> check_drivers d
  |> check_comb_cycles d
  |> check_clock_roots d
  |> check_unique_names d
  |> check_dangling d
  |> List.rev

let errors diagnostics =
  List.filter_map
    (fun dg -> if D.is_error dg then Some dg.D.message else None)
    diagnostics

let validate d =
  match errors (diagnostics d) with [] -> Ok () | e -> Error e
