type mismatch = {
  cycle : int;
  port : string;
  lane : int;
  expected : Logic.t;
  got : Logic.t;
}

type verdict =
  | Equivalent of { shift : int }
  | Mismatch of mismatch

let pp_mismatch ppf m =
  Format.fprintf ppf "cycle %d port %s lane %d: expected %a, got %a"
    m.cycle m.port m.lane Logic.pp m.expected Logic.pp m.got

(* The one verdict rule.  The dut lags the reference by [shift] cycles:
   shift [s] compares reference cycle [c] with dut cycle [c + s] for
   every [c] from [warmup] while both streams last, and [first_diff c s]
   is the first difference of that pair of cycles, if any.  An empty
   window compares nothing, so it proves nothing: it is not a match. *)
let search ~caller ~warmup ~max_shift ~ref_cycles ~dut_cycles first_diff =
  let rec window shift n cycle =
    if cycle >= n then None
    else
      match first_diff cycle shift with
      | None -> window shift n (cycle + 1)
      | Some _ as m -> m
  in
  let rec attempt shift first_error =
    if shift > max_shift then
      match first_error with
      | Some m -> Mismatch m
      | None ->
        invalid_arg
          (Printf.sprintf
             "%s: no cycle past warmup %d to compare (streams of %d and %d \
              cycles, shifts 0..%d)"
             caller warmup ref_cycles dut_cycles max_shift)
    else
      let n = min ref_cycles (dut_cycles - shift) in
      if n <= warmup then attempt (shift + 1) first_error
      else
        match window shift n warmup with
        | None -> Equivalent { shift }
        | Some m ->
          let first_error = match first_error with None -> Some m | Some _ -> first_error in
          attempt (shift + 1) first_error
  in
  attempt 0 None

let sample_mismatch cycle ref_sample dut_sample =
  List.fold_left
    (fun acc (port, expected) ->
      match acc with
      | Some _ -> acc
      | None ->
        (match List.assoc_opt port dut_sample with
         | None -> Some { cycle; port; lane = 0; expected; got = Logic.LX }
         | Some got ->
           if Logic.equal expected got then None
           else Some { cycle; port; lane = 0; expected; got }))
    None ref_sample

let compare_streams ~warmup ~max_shift ref_stream dut_stream =
  let ref_arr = Array.of_list ref_stream in
  let dut_arr = Array.of_list dut_stream in
  search ~caller:"Equivalence.compare_streams" ~warmup ~max_shift
    ~ref_cycles:(Array.length ref_arr) ~dut_cycles:(Array.length dut_arr)
    (fun cycle shift ->
      sample_mismatch cycle ref_arr.(cycle) dut_arr.(cycle + shift))

(* [check]'s defaults, and the fixed rules of [check_packed] *)
let default_warmup = 8
let default_max_shift = 2

(* the shortest stream on which every shift's window holds a cycle *)
let min_cycles ?(warmup = default_warmup) ?(max_shift = default_max_shift) () =
  warmup + max_shift + 1

let require_cycles ~caller ~warmup ~max_shift cycles =
  let needed = min_cycles ~warmup ~max_shift () in
  if cycles < needed then
    invalid_arg
      (Printf.sprintf
         "%s: %d stimulus cycles; warmup %d and shifts up to %d need at \
          least %d"
         caller cycles warmup max_shift needed)

let check ?(warmup = default_warmup) ?(max_shift = default_max_shift)
    ~reference ~dut ~reference_clocks ~dut_clocks ~stimulus () =
  require_cycles ~caller:"Equivalence.check" ~warmup ~max_shift
    (List.length stimulus);
  let ref_engine = Engine.create reference ~clocks:reference_clocks in
  let dut_engine = Engine.create dut ~clocks:dut_clocks in
  let ref_stream = Engine.run_stream ref_engine stimulus in
  let dut_stream = Engine.run_stream dut_engine stimulus in
  compare_streams ~warmup ~max_shift ref_stream dut_stream

(* lane [lane] of a pair of planes *)
let logic_at v x lane =
  if (x lsr lane) land 1 <> 0 then Logic.LX
  else if (v lsr lane) land 1 <> 0 then Logic.L1
  else Logic.L0

let rec lowest_lane w lane = if w land 1 <> 0 then lane else lowest_lane (w lsr 1) (lane + 1)

type samples = {
  ports : string array;
  cycles : int;
  values : int array;
  unknowns : int array;
}

let outputs ?ports d =
  let named =
    match ports with
    | None -> d.Netlist.Design.primary_outputs
    | Some ports ->
      List.filter_map
        (fun port ->
          Option.map (fun net -> (port, net))
            (List.assoc_opt port d.Netlist.Design.primary_outputs))
        (Array.to_list ports)
  in
  (Array.of_list (List.map fst named), Array.of_list (List.map snd named))

let samples ~ports ~cycles (values, unknowns) =
  let words = cycles * Array.length ports in
  if cycles < 0 || Array.length values <> words || Array.length unknowns <> words
  then
    invalid_arg
      (Printf.sprintf
         "Equivalence.samples: %d cycles of %d ports are %d words a plane"
         cycles (Array.length ports) words);
  { ports; cycles; values; unknowns }

(* Each kernel simulates only the fan-in of the nets it samples. *)
let sample ?ports d ~clocks (stimulus : Stimulus.packed) =
  let ports, nets = outputs ?ports d in
  samples ~ports ~cycles:stimulus.cycles
    (Kernel.run_sampled (Kernel.create ~observe:nets d ~clocks) stimulus nets)

(* A cycle pair compares one value word and one unknown word per port,
   all lanes at once.  A port the dut lacks reads X on every lane and
   mismatches on every lane, as in [sample_mismatch]. *)
let verdict ~reference ~dut =
  let warmup = default_warmup and max_shift = default_max_shift in
  require_cycles ~caller:"Equivalence.verdict" ~warmup ~max_shift
    (min reference.cycles dut.cycles);
  let ports = reference.ports and width = Array.length dut.ports in
  let m = Array.length ports in
  (* column of each reference port among the dut's, -1 if it lacks it *)
  let column =
    let at = Hashtbl.create (max 1 width) in
    Array.iteri (fun j port -> Hashtbl.replace at port j) dut.ports;
    Array.map
      (fun port -> Option.value ~default:(-1) (Hashtbl.find_opt at port))
      ports
  in
  let ref_v = reference.values and ref_x = reference.unknowns in
  let dut_v = dut.values and dut_x = dut.unknowns in
  let compared = ref 0 in
  let first_diff cycle shift =
    let rec port j =
      if j >= m then None
      else begin
        incr compared;
        let ev = ref_v.((cycle * m) + j) and ex = ref_x.((cycle * m) + j) in
        let col = column.(j) in
        let at = ((cycle + shift) * width) + col in
        let gv = if col < 0 then 0 else dut_v.(at) in
        let gx = if col < 0 then -1 else dut_x.(at) in
        let diff = if col < 0 then -1 else (ev lxor gv) lor (ex lxor gx) in
        if diff = 0 then port (j + 1)
        else
          let lane = lowest_lane diff 0 in
          Some { cycle; port = ports.(j); lane;
                 expected = logic_at ev ex lane; got = logic_at gv gx lane }
      end
    in
    port 0
  in
  let verdict =
    search ~caller:"Equivalence.verdict" ~warmup ~max_shift
      ~ref_cycles:reference.cycles ~dut_cycles:dut.cycles first_diff
  in
  Obs.count "sim.equivalence.compared" !compared;
  verdict

let check_packed ~reference ~dut ~reference_clocks ~dut_clocks ~stimulus () =
  let reference = sample reference ~clocks:reference_clocks stimulus in
  verdict ~reference
    ~dut:(sample ~ports:reference.ports dut ~clocks:dut_clocks stimulus)
