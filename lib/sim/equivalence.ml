type mismatch = {
  cycle : int;
  port : string;
  expected : Logic.t;
  got : Logic.t;
}

type verdict =
  | Equivalent of { shift : int }
  | Mismatch of mismatch

let pp_mismatch ppf m =
  Format.fprintf ppf "cycle %d port %s: expected %a, got %a"
    m.cycle m.port Logic.pp m.expected Logic.pp m.got

let sample_mismatch cycle ref_sample dut_sample =
  List.fold_left
    (fun acc (port, expected) ->
      match acc with
      | Some _ -> acc
      | None ->
        (match List.assoc_opt port dut_sample with
         | None -> Some { cycle; port; expected; got = Logic.LX }
         | Some got ->
           if Logic.equal expected got then None
           else Some { cycle; port; expected; got }))
    None ref_sample

(* dut lags the reference by [shift] cycles; the window is cycles
   [warmup .. n-1].  An empty window compares nothing, so it proves
   nothing: it is not a match. *)
let try_shift ~warmup shift ref_arr dut_arr =
  let n = min (Array.length ref_arr) (Array.length dut_arr - shift) in
  let rec go cycle =
    if cycle >= n then `Match
    else
      match sample_mismatch cycle ref_arr.(cycle) dut_arr.(cycle + shift) with
      | None -> go (cycle + 1)
      | Some m -> `Mismatch m
  in
  if n <= warmup then `Empty else go warmup

let compare_streams ~warmup ~max_shift ref_stream dut_stream =
  let ref_arr = Array.of_list ref_stream in
  let dut_arr = Array.of_list dut_stream in
  let rec attempt shift first_error =
    if shift > max_shift then
      match first_error with
      | Some m -> Mismatch m
      | None ->
        invalid_arg
          (Printf.sprintf
             "Equivalence.compare_streams: no cycle past warmup %d to compare \
              (streams of %d and %d cycles, shifts 0..%d)"
             warmup (Array.length ref_arr) (Array.length dut_arr) max_shift)
    else
      match try_shift ~warmup shift ref_arr dut_arr with
      | `Match -> Equivalent { shift }
      | `Empty -> attempt (shift + 1) first_error
      | `Mismatch m ->
        let first_error = match first_error with None -> Some m | Some _ -> first_error in
        attempt (shift + 1) first_error
  in
  attempt 0 None

(* the shortest stream on which every shift's window holds a cycle *)
let min_cycles ?(warmup = 8) ?(max_shift = 2) () = warmup + max_shift + 1

let check ?(warmup = 8) ?(max_shift = 2) ~reference ~dut ~reference_clocks
    ~dut_clocks ~stimulus () =
  let cycles = List.length stimulus in
  let needed = min_cycles ~warmup ~max_shift () in
  if cycles < needed then
    invalid_arg
      (Printf.sprintf
         "Equivalence.check: %d stimulus cycles; warmup %d and shifts up to %d \
          need at least %d"
         cycles warmup max_shift needed);
  let ref_engine = Engine.create reference ~clocks:reference_clocks in
  let dut_engine = Engine.create dut ~clocks:dut_clocks in
  let ref_stream = Engine.run_stream ref_engine stimulus in
  let dut_stream = Engine.run_stream dut_engine stimulus in
  compare_streams ~warmup ~max_shift ref_stream dut_stream
