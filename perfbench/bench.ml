(* The conversion-flow benchmark: one workload, one seed, one run.
   README.md describes the workloads and the metrics; run.py builds this
   executable and runs it. *)

(* One job, always: see README.md. *)
let jobs = "1"

let now = Unix.gettimeofday

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* Linear interpolation between order statistics. *)
let quantile q xs =
  let a = Array.of_list (List.sort compare xs) in
  let h = q *. float_of_int (Array.length a - 1) in
  let i = int_of_float h in
  if i + 1 >= Array.length a then a.(i)
  else a.(i) +. ((h -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

let summary name xs =
  Printf.printf "%s: median %.6f, q1 %.6f, q3 %.6f, %d samples:%s\n" name
    (median xs) (quantile 0.25 xs) (quantile 0.75 xs) (List.length xs)
    (String.concat "" (List.map (Printf.sprintf " %.4f") xs))

(* Every probe, and so every timed set-up and conversion, starts from
   the same state: empty Obs buffers and a compacted heap. *)
let isolate () =
  Obs.reset ();
  Gc.compact ()

(* A round is a group of set-ups (each tens of ms) and one pass, with a
   host probe (Host) before each set-up and each conversion and after the
   last of each, so that set-up and pass samples are spread over the same
   stretch of the run and each is scaled by probes taken right beside it. *)
let setups_per_round = 8
let min_rounds = 5

(* Calls [f] until [seconds] have passed and [f] ran [min] times. *)
let repeat ~seconds ~min f =
  let t0 = now () in
  let rec go acc n =
    if n >= min && now () -. t0 >= seconds then List.rev acc
    else go (f () :: acc) (n + 1)
  in
  go [] 0

(* What every CLI run pays before the flow starts: the cell library and
   every input netlist, parsed.  Returns the time and the library and
   designs. *)
let setup (w : Draw.workload) =
  let t0 = now () in
  let library = Cell_lib.Library.of_liberty Cell_lib.Default_library.source in
  let cases =
    List.map
      (fun (i : Draw.input) ->
        (i, Netlist_io.Verilog.parse ~file:i.Draw.name ~library i.Draw.text))
      w.Draw.inputs
  in
  (now () -. t0, (library, cases))

let manifest (w : Draw.workload) ~seed =
  let design (i : Draw.input) =
    Printf.sprintf
      "{\"name\": %S, \"profile\": %S, \"flip_flops\": %d, \"instances\": \
       %d, \"bytes\": %d, \"period_ns\": %g}"
      i.Draw.name i.Draw.profile i.Draw.ffs i.Draw.insts
      (String.length i.Draw.text) i.Draw.period
  in
  let texts = List.map (fun (i : Draw.input) -> i.Draw.text) w.Draw.inputs in
  Printf.sprintf
    "{\"workload\": %S, \"seed\": %d, \"jobs\": %s, \"digest\": %S, \
     \"designs\": [%s]}"
    w.Draw.wl_name seed jobs
    (Digest.to_hex (Digest.string (String.concat "\n" texts)))
    (String.concat ", " (List.map design w.Draw.inputs))

let print_result ~correct ~attempted ~failed metrics =
  let metric (name, value, unit) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " (List.map metric metrics))

(* The output check of one pass: the conversions that passed it, each
   failure logged with its design. *)
let checked ~library cases outcomes =
  List.filter_map
    (fun ((((i : Draw.input), _) as case), outcome) ->
      match Verify.check ~library case outcome with
      | Ok c -> Some (i, c)
      | Error why ->
        log "%s: %s" i.Draw.name why;
        None)
    (List.combine cases outcomes)

type round = {
  setup_raw : float list;
  setup_scale : float;  (* Host.scale over the set-ups *)
  pass_raw : float;
  pass_scale : float;   (* Host.scale over the pass *)
  alloc_words : float;  (* allocated by the conversions alone *)
}

(* One round: set-ups, then every design converted once (the pass); no
   probe falls inside a timing.  Also returns the pass's outcomes. *)
let round w cases =
  let sm = Host.meter () in
  let setup_raw =
    List.init setups_per_round (fun _ ->
        isolate ();
        Host.tick sm;
        fst (setup w))
  in
  isolate ();
  Host.tick sm;
  let m = Host.meter () in
  let pass_raw = ref 0.0 and alloc = ref 0.0 in
  let outcomes =
    List.map
      (fun (i, design) ->
        isolate ();
        Host.tick m;
        let a0 = Gc.allocated_bytes () in
        let t0 = now () in
        let r = Pass.convert w i design in
        pass_raw := !pass_raw +. (now () -. t0);
        alloc := !alloc +. (Gc.allocated_bytes () -. a0);
        r)
      cases
  in
  isolate ();
  Host.tick m;
  ( { setup_raw; setup_scale = Host.scale sm; pass_raw = !pass_raw;
      pass_scale = Host.scale m; alloc_words = !alloc /. 8.0 },
    outcomes )

(* The end-to-end metrics; also returns the attempted and failed
   counts. *)
let end_to_end w ~seconds =
  let _, (library, cases) = setup w in
  ignore (round w cases);  (* warm-up *)
  let heap_mw = ref Float.nan and last = ref [] in
  let rounds =
    repeat ~seconds ~min:min_rounds (fun () ->
        (* only the latest pass's outcomes stay live *)
        last := [];
        let r, outcomes = round w cases in
        last := outcomes;
        if Float.is_nan !heap_mw then
          heap_mw := float_of_int (Gc.quick_stat ()).Gc.top_heap_words /. 1e6;
        r)
  in
  let first = List.hd rounds in
  let setup_raw = List.concat_map (fun r -> r.setup_raw) rounds
  and setup_s =
    List.concat_map (fun r -> List.map (( *. ) r.setup_scale) r.setup_raw) rounds
  and pass_raw = List.map (fun r -> r.pass_raw) rounds
  and pass_s = List.map (fun r -> r.pass_raw *. r.pass_scale) rounds in
  summary "host scale, set-up" (List.map (fun r -> r.setup_scale) rounds);
  summary "host scale, pass" (List.map (fun r -> r.pass_scale) rounds);
  summary "setup, unscaled" setup_raw;
  summary "setup_s" setup_s;
  summary "pass, unscaled" pass_raw;
  summary "pass_s" pass_s;
  let ok = checked ~library cases !last in
  let n = List.length cases in
  let sum f = List.fold_left (fun acc x -> acc +. f x) 0.0 ok in
  let inserted (_, (c : Pass.converted)) =
    float_of_int
      c.Pass.flow.Phase3.Flow.assignment.Phase3.Assignment.inserted_latches
  in
  ( n,
    n - List.length ok,
    [ ("setup_s", median setup_s, "s");
      ("pass_s", median pass_s, "s");
      ("alloc_mw", first.alloc_words /. 1e6, "Mword");
      ("heap_mw", !heap_mw, "Mword");
      ("ok_frac", float_of_int (List.length ok) /. float_of_int n, "frac");
      ("p2_inserted", sum inserted, "count");
      ("power_mw", sum (fun (i, c) -> Verify.power i c), "mW") ] )

(* The per-layer metrics: rounds of one untraced pass and one traced
   replay.  Also returns the designs whose replay did not reproduce the
   program's own output, which make the trace stale. *)
let per_layer w ~library ~seconds cases outcomes =
  let expected =
    List.map
      (function
        | Pass.Converted c ->
          Some (Pass.final_text c, Option.map Pass.tables_power c.Pass.tables)
        | Pass.Refused _ | Pass.Crashed _ -> None)
      outcomes
  in
  let replay () =
    let t = Replay.create () in
    let stale =
      List.filter_map
        (fun (((i : Draw.input), _), want) ->
          let d =
            Replay.timed t "netlist_io.verilog.parse" (fun () ->
                Netlist_io.Verilog.parse ~file:i.Draw.name ~library i.Draw.text)
          in
          let got = try Some (Replay.design t w i d) with _ -> None in
          if got = want then None else Some i.Draw.name)
        (List.combine cases expected)
    in
    (t, stale)
  in
  let rounds =
    repeat ~seconds ~min:2 (fun () ->
        isolate ();
        let t0 = now () in
        ignore (Pass.run w cases);
        let pass = now () -. t0 in
        isolate ();
        let t, stale = replay () in
        (pass, t, stale))
  in
  summary "untraced pass_s" (List.map (fun (p, _, _) -> p) rounds);
  let stale =
    List.sort_uniq compare (List.concat_map (fun (_, _, s) -> s) rounds)
  in
  let first = match rounds with (_, t, _) :: _ -> t | [] -> assert false in
  let med f = median (List.map f rounds) in
  let attributed t =
    List.fold_left
      (fun acc l ->
        if l = "netlist_io.verilog.parse" then acc
        else acc +. Replay.get t (l ^ "_s"))
      0.0 Replay.layers
  in
  ( stale,
    List.concat_map
      (fun l ->
        [ (l ^ "_s", med (fun (_, t, _) -> Replay.get t (l ^ "_s")), "s");
          (l ^ "_mw", Replay.get first (l ^ "_mw"), "Mword") ])
      Replay.layers
    @ List.map (fun c -> (c, Replay.get first c, "count")) Replay.counts
    @ [ ("flow.unattributed_s",
         med (fun (pass, t, _) -> pass -. attributed t), "s") ] )

let () =
  Unix.putenv "THREEPHASE_JOBS" jobs;
  let workload = ref "" and seed = ref (-1) and seconds = ref 10.0
  and trace = ref 0 and manifest_only = ref false in
  let usage =
    "bench.exe --workload NAME --seed N [--seconds S] [--trace 0|1] \
     [--manifest]\nbench.exe --list"
  in
  Arg.parse
    [ ("--workload", Arg.Set_string workload,
       "NAME " ^ String.concat " | " Draw.names);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--manifest", Arg.Set manifest_only, " print the draw and stop");
      ("--list", Arg.Unit (fun () -> List.iter print_endline Draw.names; exit 0),
       " print the workload names and stop") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload Draw.names && !seed >= 0
          && (!trace = 0 || !trace = 1)) then begin
    prerr_endline usage;
    exit 2
  end;
  let w = Draw.workload !workload ~seed:!seed in
  let m = manifest w ~seed:!seed in
  if !manifest_only then print_endline m
  else begin
    print_endline ("manifest " ^ m);
    log "%s, seed %d, %d designs, THREEPHASE_JOBS=%s" !workload !seed
      (List.length w.Draw.inputs) jobs;
    if !trace = 0 then begin
      let attempted, failed, metrics = end_to_end w ~seconds:!seconds in
      print_result ~correct:(failed = 0) ~attempted ~failed metrics
    end
    else begin
      let _, (library, cases) = setup w in
      let attempted = List.length cases in
      isolate ();
      let outcomes = Pass.run w cases in
      let failed = attempted - List.length (checked ~library cases outcomes) in
      let stale, metrics =
        per_layer w ~library ~seconds:!seconds cases outcomes
      in
      if stale <> [] then begin
        log "stale trace: the replay does not reproduce the program's output \
             for %s" (String.concat ", " stale);
        print_result ~correct:false ~attempted ~failed [];
        exit 1
      end;
      print_result ~correct:(failed = 0) ~attempted ~failed metrics
    end
  end
