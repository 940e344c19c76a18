type cls =
  | Improved
  | Regressed
  | Unchanged
  | Missing_current
  | Missing_baseline

type section = Metric | Counter | Hist | Wall | Gauge

type entry = {
  name : string;
  section : section;
  baseline : float option;
  current : float option;
  cls : cls;
}

(* One ranked piece of evidence for an attribution: a co-located
   counter/histogram/gauge entry that also moved. *)
type suspect = {
  su_name : string;
  su_section : section;
  su_baseline : float option;
  su_current : float option;
  su_score : float;  (* |delta| / max(1, |baseline|); 1.0 when one-sided *)
}

type attribution = {
  at_metric : string;       (* the gated metric that changed *)
  at_stage : string;        (* the flow stage that owns it *)
  at_suspects : suspect list;  (* ranked, best first, at most three *)
}

type t = {
  circuit : string;
  baseline_kind : string;
  entries : entry list;
  gate_failures : string list;
  wall_regressions : string list;
  attributions : attribution list;
}

let cls_name = function
  | Improved -> "improved"
  | Regressed -> "REGRESSED"
  | Unchanged -> "unchanged"
  | Missing_current -> "MISSING (current)"
  | Missing_baseline -> "new"

let section_name = function
  | Metric -> "metric"
  | Counter -> "counter"
  | Hist -> "hist"
  | Wall -> "wall"
  | Gauge -> "gauge"

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Direction: which way is better.  Names are schema-wide conventions
   (docs/QOR.md); anything unrecognised counts lower-as-better, the
   right default for counts, power, area and seconds. *)
let higher_is_better name =
  contains name "slack" || contains name "coverage"
  || contains name "speedup" || contains name ".ok"
  || contains name "optimal" || contains name "lanes"
  || contains name "fused" || contains name "skipped"

let classify_direction name delta =
  if delta = 0.0 then Unchanged
  else if (delta > 0.0) = higher_is_better name then Improved
  else Regressed

let classify_exact name b c =
  (* Float.equal is structural: NaN = NaN, so a reproducibly-NaN metric
     is unchanged; NaN on one side only is always a regression *)
  if Float.equal b c then Unchanged
  else if Float.is_nan b || Float.is_nan c then Regressed
  else classify_direction name (c -. b)

let classify_noisy ~noise_band ~abs_floor name b c =
  if Float.equal b c then Unchanged
  else if Float.is_nan b || Float.is_nan c then Regressed
  else
    let delta = c -. b in
    let tol = Float.max (noise_band *. Float.abs b) abs_floor in
    if Float.abs delta <= tol then Unchanged
    else classify_direction name delta

(* --- regression attribution ----------------------------------------- *)

let starts_with p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* Which flow stage owns a gated metric.  The mapping follows the
   metric vocabulary of Collect.of_flow (docs/QOR.md): register counts
   and cell-level area come out of conversion, power/area/hold come out
   of the physical+power measurement, and so on.  Unknown names (bench
   headline metrics, experiment extras) get no attribution. *)
let stage_of_metric name =
  if starts_with "assign." name then Some "assign"
  else if starts_with "retime." name
          || String.equal name "inserted_p2.after_retime"
  then Some "retime"
  else if starts_with "cg." name || String.equal name "clock_gate.count" then
    Some "clock_gating"
  else if starts_with "timing." name then Some "smo"
  else if starts_with "lint." name then Some "lint"
  else if starts_with "equivalence." name then Some "equivalence"
  else if
    starts_with "power." name || starts_with "kernel." name
    || starts_with "clock_tree." name || starts_with "hold." name
    || String.equal name "area.impl_um2" || String.equal name "wirelength.um"
  then Some "power"
  else if
    starts_with "area." name || starts_with "leakage." name
    || starts_with "inserted_p2." name || String.equal name "ff.count"
    || String.equal name "latch.count" || String.equal name "register.count"
  then Some "convert"
  else None

(* Telemetry name prefixes co-located with a stage: the counters,
   histograms and gauges its implementation emits. *)
let suspect_prefixes = function
  | "assign" -> ["ilp."; "mis."; "assign."]
  | "convert" -> ["assign."; "convert."]
  | "retime" -> ["retime."]
  | "clock_gating" -> ["cg."; "sim.kernel."]
  | "smo" -> ["sta."]
  | "lint" -> ["lint."]
  | "equivalence" -> ["sim."]
  | "power" -> ["sim.kernel."; "physical."; "power."; "sta."; "qor.power"]
  | _ -> []

let suspect_score b c =
  match b, c with
  | Some b, Some c when Float.is_nan b || Float.is_nan c -> 1.0
  | Some b, Some c -> Float.abs (c -. b) /. Float.max 1.0 (Float.abs b)
  | _ -> 1.0 (* appeared or disappeared outright *)

(* For one changed deterministic metric: rank the co-located telemetry
   entries (counters, histogram readouts, gauges — not other gated
   metrics) that also moved.  "Moved" reuses each section's own
   classification, so gauges must leave the noise band to qualify. *)
let attribute entries e =
  match stage_of_metric e.name with
  | None -> None
  | Some stage ->
    let prefixes = suspect_prefixes stage in
    let candidates =
      List.filter
        (fun s ->
          (match s.section with
           | Counter | Hist | Gauge -> true
           | Metric | Wall -> false)
          && s.cls <> Unchanged
          && (not (String.equal s.name e.name))
          && List.exists (fun p -> starts_with p s.name) prefixes)
        entries
    in
    let suspects =
      List.map
        (fun s ->
          { su_name = s.name;
            su_section = s.section;
            su_baseline = s.baseline;
            su_current = s.current;
            su_score = suspect_score s.baseline s.current })
        candidates
      |> List.sort (fun a b ->
             match compare b.su_score a.su_score with
             | 0 -> String.compare a.su_name b.su_name
             | o -> o)
    in
    let top =
      List.filteri (fun i _ -> i < 3) suspects
    in
    if top = [] then None
    else Some { at_metric = e.name; at_stage = stage; at_suspects = top }

(* Walk two sorted assoc lists, pairing by name. *)
let merge_sorted base cur f =
  let rec go acc base cur =
    match base, cur with
    | [], [] -> List.rev acc
    | (bn, bv) :: brest, [] -> go (f bn (Some bv) None :: acc) brest []
    | [], (cn, cv) :: crest -> go (f cn None (Some cv) :: acc) [] crest
    | (bn, bv) :: brest, (cn, cv) :: crest ->
      let o = String.compare bn cn in
      if o = 0 then go (f bn (Some bv) (Some cv) :: acc) brest crest
      else if o < 0 then go (f bn (Some bv) None :: acc) brest cur
      else go (f cn None (Some cv) :: acc) base crest
  in
  go [] base cur

let run ?(noise_band = 0.30) ?(abs_floor = 0.01) ~baseline current =
  let exact section name b c =
    let cls =
      match b, c with
      | Some b, Some c -> classify_exact name b c
      | Some _, None -> Missing_current
      | None, Some _ -> Missing_baseline
      | None, None -> assert false
    in
    { name; section; baseline = b; current = c; cls }
  in
  let noisy section name b c =
    let cls =
      match b, c with
      | Some b, Some c -> classify_noisy ~noise_band ~abs_floor name b c
      | Some _, None -> Missing_current
      | None, Some _ -> Missing_baseline
      | None, None -> assert false
    in
    { name; section; baseline = b; current = c; cls }
  in
  (* Obs records a counter only once an increment is nonzero and a
     histogram only from its first sample, so one that a record lacks
     reads as 0 (an empty histogram): 0 -> N is a change, not a new
     entry *)
  let ints kvs = List.map (fun (k, v) -> (k, float_of_int v)) kvs in
  let counter name b c =
    let zero v = Some (Option.value v ~default:0.0) in
    exact Counter name (zero b) (zero c)
  in
  let hist name b c =
    let stats h =
      Record.hist_stats name (Option.value h ~default:Obs.Histogram.empty)
    in
    List.map2
      (fun (k, bv) (_, cv) -> exact Hist k (Some bv) (Some cv))
      (stats b) (stats c)
  in
  let entries =
    merge_sorted baseline.Record.metrics current.Record.metrics
      (exact Metric)
    @ merge_sorted (ints baseline.Record.counters)
        (ints current.Record.counters) counter
    @ List.concat
        (merge_sorted baseline.Record.hists current.Record.hists hist)
    @ merge_sorted baseline.Record.wall current.Record.wall (noisy Wall)
    @ merge_sorted baseline.Record.gauges current.Record.gauges (noisy Gauge)
  in
  let gate_failures =
    List.filter_map
      (fun e ->
        match e.section, e.cls with
        | (Metric | Counter | Hist), (Improved | Regressed | Missing_current)
          ->
          Some e.name
        | _ -> None)
      entries
  in
  let wall_regressions =
    List.filter_map
      (fun e ->
        match e.section, e.cls with
        | (Wall | Gauge), Regressed -> Some e.name
        | _ -> None)
      entries
  in
  let attributions =
    List.filter_map
      (fun e ->
        match e.section, e.cls with
        | Metric, (Regressed | Improved) -> attribute entries e
        | _ -> None)
      entries
  in
  { circuit = current.Record.prov.circuit;
    baseline_kind = baseline.Record.prov.kind;
    entries;
    gate_failures;
    wall_regressions;
    attributions }

let ok ?(fail_on_wall = false) t =
  t.gate_failures = [] && ((not fail_on_wall) || t.wall_regressions = [])

let value_str = function
  | None -> "-"
  | Some v ->
    if Float.is_nan v then "nan"
    else if Float.is_integer v && Float.abs v < 1e15 then
      Printf.sprintf "%.0f" v
    else Printf.sprintf "%.6g" v

let delta_str e =
  match e.baseline, e.current with
  | Some b, Some c when Float.is_nan b || Float.is_nan c -> "-"
  | Some b, Some c ->
    let d = c -. b in
    if d = 0.0 then ""
    else if Float.abs b > 0.0 && Float.is_finite (d /. b) then
      Printf.sprintf "%+.6g (%+.1f%%)" d (100.0 *. d /. Float.abs b)
    else Printf.sprintf "%+.6g" d
  | _ -> "-"

let table t =
  let tab =
    Report.Table.create
      ~title:(Printf.sprintf "QoR diff: %s (baseline %s)" t.circuit
                t.baseline_kind)
      [ ("metric", Report.Table.Left); ("kind", Report.Table.Left);
        ("baseline", Report.Table.Right); ("current", Report.Table.Right);
        ("delta", Report.Table.Right); ("class", Report.Table.Left) ]
  in
  let emit e =
    Report.Table.add_row tab
      [ e.name; section_name e.section; value_str e.baseline;
        value_str e.current; delta_str e; cls_name e.cls ]
  in
  let deterministic, rest =
    List.partition
      (fun e ->
        match e.section with Metric | Counter | Hist -> true | _ -> false)
      t.entries
  in
  List.iter emit deterministic;
  if deterministic <> [] && rest <> [] then Report.Table.add_rule tab;
  List.iter emit rest;
  tab

(* Human-readable attribution lines, one per changed metric:
     power.total_mw (stage power): suspect sim.kernel.events 1200 -> 1800 (score 600)
   Shared by `qor check` console output and CI failure messages. *)
let attribution_lines t =
  List.map
    (fun a ->
      let sus =
        List.map
          (fun s ->
            Printf.sprintf "%s [%s] %s -> %s" s.su_name
              (section_name s.su_section)
              (value_str s.su_baseline) (value_str s.su_current))
          a.at_suspects
      in
      Printf.sprintf "%s (stage %s): suspect %s" a.at_metric a.at_stage
        (String.concat "; " sus))
    t.attributions

let markdown t =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "## QoR diff: `%s`\n\n" t.circuit;
  (if t.gate_failures = [] then
     Buffer.add_string buf "**Gate: PASS** — deterministic QoR unchanged.\n"
   else
     Printf.bprintf buf
       "**Gate: FAIL** — %d deterministic metric(s) changed: %s.\n"
       (List.length t.gate_failures)
       (String.concat ", " (List.map (Printf.sprintf "`%s`") t.gate_failures)));
  if t.wall_regressions <> [] then
    Printf.bprintf buf
      "Wall-clock outside the noise band (not gated): %s.\n"
      (String.concat ", "
         (List.map (Printf.sprintf "`%s`") t.wall_regressions));
  if t.attributions <> [] then begin
    Buffer.add_string buf "\n### Suspects\n\n";
    List.iter (Printf.bprintf buf "- %s\n") (attribution_lines t)
  end;
  let changed =
    List.filter (fun e -> e.cls <> Unchanged) t.entries
  in
  if changed <> [] then begin
    Buffer.add_string buf
      "\n| metric | kind | baseline | current | delta | class |\n\
       |---|---|---:|---:|---:|---|\n";
    List.iter
      (fun e ->
        Printf.bprintf buf "| `%s` | %s | %s | %s | %s | %s |\n" e.name
          (section_name e.section) (value_str e.baseline)
          (value_str e.current) (delta_str e) (cls_name e.cls))
      changed
  end;
  Buffer.contents buf
