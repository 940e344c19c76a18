(* Per-metric time series over the store history, with a robust
   median/MAD outlier flag on the latest point.  Pure data in, pure
   data out: the store scan and filtering happen in of_store, the
   statistics never look at the clock. *)

type series = {
  sr_circuit : string;
  sr_kind : string;
  sr_name : string;
  sr_deterministic : bool;
  sr_points : (string * float) list; (* (timestamp, value), oldest first *)
  sr_anomaly : bool;
}

let median sorted =
  let n = Array.length sorted in
  if n = 0 then nan
  else if n mod 2 = 1 then sorted.(n / 2)
  else (sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.0

let median_of values =
  let a = Array.of_list values in
  Array.sort compare a;
  median a

(* Robust z-score outlier test on the last value: flag iff
   |latest - median| > 3.5 * 1.4826 * MAD (the modified z-score rule,
   Iglewicz & Hoaglin).  MAD = 0 means the history is constant, so any
   deviation at all is anomalous.  Fewer than four points is not
   enough history to call anything an outlier. *)
let anomalous values =
  match values with
  | [] -> false
  | _ when List.length values < 4 -> false
  | _ ->
    let latest = List.nth values (List.length values - 1) in
    if Float.is_nan latest then true
    else
      let med = median_of values in
      let mad =
        median_of (List.map (fun v -> Float.abs (v -. med)) values)
      in
      if mad = 0.0 then not (Float.equal latest med)
      else Float.abs (latest -. med) > 3.5 *. 1.4826 *. mad

(* Eight-level unicode sparkline; constant series render mid-scale. *)
let spark_chars = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83";
                     "\xe2\x96\x84"; "\xe2\x96\x85"; "\xe2\x96\x86";
                     "\xe2\x96\x87"; "\xe2\x96\x88" |]

let sparkline values =
  let finite = List.filter Float.is_finite values in
  match finite with
  | [] -> String.concat "" (List.map (fun _ -> "-") values)
  | _ ->
    let lo = List.fold_left Float.min infinity finite in
    let hi = List.fold_left Float.max neg_infinity finite in
    let buf = Buffer.create (3 * List.length values) in
    List.iter
      (fun v ->
        if not (Float.is_finite v) then Buffer.add_char buf '-'
        else if hi = lo then Buffer.add_string buf spark_chars.(3)
        else
          let level =
            int_of_float ((v -. lo) /. (hi -. lo) *. 7.0 +. 0.5)
          in
          Buffer.add_string buf spark_chars.(max 0 (min 7 level)))
      values;
    Buffer.contents buf

(* Every (name, value, deterministic) a record contributes to trends:
   the gated sections exactly as Diff sees them (hists through their
   stats readouts), and the wall/gauge sections marked noisy. *)
let record_values (r : Record.t) =
  List.map (fun (k, v) -> (k, v, true)) r.Record.metrics
  @ List.map
      (fun (k, v) -> (k, float_of_int v, true))
      r.Record.counters
  @ List.map (fun (k, v) -> (k, v, true)) (Record.flatten_hists r.Record.hists)
  @ List.map (fun (k, v) -> (k, v, false)) r.Record.wall
  @ List.map (fun (k, v) -> (k, v, false)) r.Record.gauges

let series_of_records records =
  let tbl : (string * string * string, (string * float) list ref * bool) Hashtbl.t =
    Hashtbl.create 64
  in
  let order = ref [] in
  List.iter
    (fun (r : Record.t) ->
      let ts = r.Record.prov.Record.timestamp in
      List.iter
        (fun (name, v, det) ->
          let key = (r.Record.prov.Record.kind, r.Record.prov.Record.circuit, name) in
          match Hashtbl.find_opt tbl key with
          | Some (points, _) -> points := (ts, v) :: !points
          | None ->
            Hashtbl.add tbl key (ref [(ts, v)], det);
            order := key :: !order)
        (record_values r))
    records;
  List.rev_map
    (fun ((kind, circuit, name) as key) ->
      let points, det = Hashtbl.find tbl key in
      let pts = List.rev !points in
      { sr_circuit = circuit;
        sr_kind = kind;
        sr_name = name;
        sr_deterministic = det;
        sr_points = pts;
        sr_anomaly = anomalous (List.map snd pts) })
    !order

let last_n n l =
  let len = List.length l in
  if len <= n then l else List.filteri (fun i _ -> i >= len - n) l

let of_store ~dir ?kind ?circuit ?metric ?limit () =
  let records = Store.history ~dir in
  let keep opt_want got =
    match opt_want with None -> true | Some w -> String.equal w got
  in
  series_of_records records
  |> List.filter (fun s ->
         keep kind s.sr_kind && keep circuit s.sr_circuit
         && (match metric with
             | None -> true
             | Some m -> Diff.contains s.sr_name m))
  |> List.map (fun s ->
         match limit with
         | None -> s
         | Some n ->
           let pts = last_n n s.sr_points in
           { s with
             sr_points = pts;
             sr_anomaly = anomalous (List.map snd pts) })

let anomalies series =
  List.filter (fun s -> s.sr_anomaly && s.sr_deterministic) series

let value_str v =
  if Float.is_nan v then "nan"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let table ?(all = false) series =
  let tab =
    Report.Table.create ~title:"QoR trends"
      [ ("circuit", Report.Table.Left); ("metric", Report.Table.Left);
        ("class", Report.Table.Left); ("runs", Report.Table.Right);
        ("median", Report.Table.Right); ("latest", Report.Table.Right);
        ("trend", Report.Table.Left); ("flag", Report.Table.Left) ]
  in
  let shown =
    if all then series
    else
      (* default view: hide series that never move — the interesting
         rows are the ones with history *)
      List.filter
        (fun s ->
          s.sr_anomaly
          ||
          match s.sr_points with
          | [] | [_] -> false
          | (_, v0) :: rest ->
            List.exists (fun (_, v) -> not (Float.equal v v0)) rest)
        series
  in
  List.iter
    (fun s ->
      let values = List.map snd s.sr_points in
      let latest =
        match List.rev values with v :: _ -> v | [] -> nan
      in
      Report.Table.add_row tab
        [ s.sr_circuit; s.sr_name;
          (if s.sr_deterministic then "det" else "noisy");
          string_of_int (List.length values);
          value_str (median_of values); value_str latest;
          sparkline (last_n 24 values);
          (if s.sr_anomaly then "ANOMALY" else "") ])
    shown;
  tab
