(* The self-contained HTML flow report: one file, no external assets
   (inline CSS, inline SVG, no scripts), so it can be archived as a CI
   artifact and opened anywhere.  All data comes from run records —
   not from the live Obs registry — so a report can be rebuilt from
   the store long after the run. *)

(* --- fragment builders ---------------------------------------------- *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | '\'' -> Buffer.add_string buf "&#39;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let num v =
  if Float.is_nan v then "nan"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.4g" v

(* Inline SVG polyline sparkline.  Non-finite values break the line.
   Constant series draw a midline.  The viewBox is fixed so CSS can
   size it; vector-effect keeps the stroke width stable. *)
let spark_svg ?(width = 120) ?(height = 24) values =
  let finite = List.filter Float.is_finite values in
  let n = List.length values in
  if n < 2 || finite = [] then ""
  else begin
    let lo = List.fold_left Float.min infinity finite in
    let hi = List.fold_left Float.max neg_infinity finite in
    let w = float_of_int width and h = float_of_int height in
    let x i = float_of_int i /. float_of_int (n - 1) *. (w -. 4.0) +. 2.0 in
    let y v =
      if hi = lo then h /. 2.0
      else h -. 3.0 -. ((v -. lo) /. (hi -. lo) *. (h -. 6.0))
    in
    let buf = Buffer.create 256 in
    Printf.bprintf buf
      "<svg class=\"spark\" viewBox=\"0 0 %d %d\" width=\"%d\" height=\"%d\" \
       preserveAspectRatio=\"none\">"
      width height width height;
    let pending = Buffer.create 64 in
    let flush_segment () =
      if Buffer.length pending > 0 then begin
        Printf.bprintf buf
          "<polyline fill=\"none\" stroke=\"currentColor\" \
           stroke-width=\"1.5\" vector-effect=\"non-scaling-stroke\" \
           points=\"%s\"/>"
          (Buffer.contents pending);
        Buffer.clear pending
      end
    in
    List.iteri
      (fun i v ->
        if Float.is_finite v then
          Printf.bprintf pending "%s%.1f,%.1f"
            (if Buffer.length pending = 0 then "" else " ")
            (x i) (y v)
        else flush_segment ())
      values;
    flush_segment ();
    (* dot on the latest point *)
    (match List.rev values with
     | last :: _ when Float.is_finite last ->
       Printf.bprintf buf
         "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"2\" fill=\"currentColor\"/>"
         (x (n - 1)) (y last)
     | _ -> ());
    Buffer.add_string buf "</svg>";
    Buffer.contents buf
  end

(* A proportional horizontal bar: [frac] of the track filled, label
   beside it.  Clamped; CSS class hooks for colouring. *)
let bar ?(cls = "bar") ~frac label =
  let pct = 100.0 *. Float.max 0.0 (Float.min 1.0 frac) in
  Printf.sprintf
    "<span class=\"track\"><span class=\"%s\" style=\"width:%.1f%%\"></span>\
     </span><span class=\"barlabel\">%s</span>"
    cls pct (escape label)

let css =
  "body{font:14px/1.45 -apple-system,'Segoe UI',sans-serif;margin:2em auto;\
   max-width:70em;padding:0 1em;color:#1b1f24}\
   h1{font-size:1.5em;border-bottom:2px solid #d0d7de;padding-bottom:.3em}\
   h2{font-size:1.15em;margin-top:1.8em}\
   table{border-collapse:collapse;margin:.6em 0}\
   th,td{padding:.25em .7em;border:1px solid #d0d7de;text-align:left}\
   td.n,th.n{text-align:right;font-variant-numeric:tabular-nums}\
   th{background:#f6f8fa}\
   tr.regressed td{background:#ffebe9}\
   tr.improved td{background:#dafbe1}\
   tr.new td{background:#fff8c5}\
   .muted{color:#656d76}\
   .track{display:inline-block;width:14em;height:.8em;background:#f6f8fa;\
   border:1px solid #d0d7de;vertical-align:middle;margin-right:.6em}\
   .bar{display:block;height:100%;background:#54aeff}\
   .bar.self{background:#e16f24}\
   .bar.hist{background:#8250df}\
   .barlabel{font-variant-numeric:tabular-nums}\
   .spark{color:#0969da;vertical-align:middle}\
   details{margin-left:1.2em}\
   details.root{margin-left:0}\
   summary{cursor:pointer;padding:.1em 0}\
   summary .track{width:10em}\
   .leaf{margin-left:2.45em;padding:.1em 0}\
   code{background:#f6f8fa;padding:.1em .3em;border-radius:3px}\
   .verdict{padding:.6em 1em;border-radius:6px;margin:1em 0}\
   .verdict.pass{background:#dafbe1}\
   .verdict.fail{background:#ffebe9}"

let bprintf = Printf.bprintf

(* --- provenance + config -------------------------------------------- *)

let kv_row buf k v =
  bprintf buf "<tr><th>%s</th><td>%s</td></tr>" (escape k) (escape v)

let provenance_section buf (r : Record.t) =
  let p = r.Record.prov in
  bprintf buf "<h2>Run</h2><table>";
  kv_row buf "circuit" p.Record.circuit;
  kv_row buf "kind" p.Record.kind;
  kv_row buf "timestamp" p.Record.timestamp;
  (match p.Record.git_rev with
   | Some rev -> kv_row buf "git rev" rev
   | None -> ());
  kv_row buf "jobs" (string_of_int p.Record.jobs);
  if p.Record.hostname <> "" then kv_row buf "host" p.Record.hostname;
  List.iter
    (fun (k, v) -> kv_row buf k (Report.Json.render_compact v))
    r.Record.config;
  bprintf buf "</table>"

(* --- stage waterfall -------------------------------------------------- *)

(* Stage wall times ordered as the flow runs them, one proportional
   bar per stage.  The canonical order comes from the flow itself;
   stages the record has but the list does not (e.g. "optimize",
   futures) keep record order at the end. *)
let stage_order = Phase3.Flow.stage_names @ ["optimize"]

let stage_section buf (r : Record.t) =
  let stages =
    List.filter_map
      (fun (k, v) ->
        let pre = "stage." in
        let n = String.length pre in
        if String.length k > n && String.sub k 0 n = pre then
          Some (String.sub k n (String.length k - n), v)
        else None)
      r.Record.wall
  in
  if stages <> [] then begin
    let index name =
      let rec go i = function
        | [] -> max_int
        | s :: _ when String.equal s name -> i
        | _ :: rest -> go (i + 1) rest
      in
      go 0 stage_order
    in
    let stages =
      List.stable_sort (fun (a, _) (b, _) -> compare (index a) (index b))
        stages
    in
    let total = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 stages in
    let longest = List.fold_left (fun acc (_, v) -> Float.max acc v) 0.0 stages in
    bprintf buf "<h2>Stages <span class=\"muted\">(%.3f s wall)</span></h2><table>"
      total;
    List.iter
      (fun (name, v) ->
        bprintf buf "<tr><td>%s</td><td>%s</td></tr>" (escape name)
          (bar ~frac:(v /. Float.max longest 1e-9)
             (Printf.sprintf "%.1f ms" (1e3 *. v))))
      stages;
    bprintf buf "</table>"
  end

(* --- span tree -------------------------------------------------------- *)

let rec tree_node buf ~scale depth (n : Record.tree_node) =
  let label =
    Printf.sprintf "%s&nbsp;<span class=\"muted\">&times;%d</span> %s self %s"
      (escape n.Record.t_name) n.Record.t_calls
      (bar ~frac:(n.Record.t_total_s /. scale)
         (Printf.sprintf "%.1f ms" (1e3 *. n.Record.t_total_s)))
      (bar ~cls:"bar self" ~frac:(n.Record.t_self_s /. scale)
         (Printf.sprintf "%.1f ms" (1e3 *. n.Record.t_self_s)))
  in
  if n.Record.t_children = [] then
    bprintf buf "<div class=\"leaf\">%s</div>" label
  else begin
    bprintf buf "<details%s%s><summary>%s</summary>"
      (if depth = 0 then " class=\"root\"" else "")
      (if depth < 2 then " open" else "")
      label;
    List.iter (tree_node buf ~scale (depth + 1)) n.Record.t_children;
    bprintf buf "</details>"
  end

let tree_section buf (r : Record.t) =
  if r.Record.tree <> [] then begin
    let scale =
      List.fold_left
        (fun acc n -> Float.max acc n.Record.t_total_s)
        1e-9 r.Record.tree
    in
    bprintf buf
      "<h2>Span tree</h2><p class=\"muted\">Blue: total (inclusive).  \
       Orange: self time, children excluded.</p>";
    List.iter (tree_node buf ~scale 0) r.Record.tree
  end

(* --- histograms ------------------------------------------------------- *)

let hist_section buf (r : Record.t) =
  if r.Record.hists <> [] then begin
    bprintf buf
      "<h2>Histograms</h2><p class=\"muted\">Deterministic distributions \
       (log-bucketed); identical for any <code>THREEPHASE_JOBS</code>.</p>\
       <table><tr><th>name</th><th class=\"n\">count</th>\
       <th class=\"n\">p50</th><th class=\"n\">p90</th>\
       <th class=\"n\">p99</th><th class=\"n\">max</th>\
       <th>distribution</th></tr>";
    List.iter
      (fun (name, h) ->
        let buckets = Obs.Histogram.bucket_counts h in
        let peak =
          List.fold_left (fun acc (_, c) -> max acc c) 1 buckets
        in
        let bars = Buffer.create 128 in
        List.iter
          (fun (i, c) ->
            bprintf bars
              "<span class=\"track\" style=\"width:.7em;height:1.4em;\
               margin-right:1px;position:relative\" title=\"[%s, %s): %d\">\
               <span class=\"bar hist\" style=\"position:absolute;bottom:0;\
               width:100%%;height:%.0f%%\"></span></span>"
              (num (Obs.Histogram.bucket_lower i))
              (num (Obs.Histogram.bucket_upper i))
              c
              (100.0 *. float_of_int c /. float_of_int peak))
          buckets;
        bprintf buf
          "<tr><td><code>%s</code></td><td class=\"n\">%d</td>\
           <td class=\"n\">%s</td><td class=\"n\">%s</td>\
           <td class=\"n\">%s</td><td class=\"n\">%s</td><td>%s</td></tr>"
          (escape name) (Obs.Histogram.count h)
          (num (Obs.Histogram.percentile h 0.50))
          (num (Obs.Histogram.percentile h 0.90))
          (num (Obs.Histogram.percentile h 0.99))
          (num
             (if Obs.Histogram.count h = 0 then 0.0
              else Obs.Histogram.max_value h))
          (Buffer.contents bars))
      r.Record.hists;
    bprintf buf "</table>"
  end

(* --- metrics (with optional baseline diff) ---------------------------- *)

let opt_num = function None -> "&mdash;" | Some v -> num v

let diff_section buf (d : Diff.t) =
  (if d.Diff.gate_failures = [] then
     bprintf buf
       "<div class=\"verdict pass\"><strong>Gate: PASS</strong> &mdash; \
        deterministic QoR unchanged vs baseline <code>%s</code>.</div>"
       (escape d.Diff.baseline_kind)
   else
     bprintf buf
       "<div class=\"verdict fail\"><strong>Gate: FAIL</strong> &mdash; %d \
        deterministic metric(s) changed vs baseline <code>%s</code>.</div>"
       (List.length d.Diff.gate_failures)
       (escape d.Diff.baseline_kind));
  if d.Diff.attributions <> [] then begin
    bprintf buf "<h2>Suspects</h2><ul>";
    List.iter
      (fun line -> bprintf buf "<li>%s</li>" (escape line))
      (Diff.attribution_lines d);
    bprintf buf "</ul>"
  end;
  bprintf buf
    "<h2>Metrics vs baseline</h2><table><tr><th>metric</th><th>kind</th>\
     <th class=\"n\">baseline</th><th class=\"n\">current</th>\
     <th>class</th></tr>";
  List.iter
    (fun (e : Diff.entry) ->
      let cls_attr =
        match e.Diff.cls with
        | Diff.Regressed | Diff.Missing_current -> " class=\"regressed\""
        | Diff.Improved -> " class=\"improved\""
        | Diff.Missing_baseline -> " class=\"new\""
        | Diff.Unchanged -> ""
      in
      bprintf buf
        "<tr%s><td><code>%s</code></td><td>%s</td><td class=\"n\">%s</td>\
         <td class=\"n\">%s</td><td>%s</td></tr>"
        cls_attr (escape e.Diff.name)
        (Diff.section_name e.Diff.section)
        (opt_num e.Diff.baseline) (opt_num e.Diff.current)
        (Diff.cls_name e.Diff.cls))
    d.Diff.entries;
  bprintf buf "</table>"

let metrics_section buf (r : Record.t) =
  bprintf buf
    "<h2>Metrics</h2><table><tr><th>metric</th><th>kind</th>\
     <th class=\"n\">value</th></tr>";
  let row kind (k, v) =
    bprintf buf
      "<tr><td><code>%s</code></td><td>%s</td><td class=\"n\">%s</td></tr>"
      (escape k) kind (num v)
  in
  List.iter (row "metric") r.Record.metrics;
  List.iter
    (fun (k, v) -> row "counter" (k, float_of_int v))
    r.Record.counters;
  List.iter (row "gauge") r.Record.gauges;
  bprintf buf "</table>"

(* --- trend ------------------------------------------------------------ *)

let trend_section buf ~history (r : Record.t) =
  let circuit = r.Record.prov.Record.circuit in
  let series =
    Trend.series_of_records history
    |> List.filter (fun s ->
           String.equal s.Trend.sr_circuit circuit
           && List.length s.Trend.sr_points >= 2
           &&
           (* only series that ever move, or are currently flagged *)
           (s.Trend.sr_anomaly
            ||
            match s.Trend.sr_points with
            | [] | [_] -> false
            | (_, v0) :: rest ->
              List.exists (fun (_, v) -> not (Float.equal v v0)) rest))
  in
  if series <> [] then begin
    bprintf buf
      "<h2>Trends</h2><p class=\"muted\">History of <code>%s</code> from \
       the store (%d runs); constant series hidden.</p>\
       <table><tr><th>metric</th><th>class</th><th class=\"n\">runs</th>\
       <th class=\"n\">latest</th><th>trend</th><th>flag</th></tr>"
      (escape circuit) (List.length history);
    List.iter
      (fun (s : Trend.series) ->
        let values = List.map snd s.Trend.sr_points in
        let latest = match List.rev values with v :: _ -> v | [] -> nan in
        bprintf buf
          "<tr%s><td><code>%s</code></td><td>%s</td><td class=\"n\">%d</td>\
           <td class=\"n\">%s</td><td>%s</td><td>%s</td></tr>"
          (if s.Trend.sr_anomaly && s.Trend.sr_deterministic then
             " class=\"regressed\""
           else "")
          (escape s.Trend.sr_name)
          (if s.Trend.sr_deterministic then "det" else "noisy")
          (List.length values) (num latest)
          (spark_svg values)
          (if s.Trend.sr_anomaly then "ANOMALY" else ""))
      series;
    bprintf buf "</table>"
  end

(* --- page ------------------------------------------------------------- *)

let page ?baseline ?(history = []) (r : Record.t) =
  let buf = Buffer.create 16384 in
  bprintf buf
    "<!DOCTYPE html><html lang=\"en\"><head><meta charset=\"utf-8\">\
     <meta name=\"viewport\" content=\"width=device-width,initial-scale=1\">\
     <title>ff2latch &mdash; %s</title><style>%s</style></head><body>"
    (escape r.Record.prov.Record.circuit)
    css;
  bprintf buf "<h1>ff2latch flow report &mdash; <code>%s</code></h1>"
    (escape r.Record.prov.Record.circuit);
  (match baseline with
   | Some b -> diff_section buf (Diff.run ~baseline:b r)
   | None -> ());
  provenance_section buf r;
  stage_section buf r;
  tree_section buf r;
  hist_section buf r;
  if baseline = None then metrics_section buf r;
  if history <> [] then trend_section buf ~history r;
  bprintf buf
    "<p class=\"muted\">Generated by <code>ff2latch report</code>; \
     self-contained, no external assets.</p></body></html>\n";
  Buffer.contents buf
