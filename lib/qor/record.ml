(* The run-record schema.  The writer fixes the key order and sorts
   every metric map, so rendering is canonical; the reader demands the
   fields it knows (wrong type or missing required field = error,
   newer schema_version = error) and skips fields it does not, so a
   version-1 reader accepts extended version-1 records. *)

let schema_version = 1

type provenance = {
  circuit : string;
  kind : string;
  git_rev : string option;
  jobs : int;
  hostname : string;
  timestamp : string;
}

(* One node of the recorded span call tree (Obs.span_tree, flattened
   into the record so reports can be built from records alone). *)
type tree_node = {
  t_name : string;
  t_calls : int;
  t_total_s : float;
  t_self_s : float;
  t_children : tree_node list;
}

type t = {
  version : int;
  prov : provenance;
  config : (string * Report.Json.t) list;
  metrics : (string * float) list;
  counters : (string * int) list;
  hists : (string * Obs.Histogram.t) list;  (* deterministic section *)
  headline : (string * Report.Json.t) list;
  wall : (string * float) list;
  gauges : (string * float) list;
  tree : tree_node list;
}

let by_name (a, _) (b, _) = String.compare a b

let make ?(config = []) ?(metrics = []) ?(counters = []) ?(hists = [])
    ?(headline = []) ?(wall = []) ?(gauges = []) ?(tree = []) prov =
  { version = schema_version;
    prov;
    config;
    metrics = List.sort by_name metrics;
    counters = List.sort by_name counters;
    hists = List.sort by_name hists;
    headline;
    wall = List.sort by_name wall;
    gauges = List.sort by_name gauges;
    tree }

(* Deterministic scalar readouts of a histogram, the per-hist entries
   the regression gate ratchets: sample count, quartile readouts and
   the raw max (0 when empty, like Obs.Histogram.to_string). *)
let hist_stats name (h : Obs.Histogram.t) =
  [ (name ^ ".count", float_of_int (Obs.Histogram.count h));
    (name ^ ".p50", Obs.Histogram.percentile h 0.50);
    (name ^ ".p90", Obs.Histogram.percentile h 0.90);
    (name ^ ".p99", Obs.Histogram.percentile h 0.99);
    (name ^ ".max",
     if Obs.Histogram.count h = 0 then 0.0 else Obs.Histogram.max_value h) ]

let flatten_hists hists =
  List.concat_map (fun (name, h) -> hist_stats name h) hists

(* --- writer ---------------------------------------------------------- *)

let to_json r =
  let num_map kvs =
    Report.Json.Obj (List.map (fun (k, v) -> (k, Report.Json.Num v)) kvs)
  in
  let int_map kvs =
    Report.Json.Obj
      (List.map (fun (k, v) -> (k, Report.Json.Num (float_of_int v))) kvs)
  in
  let opt_field name = function [] -> [] | kvs -> [(name, Report.Json.Obj kvs)] in
  let hist_json h =
    Report.Json.Obj
      [ ("count", Report.Json.Num (float_of_int (Obs.Histogram.count h)));
        ("underflow", Report.Json.Num (float_of_int (Obs.Histogram.underflow h)));
        ("max",
         Report.Json.Num
           (if Obs.Histogram.count h = 0 then 0.0
            else Obs.Histogram.max_value h));
        ("buckets",
         Report.Json.Arr
           (List.map
              (fun (i, c) ->
                Report.Json.Arr
                  [ Report.Json.Num (float_of_int i);
                    Report.Json.Num (float_of_int c) ])
              (Obs.Histogram.bucket_counts h))) ]
  in
  let rec tree_json n =
    Report.Json.Obj
      ([ ("name", Report.Json.Str n.t_name);
         ("calls", Report.Json.Num (float_of_int n.t_calls));
         ("total_s", Report.Json.Num n.t_total_s);
         ("self_s", Report.Json.Num n.t_self_s) ]
       @
       if n.t_children = [] then []
       else [("children", Report.Json.Arr (List.map tree_json n.t_children))])
  in
  Report.Json.Obj
    ([ ("schema_version", Report.Json.Num (float_of_int r.version));
       ("kind", Report.Json.Str r.prov.kind);
       ("circuit", Report.Json.Str r.prov.circuit);
       ("config", Report.Json.Obj r.config);
       ("metrics", num_map r.metrics);
       ("counters", int_map r.counters) ]
     @ opt_field "hists"
         (List.map (fun (name, h) -> (name, hist_json h)) r.hists)
     @ opt_field "headline" r.headline
     @ [ ("provenance",
          Report.Json.Obj
            [ ("git_rev",
               (match r.prov.git_rev with
                | Some rev -> Report.Json.Str rev
                | None -> Report.Json.Null));
              ("jobs", Report.Json.Num (float_of_int r.prov.jobs));
              ("hostname", Report.Json.Str r.prov.hostname);
              ("timestamp", Report.Json.Str r.prov.timestamp) ]);
         ("wall", num_map r.wall);
         ("gauges", num_map r.gauges) ]
     @
     if r.tree = [] then []
     else [("tree", Report.Json.Arr (List.map tree_json r.tree))])

let render r = Report.Json.render (to_json r)

let render_compact r = Report.Json.render_compact (to_json r)

(* --- reader ---------------------------------------------------------- *)

let ( let* ) = Result.bind

let require what = function
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "record: missing or ill-typed %s" what)

let str_field doc k =
  require (k ^ ": string")
    (Option.bind (Report.Json.member k doc) Report.Json.to_string)

let num_map_field doc k =
  match Report.Json.member k doc with
  | None -> Ok []
  | Some (Report.Json.Obj kvs) ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | (name, v) :: rest ->
        (match Report.Json.to_float v with
         | Some f -> go ((name, f) :: acc) rest
         | None ->
           Error (Printf.sprintf "record: %s.%s is not a number" k name))
    in
    go [] kvs
  | Some _ -> Error (Printf.sprintf "record: %s is not an object" k)

let of_json doc =
  let* version =
    require "schema_version"
      (Option.bind (Report.Json.member "schema_version" doc) Report.Json.to_int)
  in
  let* () =
    if version > schema_version then
      Error
        (Printf.sprintf
           "record: schema_version %d is newer than supported %d" version
           schema_version)
    else Ok ()
  in
  let* kind = str_field doc "kind" in
  let* circuit = str_field doc "circuit" in
  let config =
    match Report.Json.member "config" doc with
    | Some (Report.Json.Obj kvs) -> kvs
    | _ -> []
  in
  let* metrics = num_map_field doc "metrics" in
  let* counters =
    let* m = num_map_field doc "counters" in
    Ok (List.map (fun (k, v) -> (k, int_of_float v)) m)
  in
  let* hists =
    match Report.Json.member "hists" doc with
    | None -> Ok []
    | Some (Report.Json.Obj kvs) ->
      let hist_of (name, v) =
        let int_field k = Option.bind (Report.Json.member k v) Report.Json.to_int in
        match int_field "count", int_field "underflow",
              Option.bind (Report.Json.member "max" v) Report.Json.to_float,
              Report.Json.member "buckets" v with
        | Some count, Some underflow, Some max_value, Some (Report.Json.Arr bs) ->
          let bucket = function
            | Report.Json.Arr [i; c] ->
              (match Report.Json.to_int i, Report.Json.to_int c with
               | Some i, Some c -> Some (i, c)
               | _ -> None)
            | _ -> None
          in
          let buckets = List.filter_map bucket bs in
          if List.length buckets <> List.length bs then
            Error (Printf.sprintf "record: hists.%s has ill-formed buckets" name)
          else
            Ok
              (name,
               Obs.Histogram.of_parts ~count ~underflow
                 ~max_value:(if count = 0 then neg_infinity else max_value)
                 ~buckets)
        | _ -> Error (Printf.sprintf "record: hists.%s is ill-formed" name)
      in
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | kv :: rest ->
          (match hist_of kv with
           | Ok h -> go (h :: acc) rest
           | Error _ as e -> e)
      in
      go [] kvs
    | Some _ -> Error "record: hists is not an object"
  in
  let headline =
    match Report.Json.member "headline" doc with
    | Some (Report.Json.Obj kvs) -> kvs
    | _ -> []
  in
  let prov_doc =
    match Report.Json.member "provenance" doc with
    | Some (Report.Json.Obj _ as p) -> p
    | _ -> Report.Json.Obj []
  in
  let prov =
    { circuit;
      kind;
      git_rev =
        Option.bind (Report.Json.member "git_rev" prov_doc) Report.Json.to_string;
      jobs =
        (match
           Option.bind (Report.Json.member "jobs" prov_doc) Report.Json.to_int
         with
         | Some j -> j
         | None -> 1);
      hostname =
        (match
           Option.bind (Report.Json.member "hostname" prov_doc) Report.Json.to_string
         with
         | Some h -> h
         | None -> "");
      timestamp =
        (match
           Option.bind (Report.Json.member "timestamp" prov_doc) Report.Json.to_string
         with
         | Some t -> t
         | None -> "") }
  in
  let* wall = num_map_field doc "wall" in
  let* gauges = num_map_field doc "gauges" in
  let* tree =
    let rec node item =
      match
        ( Option.bind (Report.Json.member "name" item) Report.Json.to_string,
          Option.bind (Report.Json.member "calls" item) Report.Json.to_int,
          Option.bind (Report.Json.member "total_s" item) Report.Json.to_float,
          Option.bind (Report.Json.member "self_s" item) Report.Json.to_float )
      with
      | Some t_name, Some t_calls, Some t_total_s, Some t_self_s ->
        let* t_children =
          match Report.Json.member "children" item with
          | None -> Ok []
          | Some (Report.Json.Arr items) -> nodes [] items
          | Some _ -> Error "record: tree children is not an array"
        in
        Ok { t_name; t_calls; t_total_s; t_self_s; t_children }
      | _ -> Error "record: ill-formed tree node"
    and nodes acc = function
      | [] -> Ok (List.rev acc)
      | item :: rest ->
        let* n = node item in
        nodes (n :: acc) rest
    in
    match Report.Json.member "tree" doc with
    | None -> Ok []
    | Some (Report.Json.Arr items) -> nodes [] items
    | Some _ -> Error "record: tree is not an array"
  in
  Ok
    { version; prov; config; metrics; counters; hists; headline; wall;
      gauges; tree }

let parse text =
  let* doc = Report.Json.parse text in
  of_json doc

let metric r name =
  match List.assoc_opt name r.metrics with
  | Some v -> Some v
  | None ->
    (match List.assoc_opt name r.counters with
     | Some v -> Some (float_of_int v)
     | None -> None)
