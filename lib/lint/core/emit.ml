open Diagnostic

let text ?(show_waived = false) ppf ds =
  List.iter
    (fun d ->
      if show_waived || not d.waived then Format.fprintf ppf "%a@." Diagnostic.pp d)
    ds;
  let e, w, i = counts ds in
  Format.fprintf ppf "%d error(s), %d warning(s), %d info(s)@." e w i

let sep_iter ppf f = function
  | [] -> ()
  | x :: rest ->
    f x;
    List.iter
      (fun x ->
        Format.fprintf ppf ",@ ";
        f x)
      rest

let json_loc ppf = function
  | Design_level -> Format.fprintf ppf {|{ "kind": "design" }|}
  | Object o ->
    Format.fprintf ppf {|{ "kind": "object", "name": %s }|} (Report.Json.quote o)
  | Src { file; line; col } ->
    Format.fprintf ppf {|{ "kind": "source", "file": %s, "line": %d, "col": %d }|}
      (Report.Json.quote file) line col

let json ppf ds =
  let e, w, i = counts ds in
  Format.fprintf ppf "@[<v 2>{@ ";
  Format.fprintf ppf "@[<v 2>\"diagnostics\": [@ ";
  sep_iter ppf
    (fun d ->
      Format.fprintf ppf
        {|@[<h>{ "rule": %s, "severity": %s, "message": %s, "location": %a, "waived": %b }@]|}
        (Report.Json.quote d.rule)
        (Report.Json.quote (severity_name d.severity))
        (Report.Json.quote d.message) json_loc d.loc d.waived)
    ds;
  Format.fprintf ppf "@]@ ],@ ";
  Format.fprintf ppf
    {|"summary": { "errors": %d, "warnings": %d, "infos": %d }|} e w i;
  Format.fprintf ppf "@]@ }@."

let sarif_level = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "note"

let sarif ppf ds =
  let rules =
    List.sort_uniq String.compare (List.map (fun d -> d.rule) ds)
  in
  let rule_index r =
    let rec go i = function
      | [] -> -1
      | x :: rest -> if String.equal x r then i else go (i + 1) rest
    in
    go 0 rules
  in
  Format.fprintf ppf "@[<v 2>{@ ";
  Format.fprintf ppf
    {|"$schema": "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",@ |};
  Format.fprintf ppf {|"version": "2.1.0",@ |};
  Format.fprintf ppf "@[<v 2>\"runs\": [@ @[<v 2>{@ ";
  Format.fprintf ppf "@[<v 2>\"tool\": { \"driver\": { \"name\": %s,@ "
    (Report.Json.quote "ff2latch-lint");
  Format.fprintf ppf "@[<v 2>\"rules\": [@ ";
  sep_iter ppf
    (fun r -> Format.fprintf ppf {|@[<h>{ "id": %s }@]|} (Report.Json.quote r))
    rules;
  Format.fprintf ppf "@]@ ] } },@]@ ";
  Format.fprintf ppf "@[<v 2>\"results\": [@ ";
  sep_iter ppf
    (fun d ->
      Format.fprintf ppf "@[<v 2>{@ ";
      Format.fprintf ppf {|"ruleId": %s,@ |} (Report.Json.quote d.rule);
      Format.fprintf ppf {|"ruleIndex": %d,@ |} (rule_index d.rule);
      Format.fprintf ppf {|"level": %s,@ |}
        (Report.Json.quote (sarif_level d.severity));
      Format.fprintf ppf {|"message": { "text": %s }|}
        (Report.Json.quote d.message);
      (match d.loc with
       | Design_level -> ()
       | Object o ->
         Format.fprintf ppf
           {|,@ "locations": [ { "logicalLocations": [ { "name": %s } ] } ]|}
           (Report.Json.quote o)
       | Src { file; line; col } ->
         Format.fprintf ppf
           {|,@ "locations": [ { "physicalLocation": { "artifactLocation": { "uri": %s }, "region": { "startLine": %d, "startColumn": %d } } } ]|}
           (Report.Json.quote file) line col);
      if d.waived then
        Format.fprintf ppf {|,@ "suppressions": [ { "kind": "external" } ]|};
      Format.fprintf ppf "@]@ }")
    ds;
  Format.fprintf ppf "@]@ ]@]@ }@]@ ]@]@ }@."
