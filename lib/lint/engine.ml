module D = Lint_core.Diagnostic

type report = {
  diagnostics : D.t list;
  errors : int;
  warnings : int;
  infos : int;
}

let ok r = r.errors = 0

(* PHASE-006: a register's root port has no waveform *)
let unclocked d (i, port) =
  D.makef ~rule:"PHASE-006" ~severity:D.Error
    ~loc:(D.Object (Netlist.Design.inst_name d i))
    "register %s is clocked by port %s which has no waveform in the clock \
     specification"
    (Netlist.Design.inst_name d i) port

(* every pass over [d]; [structural ()] yields its structural findings
   and [timing ()] the analysis the timing passes read *)
let lint ~waivers ~extra d ~clocks ~structural timing =
  Obs.span "lint.run" @@ fun () ->
  let structural = structural () in
  let clock = Clock_audit.run d ~clocks in
  (* timing needs an acyclic network: on a loop NET-002 stands alone *)
  let timing =
    if List.exists (fun (dg : D.t) -> String.equal dg.D.rule "NET-002") structural
    then []
    else begin
      let a = timing () in
      List.map (unclocked d) a.Sta.Smo.unclocked
      @ Phase_audit.run a @ Hold_audit.run a
    end
  in
  let reset = Reset_audit.run d in
  let all = structural @ clock @ timing @ reset @ extra in
  let all = Lint_core.Waiver.apply waivers all in
  let diagnostics = List.stable_sort D.compare all in
  let errors, warnings, infos = D.counts diagnostics in
  Obs.count "lint.diagnostics" (List.length diagnostics);
  Obs.count "lint.errors" errors;
  Obs.count "lint.warnings" warnings;
  Obs.count "lint.info" infos;
  let by_rule = Hashtbl.create 16 in
  List.iter
    (fun (dg : D.t) ->
      if not dg.D.waived then
        Hashtbl.replace by_rule dg.D.rule
          (1 + Option.value ~default:0 (Hashtbl.find_opt by_rule dg.D.rule)))
    diagnostics;
  List.iter
    (fun rule -> Obs.count ("lint.rule." ^ rule) (Hashtbl.find by_rule rule))
    (List.sort String.compare
       (Hashtbl.fold (fun k _ acc -> k :: acc) by_rule []));
  { diagnostics; errors; warnings; infos }

let run ?(waivers = []) ?(extra = []) d ~clocks =
  lint ~waivers ~extra d ~clocks
    ~structural:(fun () -> Netlist.Check.diagnostics d)
    (fun () -> Sta.Smo.analyse d ~clocks)

let audit ~structural (a : Sta.Smo.t) =
  lint ~waivers:[] ~extra:[] a.graph.Sta.Graph.design ~clocks:a.clocks
    ~structural:(fun () -> structural)
    (fun () -> a)

let pp ppf r = Lint_core.Emit.text ~show_waived:true ppf r.diagnostics
