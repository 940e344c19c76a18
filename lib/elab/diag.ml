exception Error of Netlist_io.Srcloc.t option * string

let () =
  Printexc.register_printer (function
    | Error (loc, msg) ->
      Some
        (Printf.sprintf "Elab.Diag.Error (%s)"
           (match loc with
            | Some l -> Netlist_io.Srcloc.to_string l ^ ": " ^ msg
            | None -> msg))
    | _ -> None)

let fail ?source ?loc fmt =
  Format.kasprintf
    (fun msg ->
      raise (Error (loc, Netlist_io.Srcloc.message ?source ?loc msg)))
    fmt

(* --- Lint collection ---------------------------------------------- *)

(* Non-fatal findings (rules RTL-001..RTL-004) accumulate here while a [collect] is
   active; outside one, [lintf] is a no-op so plain elaboration is
   unaffected. *)
let collector : Lint_core.Diagnostic.t list ref option ref = ref None

let lint_pos (l : Netlist_io.Srcloc.t) =
  Lint_core.Diagnostic.Src
    { Lint_core.Diagnostic.file = l.Netlist_io.Srcloc.file;
      line = l.Netlist_io.Srcloc.line;
      col = l.Netlist_io.Srcloc.col }

let lintf ~rule ~severity ?loc fmt =
  Format.kasprintf
    (fun msg ->
      match !collector with
      | None -> ()
      | Some acc ->
        acc :=
          Lint_core.Diagnostic.make ~rule ~severity
            ?loc:(Option.map lint_pos loc) msg
          :: !acc)
    fmt

let collect f =
  let acc = ref [] in
  let saved = !collector in
  collector := Some acc;
  Fun.protect
    ~finally:(fun () -> collector := saved)
    (fun () ->
      let r = f () in
      (r, List.rev !acc))
