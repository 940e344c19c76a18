type t =
  | Uniform_random of float
  | Self_check
  | Program of program

and program =
  | Pi
  | Hello_world
  | Rv32ui
  | Dhrystone
  | Coremark

let name = function
  | Uniform_random p -> Printf.sprintf "random(%.2f)" p
  | Self_check -> "self-check"
  | Program Pi -> "pi"
  | Program Hello_world -> "hello-world"
  | Program Rv32ui -> "rv32ui-v-simple"
  | Program Dhrystone -> "dhrystone"
  | Program Coremark -> "coremark"

(* Activity of the CPU interface ports per program: (imem, dmem, irq). *)
let program_rates = function
  | Pi -> (0.30, 0.20, 0.002)
  | Hello_world -> (0.12, 0.06, 0.002)
  | Rv32ui -> (0.28, 0.18, 0.0)
  | Dhrystone -> (0.38, 0.30, 0.002)
  | Coremark -> (0.46, 0.36, 0.002)

let shape = function
  | Uniform_random p -> Sim.Stimulus.Uniform p
  | Self_check ->
    Sim.Stimulus.Bursty
      { burst_len = 48; idle_len = 16; toggle_probability = 0.35 }
  | Program p ->
    let imem, dmem, irq = program_rates p in
    Sim.Stimulus.Profiled
      (fun input ->
        if String.starts_with ~prefix:"imem" input then imem
        else if String.starts_with ~prefix:"dmem" input then dmem
        else if String.starts_with ~prefix:"irq" input then irq
        else (imem +. dmem) /. 2.0)

let draw t ~seeds ~cycles design =
  Sim.Stimulus.draw ~seeds ~cycles (shape t) (Sim.Stimulus.inputs_of design)

let stimulus t ~seed ~cycles design =
  Sim.Stimulus.lane (draw t ~seeds:[| seed |] ~cycles design) 0
