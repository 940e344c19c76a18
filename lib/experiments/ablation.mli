(** Ablation studies for the design choices DESIGN.md calls out:
    solver choice, the clock-gating mechanisms of Section IV-D, retiming,
    and the DDCG fanout limit (the paper picks 32). *)

(** Exact solvers vs greedy warm start on s5378, s13207, des3, sha256,
    plasma and aes: inserted-latch counts and time. *)
val solver : unit -> Report.Table.t

(** Clock-gating mechanisms switched on one at a time, on s13207. *)
val clock_gating : unit -> Report.Table.t

(** Retiming on/off on an 8-bit, 6-stage linear pipeline with 6 levels
    of logic per stage: moves, minimum period and combinational area. *)
val retiming : unit -> Report.Table.t

(** DDCG maximum fanout sweep over 4, 8, 16, 32 and 64, on s35932. *)
val ddcg_fanout : unit -> Report.Table.t

(** Clock-skew tolerance (the robustness the paper's conclusions point to
    as future work): hold-fix buffer demand of the three design styles
    on plasma, at 0.02, 0.05, 0.08 and 0.12 ns of skew. *)
val skew_tolerance : unit -> Report.Table.t

(** Multi-corner (PVT) robustness: setup slack and hold-buffer demand of
    the three styles of s13207 at fast/typical/slow corners — the
    quantification the paper's conclusion lists as future work. *)
val pvt : unit -> Report.Table.t
