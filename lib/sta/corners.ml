type corner = {
  corner_name : string;
  derate_early : float;
  derate_late : float;
  skew : float;
}

let default_corners = [
  { corner_name = "fast"; derate_early = 0.75; derate_late = 0.85; skew = 0.06 };
  { corner_name = "typical"; derate_early = 1.0; derate_late = 1.0; skew = 0.04 };
  { corner_name = "slow"; derate_early = 1.1; derate_late = 1.3; skew = 0.06 };
]

let check_all d ~clocks =
  List.map
    (fun c ->
      (c,
       Smo.check ~clock_skew:c.skew
         ~derate:(c.derate_early, c.derate_late) d ~clocks))
    default_corners
