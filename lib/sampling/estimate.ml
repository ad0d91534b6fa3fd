type t = {
  policy : Policy.t;
  total_insns : int;
  detailed_insns : int;
  warmup_insns : int;
  warmed_insns : int;
  measured_cycles : int;
  warmup_cycles : int;
  intervals_detailed : int;
  intervals_warmed : int;
  mean_cpi : float;
  cpi_stddev : float;
  est_cycles : int;
  ci95_cycles : float;
  complete : bool;
}

(* Two-sided 95% normal quantile; detailed-interval counts are large
   enough (>= ~10) that the normal approximation is the standard choice
   (SMARTS uses the same construction). *)
let z95 = 1.96

let of_samples ~policy ~stats ~extrapolated ~total_insns ~detailed_insns ~warmup_insns
    ~warmed_insns ~measured_cycles ~warmup_cycles ~intervals_detailed ~intervals_warmed ~complete
    =
  let n = Util.Stats.Online.count stats in
  let mean_cpi = if n = 0 then 0.0 else Util.Stats.Online.mean stats in
  let cpi_stddev = if n = 0 then 0.0 else Util.Stats.Online.stddev stats in
  (* Exactly measured cycles (detailed + warmup windows) plus the
     caller's extrapolation over the functionally warmed population.
     With detail_every = 1 nothing is warmed and the estimate is exact. *)
  let est_cycles = measured_cycles + warmup_cycles + int_of_float (Float.round extrapolated) in
  (* The error is confined to the extrapolated term: the standard error of
     the mean CPI scales the warmed instruction count. *)
  let ci95_cycles =
    if n <= 1 || warmed_insns = 0 then 0.0
    else z95 *. (cpi_stddev /. sqrt (float_of_int n)) *. float_of_int warmed_insns
  in
  {
    policy;
    total_insns;
    detailed_insns;
    warmup_insns;
    warmed_insns;
    measured_cycles;
    warmup_cycles;
    intervals_detailed;
    intervals_warmed;
    mean_cpi;
    cpi_stddev;
    est_cycles;
    ci95_cycles;
    complete;
  }

let exact ~policy ~cycles ~insns =
  {
    policy;
    total_insns = insns;
    detailed_insns = insns;
    warmup_insns = 0;
    warmed_insns = 0;
    measured_cycles = cycles;
    warmup_cycles = 0;
    intervals_detailed = (if insns = 0 then 0 else 1);
    intervals_warmed = 0;
    mean_cpi = (if cycles = 0 || insns = 0 then 0.0 else float_of_int cycles /. float_of_int insns);
    cpi_stddev = 0.0;
    est_cycles = cycles;
    ci95_cycles = 0.0;
    complete = true;
  }

let cpi t =
  if t.total_insns = 0 then 0.0 else float_of_int t.est_cycles /. float_of_int t.total_insns

let seconds ~freq_hz t = float_of_int t.est_cycles /. freq_hz

let rel_ci t = if t.est_cycles = 0 then 0.0 else t.ci95_cycles /. float_of_int t.est_cycles

let detail_fraction t =
  if t.total_insns = 0 then 1.0
  else float_of_int (t.detailed_insns + t.warmup_insns) /. float_of_int t.total_insns
