(* The sampled-simulation engine: one pass over a compiled trace,
   handing every segment of the policy's interval schedule to the
   detailed timing model or the functional-warming fast path and
   accumulating per-interval CPI samples as it goes.  The schedule is
   piecewise constant in the stream position ({!Interval.segment}), so
   each segment is a single range call: no per-instruction dispatch and
   no per-instruction allocation. *)

type core = {
  feed_range : lo:int -> hi:int -> unit;  (** detailed timing over [lo, hi) *)
  warm_range : lo:int -> hi:int -> unit;  (** functional warming over [lo, hi) *)
  now : unit -> int;  (** completion frontier, cycles *)
}

let publish_telemetry telemetry est =
  if Telemetry.Registry.enabled telemetry then
    Telemetry.Registry.set_all telemetry
      [
        ("sampling.insns.total", est.Estimate.total_insns);
        ("sampling.insns.detailed", est.Estimate.detailed_insns);
        ("sampling.insns.warmup", est.Estimate.warmup_insns);
        ("sampling.insns.warmed", est.Estimate.warmed_insns);
        ("sampling.cycles.measured", est.Estimate.measured_cycles);
        ("sampling.cycles.warmup", est.Estimate.warmup_cycles);
        ("sampling.cycles.estimated", est.Estimate.est_cycles);
        ( "sampling.cycles.extrapolated",
          est.Estimate.est_cycles - est.Estimate.measured_cycles - est.Estimate.warmup_cycles );
        ("sampling.intervals.detailed", est.Estimate.intervals_detailed);
        ("sampling.intervals.warmed", est.Estimate.intervals_warmed);
        (* Simulated-work speedup: instructions covered per detailed-mode
           instruction, x100 (the wall-clock speedup this buys depends on
           the warming path's relative cost; see the bench target). *)
        ( "sampling.speedup_x100",
          let detailed = est.Estimate.detailed_insns + est.Estimate.warmup_insns in
          if detailed = 0 then 0 else est.Estimate.total_insns * 100 / detailed );
      ]

let run ?(telemetry = Telemetry.Registry.disabled) ?budget ~policy core ~len =
  Policy.validate policy;
  if len < 0 then invalid_arg "Sampling.Engine.run: negative length";
  (match budget with
  | Some b when b <= 0 -> invalid_arg "Sampling.Engine.run: budget must be positive"
  | _ -> ());
  match policy with
  | Policy.Full ->
    let c0 = core.now () in
    let stop = match budget with Some b -> b | None -> max_int in
    (* Reaching the budget marks the estimate incomplete, even when it
       lands exactly on the last instruction. *)
    let n = if len >= stop then stop else len in
    core.feed_range ~lo:0 ~hi:n;
    let e = Estimate.exact ~policy ~cycles:(core.now () - c0) ~insns:n in
    { e with Estimate.complete = len < stop }
  | Policy.Sampled { interval; detail_every; warmup } ->
    (* Stop at the first interval boundary on/after the budget, so the last
       CPI sample covers a whole interval. *)
    let stop =
      match budget with
      | None -> max_int
      | Some b -> (b + interval - 1) / interval * interval
    in
    let total = if len >= stop then stop else len in
    let stats = Util.Stats.Online.create () in
    (* Per-stratum accounting (a stratum = detail_every consecutive
       intervals holding one detailed sample): each stratum's warmed
       instructions are extrapolated by its own sample's CPI, so a phase
       change in the stream costs at most one stratum of error instead of
       reweighting the whole estimate.  Strata whose sample never closed
       (budget cut, stream end) fall back to the global mean. *)
    let stratum_warmed : (int, int ref) Hashtbl.t = Hashtbl.create 64 in
    let stratum_cpi : (int, float) Hashtbl.t = Hashtbl.create 64 in
    let detailed_insns = ref 0 and warmup_insns = ref 0 and warmed_insns = ref 0 in
    let measured_cycles = ref 0 and warmup_cycles = ref 0 in
    let intervals_detailed = ref 0 and intervals_warmed = ref 0 in
    let pos = ref 0 in
    while !pos < total do
      let lo = !pos in
      let mode, until = Interval.segment ~interval ~detail_every ~warmup lo in
      let idx = Interval.index_of ~interval lo in
      let stratum = idx / detail_every in
      let hi = if until > total then total else until in
      let count = hi - lo in
      let c0 = core.now () in
      (match mode with
      | Interval.Detailed | Interval.Warmup -> core.feed_range ~lo ~hi
      | Interval.Warming -> core.warm_range ~lo ~hi);
      let delta = core.now () - c0 in
      (match mode with
      | Interval.Detailed ->
        detailed_insns := !detailed_insns + count;
        measured_cycles := !measured_cycles + delta;
        incr intervals_detailed;
        let cpi = float_of_int delta /. float_of_int count in
        Util.Stats.Online.add stats cpi;
        Hashtbl.replace stratum_cpi stratum cpi
      | Interval.Warmup ->
        warmup_insns := !warmup_insns + count;
        warmup_cycles := !warmup_cycles + delta
      | Interval.Warming -> (
        (* An interval holds at most one warming segment: its start. *)
        warmed_insns := !warmed_insns + count;
        incr intervals_warmed;
        match Hashtbl.find_opt stratum_warmed stratum with
        | Some r -> r := !r + count
        | None -> Hashtbl.add stratum_warmed stratum (ref count)));
      pos := hi
    done;
    let mean_cpi =
      if Util.Stats.Online.count stats = 0 then 0.0 else Util.Stats.Online.mean stats
    in
    let extrapolated =
      Hashtbl.fold
        (fun stratum warmed sum ->
          let cpi =
            match Hashtbl.find_opt stratum_cpi stratum with Some c -> c | None -> mean_cpi
          in
          sum +. (cpi *. float_of_int !warmed))
        stratum_warmed 0.0
    in
    let est =
      Estimate.of_samples ~policy ~stats ~extrapolated ~total_insns:total
        ~detailed_insns:!detailed_insns ~warmup_insns:!warmup_insns ~warmed_insns:!warmed_insns
        ~measured_cycles:!measured_cycles ~warmup_cycles:!warmup_cycles
        ~intervals_detailed:!intervals_detailed ~intervals_warmed:!intervals_warmed
        ~complete:(len < stop)
    in
    publish_telemetry telemetry est;
    est
