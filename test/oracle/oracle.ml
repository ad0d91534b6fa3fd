(* Reference interpreters: one instruction at a time, no ranges, no
   segment arithmetic.  See oracle.mli. *)

module Soc = Platform.Soc

(* The measured region of [r] relative to the post-setup snapshot
   [before], with [cycles] of measured time — Runner's differencing. *)
let measured config ~before ~cycles (r : Soc.result) =
  let r =
    match before with
    | None -> r
    | Some (b : Soc.result) ->
      {
        r with
        Soc.instructions = r.instructions - b.instructions;
        l1d_misses = r.l1d_misses - b.l1d_misses;
        l1d_accesses = r.l1d_accesses - b.l1d_accesses;
        l2_misses = r.l2_misses - b.l2_misses;
        l2_accesses = r.l2_accesses - b.l2_accesses;
        dram_requests = r.dram_requests - b.dram_requests;
        tlb_walks = r.tlb_walks - b.tlb_walks;
      }
  in
  {
    r with
    Soc.cycles;
    seconds = Util.Units.cycles_to_seconds ~freq_hz:(Platform.Config.freq_hz config) cycles;
  }

let collect soc = Soc.collect_result soc ~ranks:1 ~comm:None

let run_kernel ?(scale = 1.0) config (kernel : Workloads.Workload.kernel) =
  let soc = Soc.create config in
  let core = Soc.core_iface soc 0 in
  let before =
    Option.map
      (fun setup ->
        Seq.iter core.Smpi.feed (setup ~scale);
        collect soc)
      kernel.setup
  in
  let c0 = core.Smpi.now () in
  Seq.iter core.Smpi.feed (kernel.stream ~scale);
  let r = measured config ~before ~cycles:(core.Smpi.now () - c0) (collect soc) in
  Soc.release soc;
  r

let run_kernel_sampled ?(scale = 1.0) ?budget ~policy config (kernel : Workloads.Workload.kernel) =
  let interval, detail_every, warmup =
    match policy with
    | Sampling.Policy.Sampled { interval; detail_every; warmup } -> (interval, detail_every, warmup)
    | Sampling.Policy.Full -> invalid_arg "Oracle.run_kernel_sampled: Full policy"
  in
  let soc = Soc.create config in
  let now = (Soc.core_iface soc 0).Smpi.now in
  let before =
    Option.map
      (fun setup ->
        let tr = Trace.compile (setup ~scale) in
        for i = 0 to Trace.length tr - 1 do
          Soc.warm_trace soc tr ~lo:i ~hi:(i + 1)
        done;
        collect soc)
      kernel.setup
  in
  let tr = Trace.compile (kernel.stream ~scale) in
  let len = Trace.length tr in
  let stop =
    match budget with None -> max_int | Some b -> (b + interval - 1) / interval * interval
  in
  let total = min len stop in
  (* Closed segments, newest first: (mode, interval index, insns, cycles). *)
  let segments = ref [] in
  let seg = ref None in
  let close () =
    match !seg with
    | None -> ()
    | Some (mode, idx, n, c0) -> segments := (mode, idx, n, now () - c0) :: !segments
  in
  for q = 0 to total - 1 do
    let mode = Sampling.Interval.mode_of ~interval ~detail_every ~warmup q in
    let idx = q / interval in
    (match !seg with
    | Some (m, i, n, c0) when m = mode && i = idx -> seg := Some (m, i, n + 1, c0)
    | _ ->
      close ();
      seg := Some (mode, idx, 1, now ()));
    match mode with
    | Warming -> Soc.warm_trace soc tr ~lo:q ~hi:(q + 1)
    | Detailed | Warmup -> Soc.feed_trace soc tr ~lo:q ~hi:(q + 1)
  done;
  close ();
  let segments = List.rev !segments in
  let sum mode f =
    List.fold_left (fun acc (m, _, n, c) -> if m = mode then acc + f n c else acc) 0 segments
  in
  let stratum i = i / detail_every in
  (* A CPI sample per detailed segment; each stratum's warmed
     instructions are extrapolated by its own sample, or by the mean
     when it has none. *)
  let stats = Util.Stats.Online.create () in
  let stratum_cpi = Hashtbl.create 64 and stratum_warmed = Hashtbl.create 64 in
  List.iter
    (fun (m, i, n, c) ->
      match (m : Sampling.Interval.mode) with
      | Detailed ->
        let cpi = float_of_int c /. float_of_int n in
        Util.Stats.Online.add stats cpi;
        Hashtbl.replace stratum_cpi (stratum i) cpi
      | Warming -> (
        match Hashtbl.find_opt stratum_warmed (stratum i) with
        | Some r -> r := !r + n
        | None -> Hashtbl.add stratum_warmed (stratum i) (ref n))
      | Warmup -> ())
    segments;
  let mean = if Util.Stats.Online.count stats = 0 then 0.0 else Util.Stats.Online.mean stats in
  let extrapolated =
    Hashtbl.fold
      (fun s w acc ->
        (match Hashtbl.find_opt stratum_cpi s with Some c -> c | None -> mean)
        *. float_of_int !w
        +. acc)
      stratum_warmed 0.0
  in
  let warmed_intervals =
    List.sort_uniq compare
      (List.filter_map
         (fun (m, i, _, _) -> if m = Sampling.Interval.Warming then Some i else None)
         segments)
  in
  let open Sampling.Interval in
  let estimate =
    Sampling.Estimate.of_samples ~policy ~stats ~extrapolated ~total_insns:total
      ~detailed_insns:(sum Detailed (fun n _ -> n))
      ~warmup_insns:(sum Warmup (fun n _ -> n))
      ~warmed_insns:(sum Warming (fun n _ -> n))
      ~measured_cycles:(sum Detailed (fun _ c -> c))
      ~warmup_cycles:(sum Warmup (fun _ c -> c))
      ~intervals_detailed:(sum Detailed (fun _ _ -> 1))
      ~intervals_warmed:(List.length warmed_intervals)
      ~complete:(len < stop)
  in
  let r = measured config ~before ~cycles:estimate.Sampling.Estimate.est_cycles (collect soc) in
  Soc.release soc;
  (r, estimate)
