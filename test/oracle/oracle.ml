(* Reference interpreter: one instruction at a time, no ranges.  See
   oracle.mli. *)

module Soc = Platform.Soc
module Scan = Scan

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

(* No clock reaches [max_int], so the whole stream is fed. *)
let feed_all (core : Smpi.rank_iface) s =
  match core.feed_until s ~horizon:max_int with
  | None -> ()
  | Some _ -> invalid_arg "Oracle.feed_all: stream stopped short"

let run_kernel ?(scale = 1.0) config (kernel : Workloads.Workload.kernel) =
  let soc = Soc.create config in
  let core = Soc.core_iface soc 0 in
  let before =
    Option.map
      (fun setup ->
        feed_all core (setup ~scale);
        collect soc)
      kernel.setup
  in
  let c0 = core.Smpi.now () in
  feed_all core (kernel.stream ~scale);
  let r = measured config ~before ~cycles:(core.Smpi.now () - c0) (collect soc) in
  Soc.release soc;
  r
