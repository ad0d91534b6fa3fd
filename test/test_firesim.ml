(* Tests for the FireSim host-rate model: simulated target MHz and
   slowdown for the paper's FPGA hosts. *)

let fake_result ~cycles ~dram : Platform.Soc.result =
  {
    platform = "x";
    ranks = 1;
    cycles;
    seconds = float_of_int cycles /. 1.6e9;
    instructions = cycles;
    per_core = [||];
    l1d_misses = 0;
    l1d_accesses = 0;
    l2_misses = 0;
    l2_accesses = 0;
    dram_requests = dram;
    tlb_walks = 0;
    comm = None;
  }

let test_host_rates_match_paper () =
  (* With negligible DRAM traffic, the configured hosts land at the
     paper's quoted simulation rates. *)
  let r = fake_result ~cycles:100_000_000 ~dram:0 in
  let rocket = Firesim.Host.report Firesim.Host.u250_rocket ~target_freq_hz:1.6e9 r in
  let boom = Firesim.Host.report Firesim.Host.u250_boom ~target_freq_hz:2.0e9 r in
  Alcotest.(check bool)
    (Printf.sprintf "rocket ~60 MHz (%.1f)" rocket.Firesim.Host.target_mhz)
    true
    (Float.abs (rocket.Firesim.Host.target_mhz -. 60.0) < 2.0);
  Alcotest.(check bool)
    (Printf.sprintf "rocket ~25x slowdown (%.0f)" rocket.Firesim.Host.slowdown)
    true
    (Float.abs (rocket.Firesim.Host.slowdown -. 26.7) < 3.0);
  Alcotest.(check bool) (Printf.sprintf "boom ~15 MHz (%.1f)" boom.Firesim.Host.target_mhz) true
    (Float.abs (boom.Firesim.Host.target_mhz -. 15.0) < 1.0);
  Alcotest.(check bool) (Printf.sprintf "boom ~133x (%.0f)" boom.Firesim.Host.slowdown) true
    (Float.abs (boom.Firesim.Host.slowdown -. 133.0) < 10.0)

let test_host_dram_stalls_slow_simulation () =
  let light = fake_result ~cycles:10_000_000 ~dram:0 in
  let heavy = fake_result ~cycles:10_000_000 ~dram:2_000_000 in
  let l = Firesim.Host.report Firesim.Host.u250_rocket ~target_freq_hz:1.6e9 light in
  let h = Firesim.Host.report Firesim.Host.u250_rocket ~target_freq_hz:1.6e9 heavy in
  Alcotest.(check bool) "memory traffic lowers sim rate" true
    (h.Firesim.Host.target_mhz < l.Firesim.Host.target_mhz);
  Alcotest.(check bool) "fmr grows" true (h.Firesim.Host.effective_fmr > l.Firesim.Host.effective_fmr)

let suite =
  [
    Alcotest.test_case "host rates match paper" `Quick test_host_rates_match_paper;
    Alcotest.test_case "dram stalls slow host" `Quick test_host_dram_stalls_slow_simulation;
  ]
