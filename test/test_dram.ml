(* Tests for the DRAM channel model. *)

let cfg ?(channels = 1) () = Dram.ddr3_2000_fr_fcfs ~channels

let test_peak_bandwidth () =
  Alcotest.(check (float 1e-6)) "ddr3-2000 x1 = 16 GB/s" 16.0
    (Dram.peak_bandwidth_gbs (cfg ()));
  Alcotest.(check (float 1e-6)) "ddr4-3200 x4 = 102.4 GB/s" 102.4
    (Dram.peak_bandwidth_gbs (Dram.ddr4_3200 ~channels:4));
  Alcotest.(check (float 1e-6)) "lpddr4 dual-32 = 21.3 GB/s" 21.328
    (Dram.peak_bandwidth_gbs Dram.lpddr4_2666_dual32)

let test_idle_latency_ordering () =
  (* The FireSim DDR3 path is deliberately slower than both silicon
     memories — the paper's core memory-system finding. *)
  let sim = Dram.idle_latency_ns (cfg ()) in
  let bpi = Dram.idle_latency_ns Dram.lpddr4_2666_dual32 in
  let mkv = Dram.idle_latency_ns (Dram.ddr4_3200 ~channels:4) in
  Alcotest.(check bool) "sim slower than lpddr4" true (sim > bpi);
  Alcotest.(check bool) "sim slower than ddr4" true (sim > mkv)

let test_row_hit_faster_than_conflict () =
  let d = Dram.create (cfg ()) in
  let t1 = Dram.request d ~time_ns:0.0 ~addr:0 ~write:false in
  (* same row again: row hit *)
  let t2 = Dram.request d ~time_ns:(t1 +. 10.0) ~addr:8 ~write:false in
  let hit_cost = t2 -. (t1 +. 10.0) in
  (* now a different row in the same bank: conflict *)
  let nbanks = 4 * 8 in
  let row_stride = 8192 * nbanks in
  let t3 = Dram.request d ~time_ns:(t2 +. 10.0) ~addr:row_stride ~write:false in
  let conflict_cost = t3 -. (t2 +. 10.0) in
  Alcotest.(check bool)
    (Printf.sprintf "conflict (%.1f) > hit (%.1f)" conflict_cost hit_cost)
    true (conflict_cost > hit_cost);
  let s = Dram.stats d in
  Alcotest.(check int) "one row hit" 1 s.Dram.row_hits;
  Alcotest.(check int) "one conflict" 1 s.Dram.row_conflicts;
  Alcotest.(check int) "one empty" 1 s.Dram.row_empty

let test_bus_serializes_bursts () =
  let d = Dram.create (cfg ()) in
  (* Two simultaneous requests to different banks still share the data
     bus: completions must be separated by at least one burst time. *)
  let t1 = Dram.request d ~time_ns:0.0 ~addr:0 ~write:false in
  let t2 = Dram.request d ~time_ns:0.0 ~addr:64 ~write:false in
  let burst = 64.0 /. (2000.0 *. 8.0) *. 1000.0 in
  Alcotest.(check bool) "bursts serialized" true (Float.abs (t2 -. t1) >= burst -. 1e-9)

let test_channels_parallel () =
  let d2 = Dram.create (cfg ~channels:2 ()) in
  (* Lines 0 and 1 go to different channels: independent buses. *)
  let t1 = Dram.request d2 ~time_ns:0.0 ~addr:0 ~write:false in
  let t2 = Dram.request d2 ~time_ns:0.0 ~addr:64 ~write:false in
  Alcotest.(check (float 1e-9)) "parallel channels" t1 t2

let test_queue_backpressure () =
  let shallow = { (cfg ()) with Dram.queue_depth = 2 } in
  let d = Dram.create shallow in
  let last = ref 0.0 in
  for i = 0 to 9 do
    last := Dram.request d ~time_ns:(float_of_int i) ~addr:(i * 4096 * 64) ~write:false
  done;
  Alcotest.(check bool) "stalls recorded" true ((Dram.stats d).Dram.queue_stalls > 0);
  Alcotest.(check bool) "completion pushed out" true (!last > 100.0)

let test_write_read_counted () =
  let d = Dram.create (cfg ()) in
  ignore (Dram.request d ~time_ns:0.0 ~addr:0 ~write:true);
  ignore (Dram.request d ~time_ns:100.0 ~addr:64 ~write:false);
  let s = Dram.stats d in
  Alcotest.(check int) "1 write" 1 s.Dram.writes;
  Alcotest.(check int) "1 read" 1 s.Dram.reads;
  Alcotest.(check int) "2 requests" 2 s.Dram.requests

let test_reset_stats () =
  let d = Dram.create (cfg ()) in
  ignore (Dram.request d ~time_ns:0.0 ~addr:0 ~write:false);
  Dram.reset_stats d;
  Alcotest.(check int) "cleared" 0 (Dram.stats d).Dram.requests

let test_streaming_bandwidth_realistic () =
  (* Stream 1 MiB of lines back-to-back; achieved bandwidth must be below
     peak but within a plausible fraction of it. *)
  let d = Dram.create (cfg ()) in
  let lines = 16384 in
  let t = ref 0.0 in
  for i = 0 to lines - 1 do
    t := Dram.request d ~time_ns:!t ~addr:(i * 64) ~write:false
  done;
  let bytes = float_of_int (lines * 64) in
  let gbs = bytes /. !t in
  (* ns and bytes -> GB/s conveniently *)
  Alcotest.(check bool) (Printf.sprintf "0.15 < %.2f GB/s <= 16" gbs) true (gbs > 0.15 && gbs <= 16.0)

(* The address decode is shifts and masks, so every geometry field it
   divides by must be a power of two; [create] names the one that is not. *)
let test_rejects_non_pow2 () =
  let base = cfg () in
  List.iter
    (fun (what, c) ->
      Alcotest.check_raises what
        (Invalid_argument ("Dram.create: " ^ what ^ " must be a power of two"))
        (fun () -> ignore (Dram.create c)))
    [
      ("channels", { base with channels = 3 });
      ("ranks * banks_per_rank", { base with ranks = 3 });
      ("ranks * banks_per_rank", { base with banks_per_rank = 6 });
      ("row_bytes", { base with row_bytes = 6000 });
      ("line_bytes", { base with line_bytes = 48 });
    ];
  (* Non-power-of-two factors whose product is one are fine. *)
  ignore (Dram.create { base with ranks = 2; banks_per_rank = 8 })

let prop_completion_after_issue =
  QCheck.Test.make ~name:"dram completion > issue time" ~count:200
    QCheck.(pair (float_range 0.0 1e6) (int_range 0 0xFFFFFF))
    (fun (t, addr) ->
      let d = Dram.create (cfg ()) in
      Dram.request d ~time_ns:t ~addr ~write:false > t)

let suite =
  [
    Alcotest.test_case "peak bandwidths" `Quick test_peak_bandwidth;
    Alcotest.test_case "idle latency ordering" `Quick test_idle_latency_ordering;
    Alcotest.test_case "row hit vs conflict" `Quick test_row_hit_faster_than_conflict;
    Alcotest.test_case "data bus serializes" `Quick test_bus_serializes_bursts;
    Alcotest.test_case "channels parallel" `Quick test_channels_parallel;
    Alcotest.test_case "queue backpressure" `Quick test_queue_backpressure;
    Alcotest.test_case "read/write accounting" `Quick test_write_read_counted;
    Alcotest.test_case "reset stats" `Quick test_reset_stats;
    Alcotest.test_case "streaming bandwidth" `Quick test_streaming_bandwidth_realistic;
    Alcotest.test_case "non-power-of-two geometry rejected" `Quick test_rejects_non_pow2;
    QCheck_alcotest.to_alcotest prop_completion_after_issue;
  ]
