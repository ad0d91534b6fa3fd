(* The batch workloads (micro-trace, apps-mpi): set-up, the
   timed passes, the traced layer breakdown, and the reference section
   each contributes to perfbench/reference.json. *)

open Measure
open Cells
module Tr = Telemetry.Trace

(* Set-up and the first timed pass run in grid order, as a user's run of
   the figures would, so the peak resident set after them does not depend
   on the seed; later passes are seed-permuted. *)
let set_up (b : batch) =
  size_caches ();
  List.iter (fun c -> ignore (c.run Reg.disabled)) b.warm

(* ----------------------------------------------------------- timed run *)

(* Whole timed passes over the cells, the first in grid order, the rest
   each in a fresh seed-permuted order: at least [b.min_passes], and more
   while another pass of the mean length still fits in [seconds].  Every
   cell runs equally often, so each weighs the same in the latency
   quantiles.  From the second pass on, the host speed is sampled
   between cells once per [gauge_every] of cell time, and every
   execution's time is scaled to the reference speed (Gauge).  The first
   pass runs without samples, whose number depends on the host's speed:
   its allocations, and so the peak resident set read after it, are the
   same in every run. *)
let gauge_every = 0.05

let timed_passes ~rng ~seconds ~t (b : batch) g =
  let execs = ref [] and first = Hashtbl.create 512 in
  let t0 = now () in
  let rss = ref Float.nan in
  let due = ref gauge_every in
  let rec pass k order =
    List.iter
      (fun c ->
        if k > 1 && !due >= gauge_every then begin
          Gauge.sample ~n:(int_of_float (!due /. gauge_every)) g;
          due := Float.rem !due gauge_every
        end;
        let c0 = now () in
        let o = c.run Reg.disabled in
        let c1 = now () in
        if k > 1 then due := !due +. (c1 -. c0);
        check_cell t b c.id o;
        execs := (c.id, (c0 +. c1) /. 2.0, c1 -. c0) :: !execs;
        if not (Hashtbl.mem first c.id) then Hashtbl.replace first c.id o)
      order;
    if Float.is_nan !rss then rss := peak_rss_mib "self";
    let elapsed = now () -. t0 in
    if k < b.min_passes || elapsed *. float_of_int (k + 1) /. float_of_int k <= seconds then
      pass (k + 1) (shuffle rng b.cells)
    else k
  in
  let passes = pass 1 b.cells in
  Gauge.sample ~n:(1 + int_of_float (!due /. gauge_every)) g;
  let times = Hashtbl.create 512 in
  List.iter
    (fun (id, at, dt) ->
      Hashtbl.replace times id (Gauge.scale g ~at dt :: Option.value ~default:[] (Hashtbl.find_opt times id)))
    !execs;
  (times, first, passes, now () -. t0, !rss)

(* Throughput counts each cell once, at its median scaled time over the
   passes; latency quantiles run over every timed execution, so a stall
   in any of them can reach [tail_ms]. *)
let batch_metrics (b : batch) times first ~rss =
  let meds = List.map (fun c -> (c, median (Hashtbl.find times c.id))) b.cells in
  let host_s = sum (List.map snd meds) in
  let work f =
    isum (List.map (fun (c, _) -> f (Hashtbl.find first c.id) (setup_work b.name c.id)) meds)
  in
  let insns = work (fun o (i, _) -> o.insns + i) in
  let cycles = work (fun o (_, c) -> o.cycles + c) in
  let ms = List.concat_map (fun c -> List.map (fun s -> s *. 1e3) (Hashtbl.find times c.id)) b.cells in
  [
    metric "mips" "Minsn/s" (float_of_int insns /. host_s /. 1e6);
    metric "target_mhz" "MHz" (float_of_int cycles /. host_s /. 1e6);
    metric "p50_ms" "ms" (median ms);
    metric "tail_ms" "ms" (quantile ms b.tail_q);
    metric "peak_rss_mib" "MiB" rss;
  ]

let run ~spawned_at ~seed ~seconds (b : batch) =
  let rng = Random.State.make [| seed |] in
  let t = tally () in
  set_up b;
  let setup_s = Gauge.scale_setup (now () -. spawned_at) in
  let times, first, passes, elapsed, rss, slowdown =
    Gauge.with_gauge (fun g ->
        let times, first, passes, elapsed, rss = timed_passes ~rng ~seconds ~t b g in
        (times, first, passes, elapsed, rss, Gauge.overall g))
  in
  check_figures t b first;
  let fp = fingerprint first in
  check_fingerprint t b.name "cells" fp;
  emit ~setup_s ~t (batch_metrics b times first ~rss)
    [
      ("passes", J.Num (float_of_int passes)); ("elapsed_s", J.Num elapsed); ("slowdown", J.Num slowdown);
      ("fingerprint", J.Str fp);
    ]

(* ---------------------------------------------------------- traced pass *)

type traced = {
  outcomes : (string, outcome) Hashtbl.t;
  walls : (string, float) Hashtbl.t;  (** host seconds per cell *)
  counters : (string, int) Hashtbl.t;  (** model counters summed over the cells *)
  recv_wait : float;  (** smpi receive-wait cycles summed over the cells *)
}

(* One pass with a span around every cell and a private telemetry sink
   per cell, whose counters are summed and whose spans join [tel]. *)
let traced_pass tel cells =
  let outcomes = Hashtbl.create 512 and walls = Hashtbl.create 512 in
  let counters = Hashtbl.create 64 and recv_wait = ref 0.0 in
  Tracer.span tel "pass" (fun () ->
      List.iteri
        (fun i c ->
          Tracer.span tel "runner.cell" (fun () ->
              let sink = Reg.fork ~ns:(Printf.sprintf "c%d." i) tel in
              let c0 = now () in
              let o = c.run sink in
              Hashtbl.replace walls c.id (now () -. c0);
              Hashtbl.replace outcomes c.id o;
              List.iter
                (fun (n, v) ->
                  Hashtbl.replace counters n (v + Option.value ~default:0 (Hashtbl.find_opt counters n)))
                (Reg.counters sink);
              List.iter
                (fun (n, (h : Reg.hist_stats)) ->
                  if n = "smpi.recv_wait_cycles" then recv_wait := !recv_wait +. h.sum)
                (Reg.histograms sink);
              List.iter
                (fun (e : Tr.event) -> if e.cat = "span" then Tr.record (Reg.trace tel) e)
                (Tr.to_list (Reg.trace sink))))
        cells);
  { outcomes; walls; counters; recv_wait = !recv_wait }

let counters_fingerprint tp =
  Hashtbl.fold (fun n v acc -> Printf.sprintf "%s=%d" n v :: acc) tp.counters []
  |> List.sort compare |> digest_lines

(* Instructions and control instructions of a stream, forced once. *)
let force_stream s =
  Seq.fold_left
    (fun (n, c) (i : Isa.Insn.t) -> (n + 1, if Isa.Insn.is_ctrl i.kind then c + 1 else c))
    (0, 0) s

(* ------------------------------------------------------------ traced run *)

let run_traced ~spawned_at ~seed (b : batch) =
  let rng = Random.State.make [| seed |] in
  let t = tally () in
  (* From process start, so the trace cache's set-up misses count. *)
  let tc0 = Runner.trace_cache_stats () in
  set_up b;
  let warm_at = now () in
  let values = Hashtbl.create 64 in
  let set n v = Hashtbl.replace values n v in
  (* The same pass untraced, for the tracing overhead. *)
  let u0 = now () in
  List.iter (fun c -> check_cell t b c.id (c.run Reg.disabled)) (shuffle rng b.cells);
  let untraced_s = now () -. u0 in
  let tel = Tracer.create () in
  Tracer.root tel "bench" (fun () ->
      let g0 = Tracer.gc_now () in
      let p0 = now () in
      let tp = traced_pass tel (shuffle rng b.cells) in
      let traced_s = now () -. p0 in
      let g = Tracer.gc_delta g0 (Tracer.gc_now ()) in
      let tc1 = Runner.trace_cache_stats () in
      Hashtbl.iter (fun id o -> check_cell t b id o) tp.outcomes;
      check_figures t b tp.outcomes;
      check_fingerprint t b.name "cells" (fingerprint tp.outcomes);
      check_fingerprint t b.name "counters" (counters_fingerprint tp);
      let outs = Hashtbl.fold (fun id o acc -> (id, o) :: acc) tp.outcomes [] in
      let cnt n = float_of_int (Option.value ~default:0 (Hashtbl.find_opt tp.counters n)) in
      let measured = isum (List.map (fun (_, o) -> o.insns) outs) in
      let setup_insns = isum (List.map (fun (id, _) -> fst (setup_work b.name id)) outs) in
      let cell_s = sum (Hashtbl.fold (fun _ s acc -> s :: acc) tp.walls []) in
      let measure_s = if b.kernels = [] then cell_s else sum (List.map (fun (_, o) -> o.measure_s) outs) in
      set "runner.cell_setup_s" (sum (List.map (fun (_, o) -> o.setup_s) outs));
      set "runner.measure_s" measure_s;
      set "uarch.ns_per_insn" (ratio (measure_s *. 1e9) (float_of_int measured));
      if b.kernels <> [] then
        set "trace.cache_hit_ratio"
          (let h = tc1.tc_hits - tc0.tc_hits and m = tc1.tc_misses - tc0.tc_misses in
           ratio (float_of_int h) (float_of_int (h + m)));
      List.iter
        (fun n -> set n (cnt n))
        [
          "cache.l1i.accesses"; "cache.l1i.misses"; "cache.l1d.accesses"; "cache.l1d.misses";
          "cache.l2.accesses"; "cache.l2.misses"; "cache.llc.accesses"; "cache.llc.misses";
          "dram.requests"; "dram.row_hits"; "bus.transfers"; "core.mispredicts"; "smpi.messages";
          "smpi.bytes_moved";
        ];
      set "tlb.dtlb.misses" (cnt "tlb.dtlb.l1_misses");
      set "tlb.itlb.misses" (cnt "tlb.itlb.l1_misses");
      set "smpi.recv_wait_cycles" tp.recv_wait;
      if b.apps <> [] then begin
        let host ranks =
          sum
            (List.filter_map
               (fun s -> if s.ranks = ranks then Hashtbl.find_opt tp.walls (app_id s) else None)
               b.apps)
        in
        set "smpi.r4_over_r1" (ratio (host 4) (host 1))
      end;
      set "gc.alloc_bytes_per_insn" (ratio (g.minor *. 8.0) (float_of_int (measured + setup_insns)));
      set "gc.promoted_mib" (g.promoted *. 8.0 /. 1048576.0);
      set "gc.major_collections" (float_of_int g.major);
      set "telemetry.overhead_pct" (100.0 *. ratio (traced_s -. untraced_s) untraced_s);
      (* Layer calls outside the pass: stream generation, compile, block
         analysis, and the model components' per-call cost. *)
      let branches = Hashtbl.create 64 in
      let g0 = now () in
      List.iter
        (fun (k : W.kernel) ->
          Tracer.span tel "workloads.gen" (fun () ->
              Option.iter (fun s -> ignore (force_stream (s ~scale:b.scale))) k.setup;
              Hashtbl.replace branches k.name (snd (force_stream (k.stream ~scale:b.scale)))))
        b.kernels;
      List.iter
        (fun s ->
          Tracer.span tel "workloads.gen" (fun () ->
              let prog = s.app.make ~codegen:s.codegen ~ranks:s.ranks ~scale:1.0 in
              let c = ref 0 in
              Array.iter
                (List.iter (function
                  | Smpi.Compute seq -> c := !c + snd (force_stream seq)
                  | Smpi.Comm _ -> ()))
                prog;
              Hashtbl.replace branches (app_id s) !c))
        b.apps;
      set "workloads.gen_s" (now () -. g0);
      let c0 = now () in
      let traces =
        List.concat_map
          (fun (k : W.kernel) ->
            Tracer.span tel "trace.compile" (fun () ->
                let tr = Trace.compile (k.stream ~scale:b.scale) in
                let setup = Option.map (fun s -> Trace.compile (s ~scale:b.scale)) k.setup in
                tr :: Option.to_list setup))
          b.kernels
      in
      let compile_s = now () -. c0 in
      let compiled = isum (List.map Trace.length traces) in
      set "trace.compile_s" compile_s;
      set "trace.compile_mips" (ratio (float_of_int compiled) (compile_s *. 1e6));
      set "trace.words_mib" (float_of_int (isum (List.map Trace.words traces)) *. 8.0 /. 1048576.0);
      let b0 = now () in
      List.iter
        (fun tr -> ignore (Tracer.span tel "trace.blocks" (fun () -> Trace.Blocks.analyze tr)))
        traces;
      set "trace.blocks_s" (now () -. b0);
      let ns = Tracer.span tel "bechamel" Layers.component_ns in
      let kernel_of id = List.nth (String.split_on_char '/' id) 1 in
      let branch_count =
        List.fold_left
          (fun acc (id, _) ->
            let key = if b.kernels = [] then id else kernel_of id in
            acc + Option.value ~default:0 (Hashtbl.find_opt branches key))
          0 outs
      in
      let accesses =
        sum
          (List.map cnt
             [ "cache.l1i.accesses"; "cache.l1d.accesses"; "cache.l2.accesses"; "cache.llc.accesses" ])
      in
      let est =
        [
          ("cache.est_s", ns "cache" *. accesses);
          ("dram.est_s", ns "dram" *. cnt "dram.requests");
          ("branch.est_s", ns "branch" *. float_of_int branch_count);
          ("tlb.est_s", ns "tlb" *. (cnt "tlb.dtlb.accesses" +. cnt "tlb.itlb.accesses"));
        ]
      in
      List.iter (fun (n, v) -> set n (v *. 1e-9)) est;
      set "core.branches" (float_of_int branch_count);
      set "uarch.unattributed_s" (measure_s -. sum (List.map (fun (_, v) -> v *. 1e-9) est));
      set "cache.ns_per_access" (ratio (measure_s *. 1e9) accesses);
      set "dram.ns_per_request" (ratio (measure_s *. 1e9) (cnt "dram.requests")));
  Layers.add_self_times values tel;
  ensure_out_dir ();
  let trace_file = Printf.sprintf "%s/%s-trace.json" out_dir b.name in
  Out_channel.with_open_bin trace_file (fun oc -> output_string oc (Telemetry.Export.chrome_trace tel));
  emit ~setup_s:(warm_at -. spawned_at) ~t (Layers.metrics values)
    [ ("trace_file", J.Str trace_file); ("trace_dropped", J.Num (float_of_int (Tracer.dropped tel))) ]

(* ----------------------------------------------------------- reference *)

(* This workload's section of perfbench/reference.json. *)
let reference_section (b : batch) =
  size_caches ();
  let tel = Tracer.create () in
  let tp = Tracer.root tel "reference" (fun () -> traced_pass tel b.cells) in
  let cells = List.map (fun c -> (c.id, J.Str (Hashtbl.find tp.outcomes c.id).fp)) b.cells in
  ( b.name,
    J.Obj
      [
        ( "fingerprint",
          J.Obj
            [ ("cells", J.Str (fingerprint tp.outcomes)); ("counters", J.Str (counters_fingerprint tp)) ]
        );
        ("cells", J.Obj cells);
        setup_work_section ~scale:b.scale b.kernels;
      ] )
