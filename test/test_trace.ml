(* Tests for compiled instruction traces: packed-field encode/decode
   round-trips (including the Amo/Fence/untaken-branch edge cases),
   compile-time validation of malformed instructions, the central
   replay properties — the runner's compiled-trace replay produces
   structurally identical [Soc.result]s to the one-instruction-at-a-time
   reference in [Oracle] on random kernel/platform draws, in full and
   under a budget — and basic-block detection over compiled
   traces (partition, load/store accounting, digest identity that
   ignores memory addresses but not control targets). *)

module In = Isa.Insn
module T = Trace
module B = Trace.Blocks
module Cat = Platform.Catalog
module Mb = Workloads.Microbench
module R = Simbridge.Runner

(* -------------------------------------------------------- round-trips *)

(* One instruction of every kind, covering the packed-field corners:
   Amo at the widest representable size, Fence (no operands at all),
   an untaken branch (taken bit clear, target still encoded), registers
   at both ends of the id range. *)
let sample_insns =
  [
    In.make ~pc:0x1000 ~dst:1 ~src1:2 ~src2:3 Int_alu;
    In.make ~pc:0x1004 ~dst:31 ~src1:31 ~src2:31 Int_mul;
    In.make ~pc:0x1008 ~dst:4 ~src1:5 Int_div;
    In.make ~pc:0x100c ~dst:6 ~src1:7 ~src2:8 Fp_add;
    In.make ~pc:0x1010 ~dst:9 ~src1:10 ~src2:11 Fp_mul;
    In.make ~pc:0x1014 ~dst:12 ~src1:13 Fp_div;
    In.make ~pc:0x1018 ~dst:14 ~src1:15 Fp_cvt;
    In.make ~pc:0x101c ~dst:16 ~src1:17 Fp_long;
    In.make ~pc:0x1020 ~dst:18 ~src1:19 ~mem:{ addr = 0xdead_beef0; size = 8 } Load;
    In.make ~pc:0x1024 ~src1:20 ~src2:21 ~mem:{ addr = 0x4; size = 1 } Store;
    (* untaken branch: taken bit clear, fall-through target *)
    In.make ~pc:0x1028 ~src1:22 ~src2:23 ~ctrl:{ taken = false; target = 0x102c } Branch;
    In.make ~pc:0x102c ~src1:24 ~ctrl:{ taken = true; target = 0x1000 } Branch;
    In.make ~pc:0x1030 ~ctrl:{ taken = true; target = 0x2000 } Jump;
    In.make ~pc:0x1034 ~dst:1 ~ctrl:{ taken = true; target = 0x3000 } Call;
    In.make ~pc:0x1038 ~ctrl:{ taken = true; target = 0x1038 } Ret;
    In.make ~pc:0x103c Fence;
    (* atomic at the widest representable access *)
    In.make ~pc:0x1040 ~dst:25 ~src1:26 ~src2:27
      ~mem:{ addr = 0x8000; size = T.max_mem_size }
      Amo;
    In.make ~pc:0x1044 Nop;
  ]

let insn_eq (a : In.t) (b : In.t) =
  a.pc = b.pc && a.kind = b.kind && a.dst = b.dst && a.src1 = b.src1 && a.src2 = b.src2
  && a.mem = b.mem && a.ctrl = b.ctrl

let test_roundtrip () =
  let tr = T.compile (List.to_seq sample_insns) in
  Alcotest.(check int) "length" (List.length sample_insns) (T.length tr);
  List.iteri
    (fun i orig ->
      let back = T.insn tr i in
      Alcotest.(check bool)
        (Printf.sprintf "insn %d (%s) round-trips" i (In.kind_name orig.In.kind))
        true (insn_eq orig back))
    sample_insns

let test_meta_accessors () =
  let tr = T.compile (List.to_seq sample_insns) in
  List.iteri
    (fun i (orig : In.t) ->
      let m = T.meta tr i in
      let name = In.kind_name orig.kind in
      Alcotest.(check bool) (name ^ " kind") true (T.kind_of_meta m = orig.kind);
      Alcotest.(check int) (name ^ " dst") orig.dst (T.dst_of_meta m);
      Alcotest.(check int) (name ^ " src1") orig.src1 (T.src1_of_meta m);
      Alcotest.(check int) (name ^ " src2") orig.src2 (T.src2_of_meta m);
      Alcotest.(check int) (name ^ " pc") orig.pc (T.pc tr i);
      (match orig.mem with
      | Some { addr; size } ->
        Alcotest.(check int) (name ^ " size") size (T.size_of_meta m);
        Alcotest.(check int) (name ^ " addr") addr (T.aux tr i)
      | None -> Alcotest.(check int) (name ^ " size 0") 0 (T.size_of_meta m));
      match orig.ctrl with
      | Some { taken; target } ->
        Alcotest.(check bool) (name ^ " taken") taken (T.taken_of_meta m);
        Alcotest.(check int) (name ^ " target") target (T.aux tr i)
      | None -> Alcotest.(check bool) (name ^ " taken clear") false (T.taken_of_meta m))
    sample_insns

let test_count_kind () =
  let tr = T.compile (List.to_seq sample_insns) in
  let listed p = List.length (List.filter (fun (i : In.t) -> p i.kind) sample_insns) in
  Alcotest.(check int) "mem kinds" (listed In.is_mem) (T.count_kind In.is_mem tr);
  Alcotest.(check int) "ctrl kinds" (listed In.is_ctrl) (T.count_kind In.is_ctrl tr);
  Alcotest.(check int) "branches"
    (listed (fun k -> k = In.Branch))
    (T.count_kind (fun k -> k = In.Branch) tr);
  Alcotest.(check int) "everything" (List.length sample_insns) (T.count_kind (fun _ -> true) tr)

let test_raw_layout () =
  (* Inline decoders used by the replay hot loops must agree with the
     [*_of_meta] accessors on every sample word. *)
  let tr = T.compile (List.to_seq sample_insns) in
  let metas = T.metas tr in
  Array.iter
    (fun m ->
      Alcotest.(check bool) "kind via table" true
        (T.kind_table.(m land T.kind_mask) = T.kind_of_meta m);
      Alcotest.(check int) "dst via shift" (T.dst_of_meta m) ((m lsr T.dst_shift) land T.reg_mask);
      Alcotest.(check int) "src1 via shift" (T.src1_of_meta m)
        ((m lsr T.src1_shift) land T.reg_mask);
      Alcotest.(check int) "src2 via shift" (T.src2_of_meta m)
        ((m lsr T.src2_shift) land T.reg_mask);
      Alcotest.(check bool) "taken via bit" (T.taken_of_meta m) (m land T.taken_bit <> 0);
      Alcotest.(check int) "size via shift" (T.size_of_meta m)
        ((m lsr T.size_shift) land T.size_mask))
    metas

let test_to_seq_identity () =
  let tr = T.compile (List.to_seq sample_insns) in
  let back = List.of_seq (T.to_seq tr) in
  Alcotest.(check bool) "to_seq reproduces the stream" true
    (List.for_all2 insn_eq sample_insns back)

(* ------------------------------------------------- malformed streams *)

let rejects name insn =
  let raised =
    try
      ignore (T.compile (List.to_seq [ insn ]));
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) name true raised

(* [In.make] asserts these invariants away, so malformed instructions are
   built as raw records — exactly what a buggy generator could hand the
   compiler. *)
let raw ?mem ?ctrl kind : In.t =
  { pc = 0; kind; dst = 0; src1 = 0; src2 = 0; mem; ctrl }

let test_compile_rejects () =
  rejects "mem on non-memory kind" (raw ~mem:{ addr = 0; size = 4 } In.Int_alu);
  rejects "memory kind without mem" (raw In.Load);
  rejects "amo without mem" (raw In.Amo);
  rejects "ctrl on non-control kind" (raw ~ctrl:{ taken = true; target = 4 } In.Fence);
  rejects "control kind without ctrl" (raw In.Branch);
  rejects "oversized mem access" (raw ~mem:{ addr = 0; size = T.max_mem_size + 1 } In.Load)

(* ------------------------------------------ replay identity property *)

(* Trace replay must be a pure host-side optimization: identical
   [Soc.result] to feeding the lazy streams one instruction at a time,
   for any kernel (setup stream included) on either core model (banana =
   in-order Rocket2, boom = OoO).  Structural equality covers every
   counter, the per-core array, and the float seconds. *)
let kernel_gen = QCheck.(pair (int_range 0 (List.length Mb.evaluated - 1)) bool)
let draw (ki, use_boom) =
  (List.nth Mb.evaluated ki, if use_boom then Cat.boom_large else Cat.banana_pi_sim)

let prop_replay_oracle =
  QCheck.Test.make ~name:"trace replay = seq oracle (random kernel/platform)" ~count:24 kernel_gen
    (fun d ->
      let kernel, platform = draw d in
      let scale = 0.2 in
      (R.run_kernel_timed ~scale platform kernel).result = Oracle.run_kernel ~scale platform kernel)

(* ------------------------------------------------- budgeted prefixes *)

let measured_length (k : Workloads.Workload.kernel) ~scale = T.length (T.compile (k.stream ~scale))

(* A budget at or past the stream's end replays the whole stream: the
   result is bit-identical to an unbudgeted run. *)
let test_budget_past_end_is_full () =
  let k = Mb.find "MD" and scale = 0.2 in
  let len = measured_length k ~scale in
  let full = (R.run_kernel_timed ~scale Cat.boom_large k).result in
  List.iter
    (fun budget ->
      let t = R.run_kernel_timed ~scale ~budget Cat.boom_large k in
      Alcotest.(check bool) (Printf.sprintf "budget %d = full run" budget) true (t.result = full))
    [ len; len + 1; 10 * len ]

(* [complete] follows the prefix rule: a prefix that reached the budget
   may have cut the stream, even when the budget equals its length. *)
let test_budget_complete_flag () =
  let k = Mb.find "EI" and scale = 0.2 in
  let len = measured_length k ~scale in
  let complete budget = (R.run_kernel_timed ~scale ?budget Cat.banana_pi_sim k).complete in
  Alcotest.(check bool) "N < len" false (complete (Some (len - 1)));
  Alcotest.(check bool) "N = len" false (complete (Some len));
  Alcotest.(check bool) "N > len" true (complete (Some (len + 1)));
  Alcotest.(check bool) "no budget" true (complete None)

(* The budgeted result is an exact run of the stream's first N
   instructions: the one-instruction-at-a-time reference on the
   truncated stream agrees with it bit for bit, setup stream included. *)
let test_budget_prefix_is_exact () =
  let scale = 0.2 and budget = 1_500 in
  List.iter
    (fun (name, platform) ->
      let k = Mb.find name in
      let cut = { k with stream = (fun ~scale -> Seq.take budget (k.stream ~scale)) } in
      let t = R.run_kernel_timed ~scale ~budget platform k in
      Alcotest.(check int) (name ^ " replays N insns") budget t.result.instructions;
      Alcotest.(check bool) (name ^ " = reference on the prefix") true
        (t.result = Oracle.run_kernel ~scale platform cut))
    [ ("MD", Cat.banana_pi_sim); ("MI", Cat.boom_large) ]

(* The budget is part of the trace-cache key: a budgeted cell must not
   leave its prefix behind for an unbudgeted cell of the same kernel to
   replay, nor pick up a full trace compiled before it. *)
let test_budget_cache_key () =
  let k = Mb.find "MD" and scale = 0.2 in
  R.trace_cache_clear ();
  let cut = R.run_kernel_timed ~scale ~budget:1_000 Cat.banana_pi_sim k in
  let full = R.run_kernel_timed ~scale Cat.banana_pi_sim k in
  let cut_again = R.run_kernel_timed ~scale ~budget:1_000 Cat.banana_pi_sim k in
  Alcotest.(check bool) "unbudgeted after budgeted = reference" true
    (full.result = Oracle.run_kernel ~scale Cat.banana_pi_sim k);
  Alcotest.(check bool) "budgeted after unbudgeted = first budgeted run" true
    (cut_again.result = cut.result);
  Alcotest.(check int) "budgeted run replays the prefix" 1_000 cut_again.result.instructions

(* Only the prefix is ever generated: a budgeted cell forces at most N
   instructions of the measured stream, however long the stream is. *)
let test_budget_compiles_prefix_only () =
  let k = Mb.find "MM" and scale = 0.2 and budget = 2_000 in
  let forced = ref 0 in
  let probe =
    {
      k with
      name = "budget-probe";
      stream =
        (fun ~scale ->
          Seq.map
            (fun i ->
              incr forced;
              i)
            (k.stream ~scale));
    }
  in
  R.trace_cache_clear ();
  ignore (R.run_kernel_timed ~scale ~budget Cat.banana_pi_sim probe);
  Alcotest.(check bool) "stream is longer than the budget" true (measured_length k ~scale > budget);
  Alcotest.(check int) "measured insns forced" budget !forced;
  R.trace_cache_clear ()

let test_budget_rejects_nonpositive () =
  List.iter
    (fun budget ->
      Alcotest.check_raises (Printf.sprintf "budget %d" budget)
        (Invalid_argument "Runner.run_kernel_timed: budget must be positive") (fun () ->
          ignore (R.run_kernel_timed ~scale:0.05 ~budget Cat.banana_pi_sim (Mb.find "EI"))))
    [ 0; -5 ]

let test_trace_cache_counts () =
  R.trace_cache_clear ();
  let kernel = Mb.find "EI" in
  ignore (R.run_kernel_timed ~scale:0.2 Cat.banana_pi_sim kernel);
  let s1 = R.trace_cache_stats () in
  (* Second run of the same (kernel, scale, seed) must hit, not recompile. *)
  ignore (R.run_kernel_timed ~scale:0.2 Cat.boom_large kernel);
  let s2 = R.trace_cache_stats () in
  Alcotest.(check bool) "first run misses" true (s1.tc_misses > 0);
  Alcotest.(check int) "second run compiles nothing" s1.tc_misses s2.tc_misses;
  Alcotest.(check bool) "second run hits" true (s2.tc_hits > s1.tc_hits);
  R.trace_cache_clear ();
  let s3 = R.trace_cache_stats () in
  Alcotest.(check int) "clear zeroes hits" 0 s3.tc_hits;
  Alcotest.(check int) "clear zeroes misses" 0 s3.tc_misses

(* ---------------------------------------------------- block detection *)

let kernel_trace name ~scale =
  let k = Mb.find name in
  T.compile (k.Workloads.Workload.stream ~scale)

let test_blocks_partition () =
  let tr = kernel_trace "MD" ~scale:0.3 in
  let b = B.analyze tr in
  Alcotest.(check bool) "has instances" true (b.B.n_instances > 0);
  Alcotest.(check bool) "has blocks" true (b.B.n_blocks > 0);
  Alcotest.(check int) "first instance at 0" 0 b.B.starts.(0);
  (* Instances tile the trace: each starts where the previous ended. *)
  let covered = ref 0 in
  for i = 0 to b.B.n_instances - 1 do
    Alcotest.(check int) (Printf.sprintf "instance %d contiguous" i) !covered b.B.starts.(i);
    let id = b.B.ids.(i) in
    Alcotest.(check bool) "id in range" true (id >= 0 && id < b.B.n_blocks);
    Alcotest.(check bool) "positive length" true (b.B.lens.(id) > 0);
    covered := !covered + b.B.lens.(id)
  done;
  Alcotest.(check int) "instances cover the trace" (T.length tr) !covered;
  (* occurs is the instance histogram over blocks. *)
  let occ_sum = Array.fold_left ( + ) 0 b.B.occurs in
  Alcotest.(check int) "occurs sums to instances" b.B.n_instances occ_sum;
  (* Per-block load/store counts, weighted by occurrences, reproduce the
     trace-wide kind histogram. *)
  let loads = ref 0 and stores = ref 0 in
  for id = 0 to b.B.n_blocks - 1 do
    loads := !loads + (b.B.occurs.(id) * b.B.loads.(id));
    stores := !stores + (b.B.occurs.(id) * b.B.stores.(id))
  done;
  Alcotest.(check int) "loads (incl amo)"
    (T.count_kind (fun k -> k = In.Load || k = In.Amo) tr)
    !loads;
  Alcotest.(check int) "stores" (T.count_kind (fun k -> k = In.Store) tr) !stores

(* A two-iteration loop body whose only difference across iterations is
   the memory addresses: both iterations must intern to the same block. *)
let loop_iteration ~base addr =
  [
    In.make ~pc:base ~dst:1 ~src1:2 ~src2:3 Int_alu;
    In.make ~pc:(base + 4) ~dst:4 ~src1:1 ~mem:{ addr; size = 8 } Load;
    In.make ~pc:(base + 8) ~src1:4 ~src2:5 ~ctrl:{ taken = true; target = base } Branch;
  ]

let test_digest_ignores_addresses () =
  let base = 0x1000 in
  let insns = loop_iteration ~base 0x8000 @ loop_iteration ~base 0x9000 in
  let b = B.analyze (T.compile (List.to_seq insns)) in
  Alcotest.(check int) "two instances" 2 b.B.n_instances;
  Alcotest.(check int) "one block" 1 b.B.n_blocks;
  Alcotest.(check int) "occurs twice" 2 b.B.occurs.(0);
  Alcotest.(check int) "loads per instance" 1 b.B.loads.(0)

let test_digest_keeps_targets () =
  (* Same instructions, different branch target: distinct blocks. *)
  let a =
    [
      In.make ~pc:0x1000 ~dst:1 ~src1:2 Int_alu;
      In.make ~pc:0x1004 ~src1:1 ~ctrl:{ taken = true; target = 0x1000 } Branch;
    ]
  in
  let b_insns =
    [
      In.make ~pc:0x1000 ~dst:1 ~src1:2 Int_alu;
      In.make ~pc:0x1004 ~src1:1 ~ctrl:{ taken = true; target = 0x2000 } Branch;
    ]
  in
  let blk = B.analyze (T.compile (List.to_seq (a @ b_insns))) in
  Alcotest.(check int) "two distinct blocks" 2 blk.B.n_blocks

let test_max_len_segmentation () =
  (* A straight-line run longer than max_len splits at the cap. *)
  let insns = List.init 10 (fun i -> In.make ~pc:(0x1000 + (4 * i)) ~dst:1 ~src1:2 Int_alu) in
  let b = B.analyze ~max_len:4 (T.compile (List.to_seq insns)) in
  Alcotest.(check int) "instances 4+4+2" 3 b.B.n_instances;
  let total = Array.fold_left (fun acc id -> acc + b.B.lens.(id)) 0 b.B.ids in
  Alcotest.(check int) "covers all" 10 total

(* ------------------------------------------------- exact replay costs *)

(* Replaying a compiled trace allocates nothing once the SoC is warm: no
   boxed DRAM time, no miss-path tuple, no [Some] per L2 access.  The
   first replay warms caches, predictors and the trace itself; the second
   must leave the minor heap's allocation counter where it was.  The
   kernels miss to DRAM (MM, MM_st) or mispredict (M_Dyn) on every
   platform class: in-order, out-of-order, and both LLC variants. *)
let test_replay_allocation_free () =
  List.iter
    (fun (platform : Platform.Config.t) ->
      List.iter
        (fun name ->
          let tr = kernel_trace name ~scale:0.25 in
          let hi = T.length tr in
          let soc = Platform.Soc.create platform in
          Platform.Soc.feed_trace soc tr ~lo:0 ~hi;
          let before = Gc.minor_words () in
          Platform.Soc.feed_trace soc tr ~lo:0 ~hi;
          let words = Gc.minor_words () -. before in
          Platform.Soc.release soc;
          Alcotest.(check (float 0.))
            (Printf.sprintf "%s on %s: words allocated" name platform.Platform.Config.name)
            0. words)
        [ "MM"; "MM_st"; "M_Dyn" ])
    [ Cat.banana_pi_sim; Cat.boom_large; Cat.milkv_hw; Cat.milkv_sim ]

(* [Runner.replay] cuts the feed into slices of [replay_slice]
   instructions and yields between them; the cuts fall on instruction
   boundaries only, so the SoC must end exactly where one [feed_trace]
   over the whole trace leaves it: the same result and every component
   counter, for traces just under, at and just past one slice. *)
let test_sliced_replay_identity () =
  let kernel = Mb.find "M_Dyn" in
  List.iter
    (fun (platform : Platform.Config.t) ->
      List.iter
        (fun n ->
          let tr = T.compile ~limit:n (kernel.Workloads.Workload.stream ~scale:1.0) in
          Alcotest.(check int) "trace length" n (T.length tr);
          let run feed =
            let soc = Platform.Soc.create platform in
            feed soc tr;
            let r = Platform.Soc.collect_result soc ~ranks:1 ~comm:None in
            let c = Platform.Soc.counters soc in
            Platform.Soc.release soc;
            (r, c)
          in
          let r1, c1 = run (fun soc tr -> Platform.Soc.feed_trace soc tr ~lo:0 ~hi:(T.length tr)) in
          let r2, c2 = run R.replay in
          let label what = Printf.sprintf "%s, %d insns on %s" what n platform.Platform.Config.name in
          Alcotest.(check bool) (label "result") true (r1 = r2);
          Alcotest.(check (list (pair string int))) (label "counters") c1 c2)
        [ R.replay_slice - 1; R.replay_slice; R.replay_slice + 1 ])
    [ Cat.banana_pi_sim; Cat.boom_large ]

(* The lines of a fresh [simbridge workload] process's report that the
   in-process result [r] also prints: cycles, instructions, L1D, L2 and
   DRAM. *)
let check_fresh_process label (platform : Platform.Config.t) kernel (r : Platform.Soc.result) =
  let out = Filename.temp_file "simbridge-workload" ".out" in
  let status =
    Sys.command
      (Filename.quote_command "../bin/simbridge_cli.exe"
         [ "workload"; kernel; "--platform"; platform.Platform.Config.name; "--report"; "" ]
         ~stdout:out ~stderr:Filename.null)
  in
  let lines = In_channel.with_open_bin out In_channel.input_lines in
  Sys.remove out;
  Alcotest.(check int) "fresh process exits 0" 0 status;
  let field prefix = List.find (String.starts_with ~prefix) lines in
  let in_process =
    [
      Printf.sprintf "cycles        : %d" r.cycles;
      Printf.sprintf "instructions  : %d" r.instructions;
      Printf.sprintf "L1D miss rate : %.4f (%d/%d)"
        (float_of_int r.l1d_misses /. float_of_int r.l1d_accesses)
        r.l1d_misses r.l1d_accesses;
      Printf.sprintf "L2 miss rate  : %.4f (%d/%d)"
        (float_of_int r.l2_misses /. float_of_int r.l2_accesses)
        r.l2_misses r.l2_accesses;
      Printf.sprintf "DRAM requests : %d" r.dram_requests;
    ]
  in
  Alcotest.(check (list string))
    label
    (List.map field [ "cycles"; "instructions"; "L1D"; "L2"; "DRAM" ])
    in_process

(* milkv-sim's LLC (16384x64) takes over the line arrays milkv-hw's
   (65536x16) released, still holding the tags of every line the same
   kernel touched.  The run must equal a fresh process's, where the LLC
   starts on new arrays. *)
let test_llc_reuse_matches_fresh_process () =
  let k = Mb.find "MM" in
  ignore (R.run_kernel Cat.milkv_hw k);
  check_fresh_process "milkv-sim after milkv-hw = fresh process" Cat.milkv_sim "MM"
    (R.run_kernel Cat.milkv_sim k)

(* A second SoC of a config is built from the first one's released
   caches, TLBs and branch predictors, reset in place.  A cell on it must
   equal a fresh process's, and building it and replaying a kernel must
   allocate nothing on the major heap directly (promotions aside): every
   large array comes from the released SoC.  Both core classes, both TLB
   classes (with and without an L2 TLB) and both LLC geometries. *)
let test_soc_reuse () =
  List.iter
    (fun (platform : Platform.Config.t) ->
      let name = platform.Platform.Config.name in
      let k = Mb.find "M_Dyn" in
      ignore (R.run_kernel platform k);
      check_fresh_process (name ^ ": second cell = fresh process") platform "M_Dyn"
        (R.run_kernel platform k);
      let tr = kernel_trace "MM" ~scale:0.25 in
      let hi = T.length tr in
      let soc = Platform.Soc.create platform in
      Platform.Soc.feed_trace soc tr ~lo:0 ~hi;
      Platform.Soc.release soc;
      let _, promoted0, major0 = Gc.counters () in
      let soc = Platform.Soc.create platform in
      Platform.Soc.feed_trace soc tr ~lo:0 ~hi;
      let _, promoted1, major1 = Gc.counters () in
      Platform.Soc.release soc;
      Alcotest.(check (float 0.))
        (name ^ ": direct major words of a second create + replay")
        0.
        (major1 -. major0 -. (promoted1 -. promoted0)))
    [ Cat.banana_pi_sim; Cat.boom_large; Cat.milkv_hw; Cat.milkv_sim ]

(* Compiling fills fixed-size chunks and copies them once into the
   trace's three arrays: 6 major words per instruction, 3 when a limit
   sizes one chunk for the whole trace.  Growing by doubling and cutting
   down to size read 10.7.  A [Gc.counters] delta, so deterministic. *)
let test_compile_major_words () =
  let n = 100_000 in
  let insns =
    List.init n (fun i ->
        In.make ~pc:(0x1000 + (4 * (i mod 64))) ~dst:1 ~src1:2 ~mem:{ addr = 8 * i; size = 8 } Load)
  in
  let per_insn f =
    (* Promote the input first: only what compiling allocates counts. *)
    Gc.minor ();
    let _, _, major0 = Gc.counters () in
    let tr = f (List.to_seq insns) in
    let _, _, major1 = Gc.counters () in
    Alcotest.(check int) "length" n (T.length tr);
    (major1 -. major0) /. float_of_int n
  in
  let full = per_insn T.compile and prefix = per_insn (T.compile ~limit:n) in
  if full > 6.5 then Alcotest.failf "compile: %.2f major words per instruction, want <= 6.5" full;
  if prefix > 3.1 then
    Alcotest.failf "compile ~limit: %.2f major words per instruction, want <= 3.1" prefix

let suite =
  [
    Alcotest.test_case "encode/decode round-trip (all kinds)" `Quick test_roundtrip;
    Alcotest.test_case "meta accessors" `Quick test_meta_accessors;
    Alcotest.test_case "count_kind histogram" `Quick test_count_kind;
    Alcotest.test_case "raw layout agrees with accessors" `Quick test_raw_layout;
    Alcotest.test_case "to_seq identity" `Quick test_to_seq_identity;
    Alcotest.test_case "compile rejects malformed insns" `Quick test_compile_rejects;
    QCheck_alcotest.to_alcotest prop_replay_oracle;
    Alcotest.test_case "budget past the end = full run" `Quick test_budget_past_end_is_full;
    Alcotest.test_case "budget complete flag at N <, =, > len" `Quick test_budget_complete_flag;
    Alcotest.test_case "budgeted run = reference on the prefix" `Quick test_budget_prefix_is_exact;
    Alcotest.test_case "budget is part of the trace-cache key" `Quick test_budget_cache_key;
    Alcotest.test_case "budget compiles only the prefix" `Quick test_budget_compiles_prefix_only;
    Alcotest.test_case "budget rejects non-positive values" `Quick test_budget_rejects_nonpositive;
    Alcotest.test_case "trace cache hit accounting" `Quick test_trace_cache_counts;
    Alcotest.test_case "block partition and accounting" `Quick test_blocks_partition;
    Alcotest.test_case "digest ignores memory addresses" `Quick test_digest_ignores_addresses;
    Alcotest.test_case "digest keeps control targets" `Quick test_digest_keeps_targets;
    Alcotest.test_case "max_len splits straight-line runs" `Quick test_max_len_segmentation;
    Alcotest.test_case "warm replay allocates nothing" `Quick test_replay_allocation_free;
    Alcotest.test_case "sliced replay = one-call replay" `Quick test_sliced_replay_identity;
    Alcotest.test_case "LLC reuse across geometries" `Quick test_llc_reuse_matches_fresh_process;
    Alcotest.test_case "reused SoC = fresh process, no major garbage" `Quick test_soc_reuse;
    Alcotest.test_case "compile major words per instruction" `Quick test_compile_major_words;
  ]
