(* Tests for compiled instruction traces: packed-field encode/decode
   round-trips (including the Amo/Fence/untaken-branch edge cases),
   compile-time validation of malformed instructions, the central
   replay property — [`Trace] and [`Seq] engines produce structurally
   identical [Soc.result]s on random kernel/platform/policy draws — and
   basic-block detection over compiled traces (partition, load/store
   accounting, digest identity that ignores memory addresses but not
   control targets). *)

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
   [Soc.result] to the [`Seq] path for any kernel, either core model
   (banana = in-order Rocket2, boom = OoO), Full or sampled policy.
   Structural equality covers every counter, the per-core array, and the
   float cycle estimates. *)
let replay_kernels = [ "Cca"; "EI"; "MD"; "DP1d"; "CRd"; "MIM" ]

let prop_replay_identity =
  let n_k = List.length replay_kernels in
  QCheck.Test.make ~name:"trace replay = seq replay (random kernel/platform/policy)" ~count:24
    QCheck.(triple (int_range 0 (n_k - 1)) bool bool)
    (fun (ki, use_boom, sampled) ->
      let kernel = Mb.find (List.nth replay_kernels ki) in
      let platform = if use_boom then Cat.boom_large else Cat.banana_pi_sim in
      let policy = if sampled then Sampling.Policy.default_sampled else Sampling.Policy.Full in
      let scale = 0.3 in
      let seq = (R.run_kernel_timed ~scale ~policy ~engine:`Seq platform kernel).result in
      let tr = (R.run_kernel_timed ~scale ~policy ~engine:`Trace platform kernel).result in
      seq = tr)

let test_replay_identity_estimates () =
  (* The sampled estimate (error bounds included) must also match. *)
  let kernel = Mb.find "MD" in
  let policy = Sampling.Policy.default_sampled in
  let a = R.run_kernel_timed ~scale:0.4 ~policy ~engine:`Seq Cat.boom_large kernel in
  let b = R.run_kernel_timed ~scale:0.4 ~policy ~engine:`Trace Cat.boom_large kernel in
  Alcotest.(check bool) "results equal" true (a.result = b.result);
  Alcotest.(check bool) "estimates equal" true (a.estimate = b.estimate)

(* A full run on the default engine must be bit-identical to the seed
   [`Seq] engine: this is the fidelity gate every figure relies on. *)
let test_full_run_identity () =
  let kernel = Mb.find "DP1d" in
  let seq = (R.run_kernel_timed ~scale:0.3 ~engine:`Seq Cat.banana_pi_sim kernel).result in
  let tr = (R.run_kernel_timed ~scale:0.3 ~engine:`Trace Cat.banana_pi_sim kernel).result in
  Alcotest.(check bool) "`Trace = `Seq bit-identity" true (seq = tr)

let test_trace_cache_counts () =
  R.trace_cache_clear ();
  let kernel = Mb.find "EI" in
  ignore (R.run_kernel_timed ~scale:0.2 ~engine:`Trace Cat.banana_pi_sim kernel);
  let s1 = R.trace_cache_stats () in
  (* Second run of the same (kernel, scale, seed) must hit, not recompile. *)
  ignore (R.run_kernel_timed ~scale:0.2 ~engine:`Trace Cat.boom_large kernel);
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

let suite =
  [
    Alcotest.test_case "encode/decode round-trip (all kinds)" `Quick test_roundtrip;
    Alcotest.test_case "meta accessors" `Quick test_meta_accessors;
    Alcotest.test_case "count_kind histogram" `Quick test_count_kind;
    Alcotest.test_case "raw layout agrees with accessors" `Quick test_raw_layout;
    Alcotest.test_case "to_seq identity" `Quick test_to_seq_identity;
    Alcotest.test_case "compile rejects malformed insns" `Quick test_compile_rejects;
    QCheck_alcotest.to_alcotest prop_replay_identity;
    Alcotest.test_case "sampled estimates identical" `Quick test_replay_identity_estimates;
    Alcotest.test_case "full run identical to seq engine" `Quick test_full_run_identity;
    Alcotest.test_case "trace cache hit accounting" `Quick test_trace_cache_counts;
    Alcotest.test_case "block partition and accounting" `Quick test_blocks_partition;
    Alcotest.test_case "digest ignores memory addresses" `Quick test_digest_ignores_addresses;
    Alcotest.test_case "digest keeps control targets" `Quick test_digest_keeps_targets;
    Alcotest.test_case "max_len splits straight-line runs" `Quick test_max_len_segmentation;
  ]
