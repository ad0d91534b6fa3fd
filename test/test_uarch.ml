(* Behavioural tests for the core timing models: dependence chains, issue
   width, window effects, mispredict penalties. *)

module I = Isa.Insn

let alu ~pc ?(dst = 0) ?(src1 = 0) () = I.make ~dst ~src1 ~pc I.Int_alu
let load ~pc ~dst ~addr ?(src1 = 0) () = I.make ~dst ~src1 ~mem:{ addr; size = 8 } ~pc I.Load

let branch ~pc ~taken ~target () = I.make ~src1:1 ~ctrl:{ taken; target } ~pc I.Branch

let serial_chain n = List.init n (fun i -> alu ~pc:(i * 4 mod 256) ~dst:5 ~src1:5 ())
let independent n = List.init n (fun i -> alu ~pc:(i * 4 mod 256) ~dst:(5 + (i mod 8)) ())

let run_inorder ?(cfg = Uarch.Inorder.rocket ()) ?(mem = Uarch.Memsys.ideal ~latency:1) insns =
  let c = Uarch.Inorder.create cfg mem in
  List.iter (Uarch.Inorder.feed c) insns;
  Uarch.Inorder.stats c

let run_ooo ?(cfg = Uarch.Ooo.boom_large ()) ?(mem = Uarch.Memsys.ideal ~latency:1) insns =
  let c = Uarch.Ooo.create cfg mem in
  List.iter (Uarch.Ooo.feed c) insns;
  Uarch.Ooo.stats c

let test_inorder_serial_ipc () =
  let s = run_inorder (serial_chain 2000) in
  Alcotest.(check bool) (Printf.sprintf "serial IPC ~1 (%.2f)" s.Uarch.Inorder.ipc) true
    (s.Uarch.Inorder.ipc > 0.8 && s.Uarch.Inorder.ipc <= 1.05)

let test_inorder_single_issue_cap () =
  (* Even independent work cannot beat 1 IPC on a single-issue core. *)
  let s = run_inorder (independent 2000) in
  Alcotest.(check bool) (Printf.sprintf "<=1 IPC (%.2f)" s.Uarch.Inorder.ipc) true
    (s.Uarch.Inorder.ipc <= 1.05)

let test_dual_issue_speedup () =
  let single = run_inorder ~cfg:(Uarch.Inorder.rocket ()) (independent 4000) in
  let dual = run_inorder ~cfg:(Uarch.Inorder.k1 ()) (independent 4000) in
  let speedup = float_of_int single.Uarch.Inorder.cycles /. float_of_int dual.Uarch.Inorder.cycles in
  Alcotest.(check bool) (Printf.sprintf "dual issue speedup %.2f" speedup) true (speedup > 1.5)

let test_dual_issue_no_gain_on_serial () =
  let single = run_inorder ~cfg:(Uarch.Inorder.rocket ()) (serial_chain 4000) in
  let dual = run_inorder ~cfg:(Uarch.Inorder.k1 ()) (serial_chain 4000) in
  let speedup = float_of_int single.Uarch.Inorder.cycles /. float_of_int dual.Uarch.Inorder.cycles in
  Alcotest.(check bool) (Printf.sprintf "~no gain (%.2f)" speedup) true (speedup < 1.1)

let test_inorder_load_use_stall () =
  (* A dependent use of a slow load stalls; with independent work between,
     the latency is hidden (hit-under-miss). *)
  let mem = Uarch.Memsys.ideal ~latency:50 in
  let dependent =
    List.concat
      (List.init 50 (fun i ->
           [ load ~pc:0 ~dst:5 ~addr:(i * 64) (); alu ~pc:4 ~dst:6 ~src1:5 () ]))
  in
  let hidden =
    List.concat
      (List.init 50 (fun i ->
           load ~pc:0 ~dst:5 ~addr:(i * 64) () :: List.init 1 (fun _ -> alu ~pc:4 ~dst:6 ~src1:7 ())))
  in
  let sd = run_inorder ~mem dependent in
  let sh = run_inorder ~mem hidden in
  Alcotest.(check bool)
    (Printf.sprintf "dependent (%d) slower than independent (%d)" sd.Uarch.Inorder.cycles
       sh.Uarch.Inorder.cycles)
    true
    (sd.Uarch.Inorder.cycles > sh.Uarch.Inorder.cycles)

let test_inorder_mispredict_penalty_scales_with_depth () =
  (* Random branches: the 8-stage K1 pays more per mispredict than the
     5-stage Rocket.  Compare cycles/instruction beyond the base. *)
  let mk_branches n =
    List.init n (fun i ->
        branch ~pc:64 ~taken:(Prog.Outcome.random ~seed:7 i) ~target:(if Prog.Outcome.random ~seed:7 i then 128 else 68) ())
  in
  let shallow = { (Uarch.Inorder.rocket ()) with Uarch.Inorder.mispredict_penalty = 3 } in
  let deep = { shallow with Uarch.Inorder.pipeline_stages = 12; mispredict_penalty = 10 } in
  let s5 = run_inorder ~cfg:shallow (mk_branches 2000) in
  let s12 = run_inorder ~cfg:deep (mk_branches 2000) in
  Alcotest.(check bool)
    (Printf.sprintf "deeper pipeline slower (%d vs %d)" s12.Uarch.Inorder.cycles s5.Uarch.Inorder.cycles)
    true
    (s12.Uarch.Inorder.cycles > s5.Uarch.Inorder.cycles)

let test_inorder_advance_to () =
  let c = Uarch.Inorder.create (Uarch.Inorder.rocket ()) (Uarch.Memsys.ideal ~latency:1) in
  List.iter (Uarch.Inorder.feed c) (independent 10);
  let t = Uarch.Inorder.now c in
  Uarch.Inorder.advance_to c (t + 1000);
  Alcotest.(check int) "idled" (t + 1000) (Uarch.Inorder.now c);
  Uarch.Inorder.advance_to c t;
  Alcotest.(check int) "no rewind" (t + 1000) (Uarch.Inorder.now c)

let test_ooo_superscalar_ipc () =
  let s = run_ooo (independent 4000) in
  Alcotest.(check bool) (Printf.sprintf "IPC > 1.5 (%.2f)" s.Uarch.Ooo.ipc) true (s.Uarch.Ooo.ipc > 1.5)

let test_ooo_serial_chain_limits () =
  let s = run_ooo (serial_chain 4000) in
  Alcotest.(check bool) (Printf.sprintf "serial IPC ~1 (%.2f)" s.Uarch.Ooo.ipc) true
    (s.Uarch.Ooo.ipc <= 1.1)

let test_ooo_hides_miss_better_than_inorder () =
  (* Loads to distinct lines with plenty of independent work: the OoO
     window overlaps the misses; the in-order core cannot overlap as much
     past its first dependent use. *)
  let mem = Uarch.Memsys.ideal ~latency:80 in
  let work =
    List.concat
      (List.init 100 (fun i ->
           load ~pc:0 ~dst:5 ~addr:(i * 64) ()
           :: alu ~pc:4 ~dst:6 ~src1:5 ()
           :: List.init 6 (fun j -> alu ~pc:(8 + (4 * j)) ~dst:(7 + (j mod 4)) ())))
  in
  let io = run_inorder ~mem work in
  let oo = run_ooo ~mem work in
  Alcotest.(check bool)
    (Printf.sprintf "ooo (%d) faster than inorder (%d)" oo.Uarch.Ooo.cycles io.Uarch.Inorder.cycles)
    true
    (oo.Uarch.Ooo.cycles < io.Uarch.Inorder.cycles)

let test_ooo_window_size_matters () =
  (* Long-latency op followed by lots of independent work: a bigger ROB
     keeps more of it in flight. *)
  let mem = Uarch.Memsys.ideal ~latency:200 in
  let work =
    List.concat
      (List.init 40 (fun i ->
           load ~pc:0 ~dst:5 ~addr:(i * 64) () :: List.init 60 (fun j -> alu ~pc:(4 + (4 * (j mod 32))) ~dst:(6 + (j mod 8)) ())))
  in
  let small = run_ooo ~cfg:(Uarch.Ooo.boom_small ()) ~mem work in
  let large = run_ooo ~cfg:(Uarch.Ooo.boom_large ()) ~mem work in
  Alcotest.(check bool)
    (Printf.sprintf "large (%d) beats small (%d)" large.Uarch.Ooo.cycles small.Uarch.Ooo.cycles)
    true
    (large.Uarch.Ooo.cycles < small.Uarch.Ooo.cycles)

let test_ooo_boom_ordering () =
  (* On generic mixed work, small >= medium >= large in cycles. *)
  let rng = Util.Rng.create 33 in
  let work =
    List.init 6000 (fun i ->
        match Util.Rng.int rng 5 with
        | 0 -> load ~pc:(i * 4 mod 512) ~dst:(5 + (i mod 4)) ~addr:(i * 8 mod 8192) ()
        | 1 -> I.make ~dst:(5 + (i mod 8)) ~src1:(5 + ((i + 1) mod 8)) ~pc:(i * 4 mod 512) I.Fp_mul
        | _ -> alu ~pc:(i * 4 mod 512) ~dst:(5 + (i mod 8)) ~src1:(5 + ((i + 3) mod 8)) ())
  in
  let s = run_ooo ~cfg:(Uarch.Ooo.boom_small ()) work in
  let m = run_ooo ~cfg:(Uarch.Ooo.boom_medium ()) work in
  let l = run_ooo ~cfg:(Uarch.Ooo.boom_large ()) work in
  Alcotest.(check bool)
    (Printf.sprintf "small %d >= medium %d >= large %d" s.Uarch.Ooo.cycles m.Uarch.Ooo.cycles
       l.Uarch.Ooo.cycles)
    true
    (s.Uarch.Ooo.cycles >= m.Uarch.Ooo.cycles && m.Uarch.Ooo.cycles >= l.Uarch.Ooo.cycles)

let test_ooo_mispredict_redirect () =
  let predictable = List.init 2000 (fun _ -> branch ~pc:64 ~taken:true ~target:128 ()) in
  let random =
    List.init 2000 (fun i ->
        branch ~pc:64 ~taken:(Prog.Outcome.random ~seed:3 i)
          ~target:(if Prog.Outcome.random ~seed:3 i then 128 else 68)
          ())
  in
  let sp = run_ooo predictable in
  let sr = run_ooo random in
  Alcotest.(check bool)
    (Printf.sprintf "random (%d) slower than biased (%d)" sr.Uarch.Ooo.cycles sp.Uarch.Ooo.cycles)
    true
    (sr.Uarch.Ooo.cycles > sp.Uarch.Ooo.cycles)

let test_fence_serializes () =
  let mem = Uarch.Memsys.ideal ~latency:1 in
  let with_fences =
    List.concat
      (List.init 100 (fun _ -> [ alu ~pc:0 ~dst:5 (); I.make ~pc:4 I.Fence; alu ~pc:8 ~dst:6 () ]))
  in
  let without = List.init 300 (fun i -> alu ~pc:(i mod 64 * 4) ~dst:(5 + (i mod 2)) ()) in
  let sf = run_inorder ~mem with_fences in
  let sn = run_inorder ~mem without in
  Alcotest.(check bool) "fences cost cycles" true (sf.Uarch.Inorder.cycles > sn.Uarch.Inorder.cycles)

let test_div_unpipelined () =
  let divs = List.init 50 (fun i -> I.make ~dst:(5 + (i mod 8)) ~pc:0 I.Int_div) in
  let s = run_inorder divs in
  (* 50 divs at 16 cycles each, unpipelined: at least 800 cycles. *)
  Alcotest.(check bool) (Printf.sprintf ">= 800 cycles (%d)" s.Uarch.Inorder.cycles) true
    (s.Uarch.Inorder.cycles >= 50 * 16)

let test_slots_allocator () =
  let s = Uarch.Slots.create ~width:2 in
  Alcotest.(check int) "c0 s1" 0 (Uarch.Slots.alloc s 0);
  Alcotest.(check int) "c0 s2" 0 (Uarch.Slots.alloc s 0);
  Alcotest.(check int) "c1 overflow" 1 (Uarch.Slots.alloc s 0);
  Alcotest.(check int) "jump ahead" 10 (Uarch.Slots.alloc s 10);
  Uarch.Slots.reset s;
  Alcotest.(check int) "after reset" 0 (Uarch.Slots.alloc s 0)

let prop_cycles_monotone_in_stream_length =
  QCheck.Test.make ~name:"longer streams take no fewer cycles" ~count:50
    QCheck.(int_range 1 500)
    (fun n ->
      let a = run_inorder (independent n) in
      let b = run_inorder (independent (n + 50)) in
      b.Uarch.Inorder.cycles >= a.Uarch.Inorder.cycles)

let suite =
  [
    Alcotest.test_case "inorder serial IPC" `Quick test_inorder_serial_ipc;
    Alcotest.test_case "inorder single-issue cap" `Quick test_inorder_single_issue_cap;
    Alcotest.test_case "dual issue speedup" `Quick test_dual_issue_speedup;
    Alcotest.test_case "dual issue no gain on serial" `Quick test_dual_issue_no_gain_on_serial;
    Alcotest.test_case "load-use stall" `Quick test_inorder_load_use_stall;
    Alcotest.test_case "mispredict penalty vs depth" `Quick test_inorder_mispredict_penalty_scales_with_depth;
    Alcotest.test_case "advance_to" `Quick test_inorder_advance_to;
    Alcotest.test_case "ooo superscalar IPC" `Quick test_ooo_superscalar_ipc;
    Alcotest.test_case "ooo serial chain" `Quick test_ooo_serial_chain_limits;
    Alcotest.test_case "ooo hides misses" `Quick test_ooo_hides_miss_better_than_inorder;
    Alcotest.test_case "ooo window size" `Quick test_ooo_window_size_matters;
    Alcotest.test_case "boom size ordering" `Quick test_ooo_boom_ordering;
    Alcotest.test_case "ooo mispredict redirect" `Quick test_ooo_mispredict_redirect;
    Alcotest.test_case "fence serializes" `Quick test_fence_serializes;
    Alcotest.test_case "divider unpipelined" `Quick test_div_unpipelined;
    Alcotest.test_case "slots allocator" `Quick test_slots_allocator;
    QCheck_alcotest.to_alcotest prop_cycles_monotone_in_stream_length;
  ]
