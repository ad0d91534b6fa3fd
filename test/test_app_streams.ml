(* Pins the application programs (UME, LAMMPS LJ and Chain, NPB CG, EP,
   IS and MG) instruction for instruction: every rank's compute segments,
   compiled to the packed trace form, and its communication ops are
   folded into one digest per (app, codegen, ranks).  Emission may be
   restructured freely; any change to what a program executes moves a
   digest.  Also tests the LAMMPS trajectory memo and the rank selections
   it keeps. *)

module W = Workloads.Workload
module Cg = Workloads.Codegen
module Lammps = Workloads.Lammps

let scale = 0.05

let mix h x =
  let z = (h lxor x) * 0x2545F4914F6CDD1D in
  z lxor (z lsr 29)

let mix_array h a = Array.fold_left mix h a

let mix_op h (op : Smpi.op) =
  List.fold_left mix h
    (match op with
    | Send { dst; bytes; tag } -> [ 1; dst; bytes; tag ]
    | Recv { src; bytes; tag } -> [ 2; src; bytes; tag ]
    | Sendrecv { peer; send_bytes; recv_bytes; tag } -> [ 3; peer; send_bytes; recv_bytes; tag ]
    | Barrier -> [ 4 ]
    | Bcast { root; bytes } -> [ 5; root; bytes ]
    | Reduce { root; bytes } -> [ 6; root; bytes ]
    | Allreduce { bytes } -> [ 7; bytes ]
    | Alltoall { bytes_per_rank } -> [ 8; bytes_per_rank ]
    | Allgather { bytes } -> [ 9; bytes ])

let mix_stream (h, n) s =
  let tr = Trace.compile s in
  let h = mix h (Trace.length tr) in
  let h = mix_array (mix_array (mix_array h (Trace.pcs tr)) (Trace.metas tr)) (Trace.auxs tr) in
  (h, n + Trace.length tr)

(* "<instructions> <digest>" of a whole program. *)
let digest (p : Smpi.program) =
  let h, n =
    Array.fold_left
      (fun (h, n) segments ->
        List.fold_left
          (fun acc -> function
            | Smpi.Compute s -> mix_stream acc s
            | Smpi.Comm op -> (mix_op (fst acc) op, snd acc))
          (mix h (List.length segments), n)
          segments)
      (mix 0 (Array.length p), 0)
      p
  in
  Printf.sprintf "%d %016x" n (h land max_int)

let apps = Workloads.([ Ume.app; Lammps.lj; Lammps.chain ] @ Npb.all)
let codegens = [ Cg.gcc_13_2; Cg.gcc_9_4 ]
let rank_counts = [ 1; 2; 4 ]

let config_id (app : W.app) (cg : Cg.t) ranks = Printf.sprintf "%s/%s/x%d" app.app_name cg.name ranks

let digests (app : W.app) =
  List.concat_map
    (fun cg ->
      List.map
        (fun ranks -> (config_id app cg ranks, digest (app.make ~codegen:cg ~ranks ~scale)))
        rank_counts)
    codegens

(* Generated from the emission code before its instructions were shared
   across iterations; any drift here is a behaviour change. *)
let expected =
  [
    ("ume/gcc-13.2/x1", "11648 15b5ade8e4a4599f");
    ("ume/gcc-13.2/x2", "11648 34a4e9d91a5fb0f1");
    ("ume/gcc-13.2/x4", "11648 0ec29016c6eb0e7a");
    ("ume/gcc-9.4/x1", "15330 04f9dd0f4edefdc1");
    ("ume/gcc-9.4/x2", "15328 3bf688bddba2382b");
    ("ume/gcc-9.4/x4", "15328 2507eadaafae561c");
    ("lammps-lj/gcc-13.2/x1", "24672 3a6be8c3c32d3046");
    ("lammps-lj/gcc-13.2/x2", "24672 025978afece37e82");
    ("lammps-lj/gcc-13.2/x4", "24672 1ac37e7d0df2b409");
    ("lammps-lj/gcc-9.4/x1", "113980 1b4671c82df00397");
    ("lammps-lj/gcc-9.4/x2", "113980 1fdbffa3efc78b39");
    ("lammps-lj/gcc-9.4/x4", "113972 0830a7c4879d84f8");
    ("lammps-chain/gcc-13.2/x1", "5420 3c60631fe48511e9");
    ("lammps-chain/gcc-13.2/x2", "5425 0c95b5f15ba32fca");
    ("lammps-chain/gcc-13.2/x4", "5420 2d845d3dabf98fff");
    ("lammps-chain/gcc-9.4/x1", "21076 0acfd641ef3b6201");
    ("lammps-chain/gcc-9.4/x2", "21074 11272e09c98c3a76");
    ("lammps-chain/gcc-9.4/x4", "21068 2d5a1db8d6286b36");
    ("cg/gcc-13.2/x1", "27300 14372cf3e87bb0d6");
    ("cg/gcc-13.2/x2", "27300 3fbaf599f99035b3");
    ("cg/gcc-13.2/x4", "27300 0c849e7341807e9e");
    ("cg/gcc-9.4/x1", "27330 17756b8262ef999e");
    ("cg/gcc-9.4/x2", "27324 0b0403ab7ce7e99e");
    ("cg/gcc-9.4/x4", "27324 354802cbff859e98");
    ("ep/gcc-13.2/x1", "57370 3f448cfbdec2166f");
    ("ep/gcc-13.2/x2", "57600 0357e7cd02ba3bb4");
    ("ep/gcc-13.2/x4", "57530 1ffad3352527e3b5");
    ("ep/gcc-9.4/x1", "59962 31c5181a8ba6e29e");
    ("ep/gcc-9.4/x2", "60192 0cfbc5dee66749eb");
    ("ep/gcc-9.4/x4", "60122 019bd03fbb00a546");
    ("is/gcc-13.2/x1", "33172 31738b2b0aef838e");
    ("is/gcc-13.2/x2", "43412 334d913a41a79f5f");
    ("is/gcc-13.2/x4", "63892 0dad2e95baacaed3");
    ("is/gcc-9.4/x1", "33434 2871095d7942a6d2");
    ("is/gcc-9.4/x2", "43674 31767eea550d089e");
    ("is/gcc-9.4/x4", "64152 3114e3258961922f");
    ("mg/gcc-13.2/x1", "11337984 1e6201f91a01cd0a");
    ("mg/gcc-13.2/x2", "11337984 07bebbd5ab73674c");
    ("mg/gcc-13.2/x4", "11337984 380e48705f71bc70");
    ("mg/gcc-9.4/x1", "11432960 1b8407747529b405");
    ("mg/gcc-9.4/x2", "11432960 35026ed90a9b33c6");
    ("mg/gcc-9.4/x4", "11432960 313904db7d7f3ffe");
  ]

let test_pinned (app : W.app) () =
  List.iter
    (fun (id, got) ->
      match List.assoc_opt id expected with
      | Some want -> Alcotest.(check string) id want got
      | None -> Alcotest.failf "%s: no pinned digest (got %s)" id got)
    (digests app)


(* ------------------------------------------------------- trajectory memo *)

let lj_digest ~scale = digest (Lammps.program ~style:Lammps.Lj ~ranks:2 ~scale ())

let test_memo_reuses_md () =
  let first = lj_digest ~scale:0.06 in
  let runs = Lammps.md_runs () in
  let again = lj_digest ~scale:0.06 in
  Alcotest.(check int) "second program runs no MD" runs (Lammps.md_runs ());
  Alcotest.(check string) "same stream" first again;
  ignore (digest (Lammps.program ~codegen:Cg.gcc_9_4 ~style:Lammps.Lj ~ranks:4 ~scale:0.06 ()));
  Alcotest.(check int) "other ranks and codegen run no MD" runs (Lammps.md_runs ())

(* Selections of a two-rank LJ program: two distinct neighbor lists (the
   initial one and the step-3 rebuild) and the (empty) bond list, per
   rank. *)
let lj_selections_x2 = (2 + 1) * 2

let test_memo_reuses_selections () =
  let scale = 0.09 in
  let built = Lammps.selection_builds () in
  ignore (lj_digest ~scale);
  Alcotest.(check int) "one selection per list and rank range" (built + lj_selections_x2)
    (Lammps.selection_builds ());
  let built = Lammps.selection_builds () in
  ignore (lj_digest ~scale);
  ignore (digest (Lammps.program ~codegen:Cg.gcc_9_4 ~style:Lammps.Lj ~ranks:2 ~scale ()));
  Alcotest.(check int) "second program builds no selection" built (Lammps.selection_builds ());
  ignore (digest (Lammps.program ~style:Lammps.Chain ~ranks:2 ~scale ()));
  let built = Lammps.selection_builds () in
  ignore (digest (Lammps.program ~style:Lammps.Chain ~ranks:2 ~scale ()));
  Alcotest.(check int) "nor for the chain's bonds" built (Lammps.selection_builds ())

let test_memo_across_domains () =
  let scale = 0.07 in
  let runs = Lammps.md_runs () in
  let built = Lammps.selection_builds () in
  let pooled =
    Parallel.Pool.run ~jobs:2
      (List.init 4 (fun _ -> Parallel.Pool.cell (fun _ -> lj_digest ~scale)))
  in
  Alcotest.(check int) "one MD run for both domains" (runs + 1) (Lammps.md_runs ());
  Alcotest.(check int) "selections built once for both domains" (built + lj_selections_x2)
    (Lammps.selection_builds ());
  let sequential = lj_digest ~scale in
  List.iteri (fun i d -> Alcotest.(check string) (Printf.sprintf "domain build %d" i) sequential d) pooled

let test_memo_bounded () =
  List.iter
    (fun scale ->
      ignore (Lammps.program ~style:Lammps.Lj ~ranks:1 ~scale ());
      ignore (Lammps.program ~style:Lammps.Chain ~ranks:1 ~scale ());
      let per style = List.length (List.filter (fun (s, _, _) -> s = style) (Lammps.memoized ())) in
      let within name style =
        Alcotest.(check bool) (Printf.sprintf "%s within bound at scale %g" name scale) true (per style <= 2)
      in
      within "lj" Lammps.Lj;
      within "chain" Lammps.Chain)
    [ 0.06; 0.08; 0.1; 0.12; 0.14 ];
  let runs = Lammps.md_runs () in
  ignore (Lammps.program ~style:Lammps.Lj ~ranks:1 ~scale:0.12 ());
  Alcotest.(check int) "the two most recent sizes stay" runs (Lammps.md_runs ());
  ignore (Lammps.program ~style:Lammps.Lj ~ranks:1 ~scale:0.06 ());
  Alcotest.(check int) "an evicted size runs again" (runs + 1) (Lammps.md_runs ())

let suite =
  List.map (fun (app : W.app) -> Alcotest.test_case ("pinned: " ^ app.app_name) `Quick (test_pinned app)) apps
  @ [
      Alcotest.test_case "memo: second program reuses the MD" `Quick test_memo_reuses_md;
      Alcotest.test_case "memo: second program builds no selection" `Quick test_memo_reuses_selections;
      Alcotest.test_case "memo: shared across pool domains" `Quick test_memo_across_domains;
      Alcotest.test_case "memo: bounded as the scale varies" `Quick test_memo_bounded;
    ]
