module Gen = Prog.Gen
module E = Emit

type style = Lj | Chain

type trajectory = {
  atoms : int;
  steps : int;
  box : float;
  potential_energy : float array;
  kinetic_energy : float array;
  pair_count : int array;
}

(* Recorded per-step work, used by the emission layer: the step's
   neighbor pairs (shared by the steps between two rebuilds) and whether
   each was within the cutoff.  The bonds never change. *)
type step_record = {
  pairs : (int * int) array;
  within : bool array;
  rebuilt : bool;
}

type sim = {
  style : style;
  n : int;
  box : float;
  x : float array;
  y : float array;
  z : float array;
  vx : float array;
  vy : float array;
  vz : float array;
  fx : float array;
  fy : float array;
  fz : float array;
  bonds : (int * int) array;
}

let dt = 0.005
let skin = 0.3

let cutoff = function Lj -> 2.5 | Chain -> Float.pow 2.0 (1.0 /. 6.0)

let pbc box d =
  if d > box /. 2.0 then d -. box else if d < -.box /. 2.0 then d +. box else d

let init ?(seed = 0x7A) ~style ~atoms () =
  let rng = Util.Rng.create seed in
  let density = match style with Lj -> 0.8 | Chain -> 0.7 in
  let box = Float.cbrt (float_of_int atoms /. density) in
  let x = Array.make atoms 0.0
  and y = Array.make atoms 0.0
  and z = Array.make atoms 0.0 in
  let bonds =
    match style with
    | Lj ->
      (* Perturbed simple-cubic lattice. *)
      let side = int_of_float (Float.ceil (Float.cbrt (float_of_int atoms))) in
      let spacing = box /. float_of_int side in
      for i = 0 to atoms - 1 do
        let ix = i mod side and iy = i / side mod side and iz = i / (side * side) in
        let jitter () = Util.Rng.float rng 0.1 -. 0.05 in
        x.(i) <- (float_of_int ix +. 0.5) *. spacing +. jitter ();
        y.(i) <- (float_of_int iy +. 0.5) *. spacing +. jitter ();
        z.(i) <- (float_of_int iz +. 0.5) *. spacing +. jitter ()
      done;
      [||]
    | Chain ->
      (* Random-walk chains of 25 beads, bond length ~0.97. *)
      let chain_len = 25 in
      let bonds = ref [] in
      for i = 0 to atoms - 1 do
        if i mod chain_len = 0 then begin
          x.(i) <- Util.Rng.float rng box;
          y.(i) <- Util.Rng.float rng box;
          z.(i) <- Util.Rng.float rng box
        end
        else begin
          let theta = Util.Rng.float rng (2.0 *. Float.pi) in
          let cphi = Util.Rng.float rng 2.0 -. 1.0 in
          let sphi = sqrt (max 0.0 (1.0 -. (cphi *. cphi))) in
          let b = 0.97 in
          let wrap v = v -. (box *. Float.floor (v /. box)) in
          x.(i) <- wrap (x.(i - 1) +. (b *. sphi *. cos theta));
          y.(i) <- wrap (y.(i - 1) +. (b *. sphi *. sin theta));
          z.(i) <- wrap (z.(i - 1) +. (b *. cphi));
          bonds := (i - 1, i) :: !bonds
        end
      done;
      Array.of_list (List.rev !bonds)
  in
  let vx = Array.init atoms (fun _ -> Util.Rng.gaussian rng ~mu:0.0 ~sigma:1.0) in
  let vy = Array.init atoms (fun _ -> Util.Rng.gaussian rng ~mu:0.0 ~sigma:1.0) in
  let vz = Array.init atoms (fun _ -> Util.Rng.gaussian rng ~mu:0.0 ~sigma:1.0) in
  (* Remove net momentum. *)
  let center v =
    let m = Array.fold_left ( +. ) 0.0 v /. float_of_int atoms in
    Array.iteri (fun i vi -> v.(i) <- vi -. m) v
  in
  center vx;
  center vy;
  center vz;
  {
    style;
    n = atoms;
    box;
    x;
    y;
    z;
    vx;
    vy;
    vz;
    fx = Array.make atoms 0.0;
    fy = Array.make atoms 0.0;
    fz = Array.make atoms 0.0;
    bonds;
  }

(* Half neighbor list via cell binning (all-pairs fallback for boxes too
   small to bin). *)
let build_neighbors sim =
  let rc = cutoff sim.style +. skin in
  let rc2 = rc *. rc in
  let pairs = ref [] in
  let consider i j =
    let dx = pbc sim.box (sim.x.(i) -. sim.x.(j)) in
    let dy = pbc sim.box (sim.y.(i) -. sim.y.(j)) in
    let dz = pbc sim.box (sim.z.(i) -. sim.z.(j)) in
    if (dx *. dx) +. (dy *. dy) +. (dz *. dz) <= rc2 then pairs := (i, j) :: !pairs
  in
  let ncell = int_of_float (sim.box /. rc) in
  if ncell < 3 then
    for i = 0 to sim.n - 1 do
      for j = i + 1 to sim.n - 1 do
        consider i j
      done
    done
  else begin
    let cell_of i =
      let c v = int_of_float (v /. sim.box *. float_of_int ncell) mod ncell in
      (c sim.x.(i) * ncell * ncell) + (c sim.y.(i) * ncell) + c sim.z.(i)
    in
    let cells = Hashtbl.create 256 in
    for i = 0 to sim.n - 1 do
      let c = cell_of i in
      Hashtbl.replace cells c (i :: (Option.value ~default:[] (Hashtbl.find_opt cells c)))
    done;
    let neighbors_of c =
      let cz = c mod ncell and cy = c / ncell mod ncell and cx = c / (ncell * ncell) in
      List.concat_map
        (fun dx ->
          List.concat_map
            (fun dy ->
              List.map
                (fun dz ->
                  let w v = (v + ncell) mod ncell in
                  (w (cx + dx) * ncell * ncell) + (w (cy + dy) * ncell) + w (cz + dz))
                [ -1; 0; 1 ])
            [ -1; 0; 1 ])
        [ -1; 0; 1 ]
    in
    Hashtbl.iter
      (fun c members ->
        let nearby = List.sort_uniq compare (neighbors_of c) in
        List.iter
          (fun i ->
            List.iter
              (fun c' ->
                match Hashtbl.find_opt cells c' with
                | None -> ()
                | Some others -> List.iter (fun j -> if i < j then consider i j) others)
              nearby)
          members)
      cells
  end;
  Array.of_list !pairs

(* One force evaluation; returns (potential energy, per-pair within-cutoff
   flags). *)
let compute_forces sim neighbors =
  let rc = cutoff sim.style in
  let rc2 = rc *. rc in
  Array.fill sim.fx 0 sim.n 0.0;
  Array.fill sim.fy 0 sim.n 0.0;
  Array.fill sim.fz 0 sim.n 0.0;
  let pe = ref 0.0 in
  let flags =
    Array.map
      (fun (i, j) ->
        let dx = pbc sim.box (sim.x.(i) -. sim.x.(j)) in
        let dy = pbc sim.box (sim.y.(i) -. sim.y.(j)) in
        let dz = pbc sim.box (sim.z.(i) -. sim.z.(j)) in
        let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) in
        if r2 <= rc2 && r2 > 1e-12 then begin
          let inv2 = 1.0 /. r2 in
          let inv6 = inv2 *. inv2 *. inv2 in
          let ff = 48.0 *. inv2 *. inv6 *. (inv6 -. 0.5) in
          sim.fx.(i) <- sim.fx.(i) +. (ff *. dx);
          sim.fy.(i) <- sim.fy.(i) +. (ff *. dy);
          sim.fz.(i) <- sim.fz.(i) +. (ff *. dz);
          sim.fx.(j) <- sim.fx.(j) -. (ff *. dx);
          sim.fy.(j) <- sim.fy.(j) -. (ff *. dy);
          sim.fz.(j) <- sim.fz.(j) -. (ff *. dz);
          pe := !pe +. (4.0 *. inv6 *. (inv6 -. 1.0));
          true
        end
        else false)
      neighbors
  in
  (* FENE bonds for the chain benchmark. *)
  Array.iter
    (fun (i, j) ->
      let dx = pbc sim.box (sim.x.(i) -. sim.x.(j)) in
      let dy = pbc sim.box (sim.y.(i) -. sim.y.(j)) in
      let dz = pbc sim.box (sim.z.(i) -. sim.z.(j)) in
      let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) in
      let k = 30.0 and r0 = 1.5 in
      let r0sq = r0 *. r0 in
      let frac = Float.min 0.9 (r2 /. r0sq) in
      let ff = -.k /. (1.0 -. frac) in
      sim.fx.(i) <- sim.fx.(i) +. (ff *. dx);
      sim.fy.(i) <- sim.fy.(i) +. (ff *. dy);
      sim.fz.(i) <- sim.fz.(i) +. (ff *. dz);
      sim.fx.(j) <- sim.fx.(j) -. (ff *. dx);
      sim.fy.(j) <- sim.fy.(j) -. (ff *. dy);
      sim.fz.(j) <- sim.fz.(j) -. (ff *. dz);
      pe := !pe -. (0.5 *. k *. r0sq *. log (1.0 -. frac)))
    sim.bonds;
  (!pe, flags)

let kinetic sim =
  let ke = ref 0.0 in
  for i = 0 to sim.n - 1 do
    ke := !ke +. (0.5 *. ((sim.vx.(i) ** 2.0) +. (sim.vy.(i) ** 2.0) +. (sim.vz.(i) ** 2.0)))
  done;
  !ke

(* Velocity-Verlet with neighbor rebuild every [rebuild_every] steps;
   records per-step pair work. *)
let run_md ?(seed = 0x7A) ~style ~atoms ~steps () =
  let sim = init ~seed ~style ~atoms () in
  let rebuild_every = 3 in
  let neighbors = ref (build_neighbors sim) in
  let records = ref [] in
  let pe0, _ = compute_forces sim !neighbors in
  let pes = ref [ pe0 ] in
  let kes = ref [ kinetic sim ] in
  for step = 1 to steps do
    let wrap v = v -. (sim.box *. Float.floor (v /. sim.box)) in
    for i = 0 to sim.n - 1 do
      sim.vx.(i) <- sim.vx.(i) +. (0.5 *. dt *. sim.fx.(i));
      sim.vy.(i) <- sim.vy.(i) +. (0.5 *. dt *. sim.fy.(i));
      sim.vz.(i) <- sim.vz.(i) +. (0.5 *. dt *. sim.fz.(i));
      sim.x.(i) <- wrap (sim.x.(i) +. (dt *. sim.vx.(i)));
      sim.y.(i) <- wrap (sim.y.(i) +. (dt *. sim.vy.(i)));
      sim.z.(i) <- wrap (sim.z.(i) +. (dt *. sim.vz.(i)))
    done;
    let rebuilt = step mod rebuild_every = 0 in
    if rebuilt then neighbors := build_neighbors sim;
    let pe, flags = compute_forces sim !neighbors in
    for i = 0 to sim.n - 1 do
      sim.vx.(i) <- sim.vx.(i) +. (0.5 *. dt *. sim.fx.(i));
      sim.vy.(i) <- sim.vy.(i) +. (0.5 *. dt *. sim.fy.(i));
      sim.vz.(i) <- sim.vz.(i) +. (0.5 *. dt *. sim.fz.(i))
    done;
    records := { pairs = !neighbors; within = flags; rebuilt } :: !records;
    pes := pe :: !pes;
    kes := kinetic sim :: !kes
  done;
  let records = Array.of_list (List.rev !records) in
  let traj =
    {
      atoms;
      steps;
      box = sim.box;
      potential_energy = Array.of_list (List.rev !pes);
      kinetic_energy = Array.of_list (List.rev !kes);
      pair_count =
        Array.map
          (fun r -> Array.fold_left (fun acc ok -> if ok then acc + 1 else acc) 0 r.within)
          records;
    }
  in
  (traj, sim.bonds, records)

let simulate ?seed ~style ~atoms ~steps () =
  let traj, _, _ = run_md ?seed ~style ~atoms ~steps () in
  traj

(* A rank's selection: the indices, in order, of the pairs (or bonds)
   of one list whose first atom lies in the rank's atom range [lo, lo +
   sz), and each one's second atom.  The partners are copied out because
   the emitter reads them per pair, and the list's tuples sit scattered
   over the major heap. *)
type selection = {
  s_list : (int * int) array;  (* keyed by identity: one per neighbor list *)
  s_lo : int;
  s_sz : int;
  s_owned : int array;
  s_partner : int array;
}

(* The recorded steps depend only on (style, atoms, steps), so every
   program built at one scale (any rank count, any codegen, any
   platform) replays one MD run.  The table keeps the [memo_keep] most
   recently used sizes per style; the lock lets pool domains share it,
   and a domain that misses runs the MD under it, so no size is ever run
   twice at once.  The steps between two rebuilds share one neighbor
   list, so each rank's selections are kept with the trajectory too:
   built once per (list, rank range), freed when the entry is evicted. *)
type memo_entry = {
  m_style : style;
  m_atoms : int;
  m_steps : int;
  m_bonds : (int * int) array;
  m_records : step_record array;
  mutable m_selections : selection list;
}

let memo_keep = 2
let memo : memo_entry list ref = ref []
let memo_lock = Mutex.create ()
let md_run_count = ref 0
let selection_build_count = ref 0

let recorded_steps ~style ~atoms ~steps =
  Mutex.protect memo_lock (fun () ->
      let hit e = e.m_style = style && e.m_atoms = atoms && e.m_steps = steps in
      let entry =
        match List.find_opt hit !memo with
        | Some e -> e
        | None ->
          incr md_run_count;
          let _, bonds, records = run_md ~style ~atoms ~steps () in
          {
            m_style = style;
            m_atoms = atoms;
            m_steps = steps;
            m_bonds = bonds;
            m_records = records;
            m_selections = [];
          }
      in
      let same, others =
        List.partition (fun e -> e.m_style = style) (List.filter (fun e -> not (hit e)) !memo)
      in
      memo := (entry :: List.filteri (fun k _ -> k < memo_keep - 1) same) @ others;
      entry)

(* The selection of [list] for atoms [lo, lo + sz), from [entry]'s
   selections or built and added there. *)
let selection entry (list : (int * int) array) ~lo ~sz =
  Mutex.protect memo_lock (fun () ->
      let hit s = s.s_list == list && s.s_lo = lo && s.s_sz = sz in
      match List.find_opt hit entry.m_selections with
      | Some s -> s
      | None ->
        incr selection_build_count;
        let owns (i : int) = i >= lo && i < lo + sz in
        let count = Array.fold_left (fun n (i, _) -> if owns i then n + 1 else n) 0 list in
        let owned = Array.make count 0 and partner = Array.make count 0 in
        let n = ref 0 in
        Array.iteri
          (fun k (i, j) ->
            if owns i then begin
              owned.(!n) <- k;
              partner.(!n) <- j;
              incr n
            end)
          list;
        let s = { s_list = list; s_lo = lo; s_sz = sz; s_owned = owned; s_partner = partner } in
        entry.m_selections <- s :: entry.m_selections;
        s)

let md_runs () = Mutex.protect memo_lock (fun () -> !md_run_count)
let selection_builds () = Mutex.protect memo_lock (fun () -> !selection_build_count)

let memoized () =
  Mutex.protect memo_lock (fun () -> List.map (fun e -> (e.m_style, e.m_atoms, e.m_steps)) !memo)

(* ---------------------------------------------------------------- emission *)

let split n ranks r =
  let q = n / ranks and rem = n mod ranks in
  let lo = (r * q) + min r rem in
  (lo, q + if r < rem then 1 else 0)

(* Per-atom record stride in the emitted address stream: LAMMPS keeps
   x/v/f/type/tag/image and neighbor headers per atom — the working set
   per atom is far larger than three doubles. *)
let atom_stride = 128

let program ?(codegen = Codegen.default) ~style ~ranks ~scale () : Smpi.program =
  let atoms = max 64 (int_of_float (float_of_int 1200 *. scale)) in
  let steps = 4 in
  let entry = recorded_steps ~style ~atoms ~steps in
  let bonds = entry.m_bonds and records = entry.m_records in

  let mk_rank rank =
    let base = Workload.data_base ~rank in
    let pos_base = base in
    let force_base = base + (atoms * atom_stride) in
    let nlist_base = force_base + (atoms * atom_stride) in
    let region = E.fresh_region ~slots:64 in
    let pc = Prog.Code.pc region in
    let lo, sz = split atoms ranks rank in
    let select list = selection entry list ~lo ~sz in
    (* The boards' compiler vectorizes the pair loop (RVV indexed loads
       pack the gathers, lanes pack the math): one emitted group covers
       [vw] pairs.  The FireSim-image binary is scalar (vw = 1). *)
    let vw = max 1 (int_of_float codegen.Codegen.vector_width) in
    let fadd = E.fp ~kind:Isa.Insn.Fp_add and fmul = E.fp ~kind:Isa.Insn.Fp_mul in
    let cutoff_test =
      [
        fadd ~pc:(pc 4) ~dst:24 ~src1:21 ();
        fmul ~pc:(pc 5) ~dst:24 ~src1:24 ~src2:24 ();
        fadd ~pc:(pc 6) ~dst:25 ~src1:24 ~src2:25 ();
      ]
    in
    let cutoff_branch ok = E.branch ~pc:(pc 7) ~taken:(not ok) ~target:(pc 24) ~src1:25 () in
    let within = cutoff_branch true and beyond = cutoff_branch false in
    (* The pure pair math vectorizes (the boards' compiler packs lanes);
       the gather/scatter part does not. *)
    let pair_math =
      E.fp ~pc:(pc 8) ~kind:Isa.Insn.Fp_div ~dst:26 ~src1:25 ()
      :: List.init (Codegen.vector_ops codegen 4) (fun m ->
             E.fp ~pc:(pc (9 + m))
               ~kind:(if m land 1 = 0 then Isa.Insn.Fp_mul else Isa.Insn.Fp_add)
               ~dst:(26 + (m land 1)) ~src1:(26 + (m land 1)) ())
    in
    let force_add = fadd ~pc:(pc 14) ~dst:28 ~src1:28 ~src2:27 () in
    let overhead =
      E.overhead codegen ~base:2 (fun k ->
          List.init k (fun m -> E.alu ~pc:(pc (16 + m)) ~dst:E.rctr ~src1:E.rctr ()))
    in
    (* Pair-force stream for one step: each examined pair owned by this
       rank emits the gather + cutoff test; accepted pairs add the force
       math and the newton-scatter to atom j. *)
    (* The pair loop is the hot emitter: its pcs are computed once. *)
    let pc_nl = pc 0 and pc_x = pc 1 and pc_y = pc 2 and pc_z = pc 3 in
    let pc_load_f = pc 13 and pc_store_f = pc 15 in
    let force_stream (rec_ : step_record) =
      let { s_owned = owned; s_partner = partner; _ } = select rec_.pairs in
      Gen.bursts ((Array.length owned + vw - 1) / vw) (fun g ->
          let k = g * vw in
          let j = partner.(k) and ok = rec_.within.(owned.(k)) in
          let pos_j = pos_base + (j * atom_stride) and force_j = force_base + (j * atom_stride) in
          let tail = overhead ~index:k in
          let tail =
            if not ok then tail
            else
              pair_math
              @ E.load ~pc:pc_load_f ~dst:28 ~addr:force_j ()
                :: force_add
                :: E.store ~pc:pc_store_f ~addr:force_j ~src1:28 ()
                :: tail
          in
          E.load ~pc:pc_nl ~dst:E.rtmp ~addr:(nlist_base + (k * 4)) ()
          :: E.load ~pc:pc_x ~dst:21 ~addr:pos_j ~src1:E.rtmp ()
          :: E.load ~pc:pc_y ~dst:22 ~addr:(pos_j + 8) ~src1:E.rtmp ()
          :: E.load ~pc:pc_z ~dst:23 ~addr:(pos_j + 16) ~src1:E.rtmp ()
          :: (cutoff_test @ ((if ok then within else beyond) :: tail)))
    in
    (* FENE bond stream (chain only): includes the logarithm (Fp_long). *)
    let bond_math =
      [
        fadd ~pc:(pc 33) ~dst:22 ~src1:21 ();
        fmul ~pc:(pc 34) ~dst:22 ~src1:22 ~src2:22 ();
        E.fp ~pc:(pc 35) ~kind:Isa.Insn.Fp_div ~dst:23 ~src1:22 ();
        E.fp ~pc:(pc 36) ~kind:Isa.Insn.Fp_long ~dst:24 ~src1:23 ();
        fadd ~pc:(pc 37) ~dst:(E.racc 1) ~src1:(E.racc 1) ~src2:24 ();
      ]
    in
    let bond_partner = (select bonds).s_partner in
    let bond_stream =
      Gen.bursts ((Array.length bond_partner + vw - 1) / vw) (fun g ->
          let j = bond_partner.(g * vw) in
          E.load ~pc:(pc 32) ~dst:21 ~addr:(pos_base + (j * atom_stride)) ()
          :: (bond_math @ [ E.store ~pc:(pc 38) ~addr:(force_base + (j * atom_stride)) ~src1:24 () ]))
    in
    (* Integration stream: streaming load/fma/store over owned atoms. *)
    let scale_force = fmul ~pc:(pc 42) ~dst:23 ~src1:22 () in
    let advance = fadd ~pc:(pc 43) ~dst:21 ~src1:21 ~src2:23 () in
    let advance_v = fadd ~pc:(pc 46) ~dst:24 ~src1:24 ~src2:23 () in
    let integrate_stream =
      E.with_loop region ~iters:((sz + vw - 1) / vw) ~body_slots:56 ~body:(fun gi ->
          let i = lo + (gi * vw) in
          let at = pos_base + (i * atom_stride) in
          [
            E.load ~pc:(pc 40) ~dst:21 ~addr:at ();
            E.load ~pc:(pc 41) ~dst:22 ~addr:(force_base + (i * atom_stride)) ();
            scale_force;
            advance;
            E.store ~pc:(pc 44) ~addr:at ~src1:21 ();
            E.load ~pc:(pc 45) ~dst:24 ~addr:(at + 8) ();
            advance_v;
            E.store ~pc:(pc 47) ~addr:(at + 8) ~src1:24 ();
          ])
    in
    (* Neighbor rebuild: cell binning sweep over owned atoms. *)
    let binning =
      [
        fmul ~pc:(pc 49) ~dst:22 ~src1:21 ();
        E.fp ~pc:(pc 50) ~kind:Isa.Insn.Fp_cvt ~dst:E.rtmp ~src1:22 ();
        E.alu ~pc:(pc 51) ~dst:E.rtmp2 ~src1:E.rtmp ();
        E.alu ~pc:(pc 52) ~dst:E.rtmp2 ~src1:E.rtmp2 ();
      ]
    in
    let rebuild_stream =
      E.with_loop region ~iters:sz ~body_slots:60 ~body:(fun ai ->
          let i = lo + ai in
          E.load ~pc:(pc 48) ~dst:21 ~addr:(pos_base + (i * atom_stride)) ()
          :: (binning @ [ E.store ~pc:(pc 53) ~addr:(nlist_base + (atoms * 4) + (i * 4)) ~src1:E.rtmp2 () ]))
    in
    let halo =
      if ranks = 1 then []
      else
        (* Boundary slab positions to both spatial neighbors. *)
        let boundary_atoms = max 1 (sz / 4) in
        let bytes = boundary_atoms * 24 in
        let up = (rank + 1) mod ranks in
        let down = (rank + ranks - 1) mod ranks in
        [
          Smpi.Comm (Smpi.Send { dst = up; bytes; tag = 3 });
          Smpi.Comm (Smpi.Send { dst = down; bytes; tag = 4 });
          Smpi.Comm (Smpi.Recv { src = down; bytes; tag = 3 });
          Smpi.Comm (Smpi.Recv { src = up; bytes; tag = 4 });
        ]
    in
    let step_segments rec_ =
      halo
      @ (if rec_.rebuilt then [ Smpi.Compute rebuild_stream ] else [])
      @ [ Smpi.Compute (force_stream rec_) ]
      @ (match style with Chain -> [ Smpi.Compute bond_stream ] | Lj -> [])
      @ [ Smpi.Compute integrate_stream; Smpi.Comm (Smpi.Allreduce { bytes = 24 }) ]
    in
    List.concat_map step_segments (Array.to_list records)
  in
  Array.init ranks mk_rank

let lj =
  {
    Workload.app_name = "lammps-lj";
    app_description = "LAMMPS Lennard-Jones fluid (mini)";
    characteristics = "FP compute + neighbor gather";
    make = (fun ~codegen ~ranks ~scale -> program ~codegen ~style:Lj ~ranks ~scale ());
  }

let chain =
  {
    Workload.app_name = "lammps-chain";
    app_description = "LAMMPS polymer chain, FENE bonds (mini)";
    characteristics = "FP compute + bonds + neighbor gather";
    make = (fun ~codegen ~ranks ~scale -> program ~codegen ~style:Chain ~ranks ~scale ());
  }
