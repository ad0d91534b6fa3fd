type config = {
  direction : Predictor.config;
  btb_entries : int;
  ras_entries : int;
}

let rocket_config =
  { direction = Predictor.Bimodal { entries = 512 }; btb_entries = 32; ras_entries = 6 }

let boom_config =
  {
    direction = Predictor.Tage { base_entries = 2048; tables = 6; table_entries = 512; max_history = 64 };
    btb_entries = 128;
    ras_entries = 32;
  }

type stats = {
  ctrl_seen : int;
  mispredicts : int;
  btb_misses : int;
  ras_mispredicts : int;
}

type t = {
  dir : Predictor.t;
  btb_tags : int array;
  btb_targets : int array;
  btb_mask : int;
  ras : int array;
  ras_size : int;
  mutable ras_top : int;  (** number of valid entries, capped at ras_size *)
  mutable ras_depth : int;  (** logical call depth, may exceed ras_size *)
  mutable ctrl_seen : int;
  mutable mispredicts : int;
  mutable btb_misses : int;
  mutable ras_mispredicts : int;
}

let create (c : config) =
  if c.btb_entries <= 0 || c.btb_entries land (c.btb_entries - 1) <> 0 then
    invalid_arg "Frontend.create: btb_entries must be a power of two";
  if c.ras_entries <= 0 then invalid_arg "Frontend.create: ras_entries";
  {
    dir = Predictor.create c.direction;
    btb_tags = Array.make c.btb_entries (-1);
    btb_targets = Array.make c.btb_entries 0;
    btb_mask = c.btb_entries - 1;
    ras = Array.make c.ras_entries 0;
    ras_size = c.ras_entries;
    ras_top = 0;
    ras_depth = 0;
    ctrl_seen = 0;
    mispredicts = 0;
    btb_misses = 0;
    ras_mispredicts = 0;
  }

let release t = Predictor.release t.dir

let btb_index t pc = (pc lsr 2) land t.btb_mask

let btb_lookup t ~pc ~target =
  let i = btb_index t pc in
  let hit = t.btb_tags.(i) = pc && t.btb_targets.(i) = target in
  if not hit then t.btb_misses <- t.btb_misses + 1;
  (* Install/refresh on every resolved taken transfer. *)
  t.btb_tags.(i) <- pc;
  t.btb_targets.(i) <- target;
  hit

let ras_push t ret_pc =
  t.ras_depth <- t.ras_depth + 1;
  if t.ras_top < t.ras_size then begin
    t.ras.(t.ras_top) <- ret_pc;
    t.ras_top <- t.ras_top + 1
  end
  else begin
    (* Circular overwrite: the oldest entry is lost — deep recursion (the
       CRd kernel) will mispredict on the way back up. *)
    Array.blit t.ras 1 t.ras 0 (t.ras_size - 1);
    t.ras.(t.ras_size - 1) <- ret_pc
  end

let ras_pop t ~target =
  let correct =
    if t.ras_top > 0 then begin
      let predicted = t.ras.(t.ras_top - 1) in
      t.ras_top <- t.ras_top - 1;
      predicted = target
    end
    else false
  in
  t.ras_depth <- (if t.ras_depth > 0 then t.ras_depth - 1 else 0);
  (* Entries evicted by overflow make deeper returns unpredictable even
     after the stored ones are consumed. *)
  let overflowed = t.ras_depth >= t.ras_size in
  correct && not overflowed

let resolve_ctrl t ~kind ~pc ~taken ~target =
  t.ctrl_seen <- t.ctrl_seen + 1;
  let correct =
    match (kind : Isa.Insn.kind) with
    | Branch ->
      let predicted = Predictor.resolve t.dir ~pc ~taken in
      if predicted <> taken then false
      else if taken then btb_lookup t ~pc ~target
      else true
    | Jump -> btb_lookup t ~pc ~target
    | Call ->
      let hit = btb_lookup t ~pc ~target in
      ras_push t (pc + 4);
      hit
    | Ret ->
      let ok = ras_pop t ~target in
      if not ok then t.ras_mispredicts <- t.ras_mispredicts + 1;
      ok
    | _ -> invalid_arg "Frontend.resolve: not a control insn"
  in
  if not correct then t.mispredicts <- t.mispredicts + 1;
  correct

let resolve t (insn : Isa.Insn.t) =
  match insn.ctrl with
  | Some c -> resolve_ctrl t ~kind:insn.kind ~pc:insn.pc ~taken:c.taken ~target:c.target
  | None -> invalid_arg "Frontend.resolve: not a control insn"

let stats t =
  {
    ctrl_seen = t.ctrl_seen;
    mispredicts = t.mispredicts;
    btb_misses = t.btb_misses;
    ras_mispredicts = t.ras_mispredicts;
  }

let mispredict_rate t =
  if t.ctrl_seen = 0 then 0.0 else float_of_int t.mispredicts /. float_of_int t.ctrl_seen
