type config =
  | Static_taken
  | Static_not_taken
  | Bimodal of { entries : int }
  | Gshare of { entries : int; history_bits : int }
  | Tage of { base_entries : int; tables : int; table_entries : int; max_history : int }

(* A TAGE entry packs into one int: bits 0-8 hold tag+1 (0 = invalid; the
   tag itself is 8-bit), bits 9-10 the 2-bit prediction counter, bits
   11-12 the 2-bit useful counter.  One immediate array load per probe
   instead of chasing a boxed record — the predictor is walked once per
   resolved branch in the replay hot loop. *)
type tage_state = {
  base : Bytes.t;
  base_mask : int;
  tables : int array array;  (* tables.(i) has geometric history length *)
  hist_masks : int array;  (* (1 lsl history length) - 1 per table *)
  entry_mask : int;
  mutable history : int;  (* low bits = most recent outcomes *)
}

let e_invalid = 2 lsl 9 (* no tag, ctr weakly-taken, useful 0 *)
let e_tagf e = e land 0x1ff
let e_ctr e = (e lsr 9) land 3
let e_useful e = (e lsr 11) land 3

type gshare_state = { g_counters : Bytes.t; g_mask : int; g_hist_mask : int; mutable g_history : int }

type state =
  | S_static of bool
  | S_bimodal of { counters : Bytes.t; mask : int }
  | S_gshare of gshare_state
  | S_tage of tage_state

type t = { config : config; state : state }

let require_pow2 name n =
  if n <= 0 || n land (n - 1) <> 0 then invalid_arg (name ^ ": size must be a positive power of two")

(* 2-bit saturating counters packed one per byte: 0..3; >=2 predicts taken.
   Initialized to weakly-taken (2), matching common hardware reset. *)
let new_counters entries = Bytes.make entries '\002'

let ctr_get c i = Char.code (Bytes.unsafe_get c i)
let ctr_set c i v = Bytes.unsafe_set c i (Char.chr v)

(* 2-bit saturating update without [Stdlib.min]/[max]: the polymorphic
   versions cost a call per use, and this runs once per resolved branch. *)
let sat_up v = if v >= 3 then 3 else v + 1
let sat_down v = if v <= 0 then 0 else v - 1

let ctr_train c i taken =
  let v = ctr_get c i in
  ctr_set c i (if taken then sat_up v else sat_down v)

let fold_pc pc = (pc lsr 2) lxor (pc lsr 13)

let reset t =
  match t.state with
  | S_static _ -> ()
  | S_bimodal { counters; _ } -> Bytes.fill counters 0 (Bytes.length counters) '\002'
  | S_gshare g ->
    Bytes.fill g.g_counters 0 (Bytes.length g.g_counters) '\002';
    g.g_history <- 0
  | S_tage s ->
    Bytes.fill s.base 0 (Bytes.length s.base) '\002';
    Array.iter (fun tbl -> Array.fill tbl 0 (Array.length tbl) e_invalid) s.tables;
    s.history <- 0

(* Released predictors, keyed by config: TAGE's tables (6 x 512 words and
   a 2 KiB base) are above the minor heap's limit, so a dropped one is
   major garbage. *)
let spare : (config, t) Util.Spare.t = Util.Spare.create ()

let release t = Util.Spare.put spare t.config t
let spare_words () = Util.Spare.words spare

let create config =
  match Util.Spare.take spare config with
  | Some t ->
    reset t;
    t
  | None ->
    let state =
      match config with
      | Static_taken -> S_static true
      | Static_not_taken -> S_static false
      | Bimodal { entries } ->
        require_pow2 "Predictor.Bimodal" entries;
        S_bimodal { counters = new_counters entries; mask = entries - 1 }
      | Gshare { entries; history_bits } ->
        require_pow2 "Predictor.Gshare" entries;
        if history_bits < 1 || history_bits > 30 then invalid_arg "Predictor.Gshare: history_bits";
        S_gshare
          {
            g_counters = new_counters entries;
            g_mask = entries - 1;
            g_hist_mask = (1 lsl history_bits) - 1;
            g_history = 0;
          }
      | Tage { base_entries; tables; table_entries; max_history } ->
        require_pow2 "Predictor.Tage base" base_entries;
        require_pow2 "Predictor.Tage tables" table_entries;
        if tables < 1 then invalid_arg "Predictor.Tage: tables";
        if max_history < tables then invalid_arg "Predictor.Tage: max_history";
        (* Geometric history lengths from 2 up to max_history. *)
        let ratio = (float_of_int max_history /. 2.0) ** (1.0 /. float_of_int (max 1 (tables - 1))) in
        let hist_lens =
          Array.init tables (fun i ->
              min 62 (max (i + 2) (int_of_float (2.0 *. (ratio ** float_of_int i)))))
        in
        S_tage
          {
            base = new_counters base_entries;
            base_mask = base_entries - 1;
            tables = Array.init tables (fun _ -> Array.make table_entries e_invalid);
            hist_masks = Array.map (fun len -> (1 lsl len) - 1) hist_lens;
            entry_mask = table_entries - 1;
            history = 0;
          }
    in
    { config; state }

(* [fpc] below is [fold_pc pc], folded once per prediction rather than
   once per table probe. *)
let tage_index s fpc table_i =
  let hist = s.history land Array.unsafe_get s.hist_masks table_i in
  (* Mix folded history with pc; cheap but adequate hash. *)
  let h = fpc lxor hist lxor (hist lsr 7) lxor (table_i * 0x9e37) in
  h land s.entry_mask

(* Stored shifted by one ([tag+1], "tagf") so 0 means invalid. *)
let tage_tagf s fpc table_i =
  let hist = s.history land Array.unsafe_get s.hist_masks table_i in
  (((fpc * 31) lxor (hist * 7) lxor table_i) land 0xff) + 1

(* Longest-history table whose entry's tag matches provides the prediction;
   otherwise the bimodal base does.  Returns -1 for the base, else the
   provider packed as [(table_i lsl 32) lor entry_idx] — a plain int so
   the search result needs no allocation in the resolve hot loop. *)
let tage_search s fpc =
  (* While loop over local refs, not an inner recursive function — the
     latter allocates a closure per call without flambda. *)
  let m = ref (-1) in
  let i = ref (Array.length s.tables - 1) in
  while !i >= 0 do
    let idx = tage_index s fpc !i in
    let e = Array.unsafe_get (Array.unsafe_get s.tables !i) idx in
    if e_tagf e = tage_tagf s fpc !i then begin
      m := (!i lsl 32) lor idx;
      i := -1
    end
    else decr i
  done;
  !m

let provider_table m = m lsr 32
let provider_idx m = m land 0xffff_ffff

let tage_provider_taken s fpc m =
  if m >= 0 then
    e_ctr (Array.unsafe_get (Array.unsafe_get s.tables (provider_table m)) (provider_idx m)) >= 2
  else ctr_get s.base (fpc land s.base_mask) >= 2

let predict t ~pc =
  match t.state with
  | S_static b -> b
  | S_bimodal { counters; mask } -> ctr_get counters (fold_pc pc land mask) >= 2
  | S_gshare g -> ctr_get g.g_counters ((fold_pc pc lxor (g.g_history land g.g_hist_mask)) land g.g_mask) >= 2
  | S_tage s ->
    let fpc = fold_pc pc in
    tage_provider_taken s fpc (tage_search s fpc)

(* Train with the resolved outcome given the provider found by
   [tage_search] ([m] = packed provider or -1 for the bimodal base) and
   the direction that provider predicted.  Factoring the search out lets
   [resolve] walk the tables once for predict + update combined. *)
let tage_train s fpc m ~predicted ~taken =
  (if m >= 0 then begin
     let tbl = Array.unsafe_get s.tables (provider_table m) in
     let matched_idx = provider_idx m in
     let e = Array.unsafe_get tbl matched_idx in
     let ctr = e_ctr e in
     let ctr = if taken then sat_up ctr else sat_down ctr in
     let u = e_useful e in
     let u = if predicted = taken then sat_up u else sat_down u in
     Array.unsafe_set tbl matched_idx (e_tagf e lor (ctr lsl 9) lor (u lsl 11))
   end
   else ctr_train s.base (fpc land s.base_mask) taken);
  (* On a misprediction, allocate in a longer-history table to capture the
     correlation the current provider missed. *)
  (if predicted <> taken then begin
     let ntables = Array.length s.tables in
     let i = ref ((if m >= 0 then provider_table m else -1) + 1) in
     while !i < ntables do
       let tbl = Array.unsafe_get s.tables !i in
       let idx = tage_index s fpc !i in
       let e = Array.unsafe_get tbl idx in
       if e_useful e = 0 then begin
         (* Fresh entry: resolved tag, weak counter in the taken
            direction, useful 0. *)
         Array.unsafe_set tbl idx (tage_tagf s fpc !i lor ((if taken then 2 else 1) lsl 9));
         i := ntables
       end
       else begin
         Array.unsafe_set tbl idx (e - (1 lsl 11));
         incr i
       end
     done
   end);
  s.history <- ((s.history lsl 1) lor Bool.to_int taken) land ((1 lsl 62) - 1)

let update t ~pc ~taken =
  match t.state with
  | S_static _ -> ()
  | S_bimodal { counters; mask } -> ctr_train counters (fold_pc pc land mask) taken
  | S_gshare g ->
    ctr_train g.g_counters ((fold_pc pc lxor (g.g_history land g.g_hist_mask)) land g.g_mask) taken;
    g.g_history <- ((g.g_history lsl 1) lor Bool.to_int taken) land g.g_hist_mask
  | S_tage s ->
    let fpc = fold_pc pc in
    let m = tage_search s fpc in
    let predicted = tage_provider_taken s fpc m in
    tage_train s fpc m ~predicted ~taken

(* Fused predict + update: exactly the state transitions and return value
   of [predict] followed by [update] — update reads the same provider the
   prediction used, since predict mutates nothing — but with one table
   walk and no option/tuple allocation, which matters in the replay hot
   loop (BOOM resolves a TAGE branch every few instructions). *)
let resolve t ~pc ~taken =
  match t.state with
  | S_static b -> b
  | S_bimodal { counters; mask } ->
    let i = fold_pc pc land mask in
    let p = ctr_get counters i >= 2 in
    ctr_train counters i taken;
    p
  | S_gshare g ->
    let i = (fold_pc pc lxor (g.g_history land g.g_hist_mask)) land g.g_mask in
    let p = ctr_get g.g_counters i >= 2 in
    ctr_train g.g_counters i taken;
    g.g_history <- ((g.g_history lsl 1) lor Bool.to_int taken) land g.g_hist_mask;
    p
  | S_tage s ->
    let fpc = fold_pc pc in
    let m = tage_search s fpc in
    let predicted = tage_provider_taken s fpc m in
    tage_train s fpc m ~predicted ~taken;
    predicted
