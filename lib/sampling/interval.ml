(* Interval schedule: which instruction positions are simulated in which
   mode, as a pure function of the policy, so the engine, tests, and
   reports agree on the partition. *)

type mode =
  | Detailed  (** full timing model; contributes a CPI sample *)
  | Warmup  (** full timing model, excluded from the statistics *)
  | Warming  (** functional warming only *)

type record = {
  index : int;  (** interval index along the stream *)
  insns : int;
  cycles : int;  (** completion-frontier delta across the interval *)
  mode : mode;
}

let index_of ~interval pos = pos / interval

(* Detailed-interval selection is stratified: intervals are partitioned
   into consecutive groups (strata) of [detail_every] and exactly one
   interval per stratum is detailed.  The offset within each stratum
   follows the golden-ratio (Weyl) sequence frac((g+1) * phi): an
   irrational rotation equidistributes over the residues, so no periodic
   CPI structure can lock onto the sampler — a fixed stride (index mod
   detail_every = 0) meets a recursion whose CPI repeats every
   [detail_every] intervals in the same phase forever, and even random
   offsets cover a short stream's phases less evenly (O(1/sqrt n)
   discrepancy vs O(1/n) for the Weyl sequence).  The offset is a pure
   function of the stratum index, so the schedule is deterministic and
   the engine, tests, and reports agree on the partition. *)
let golden = 0.618033988749894848

let stratum_offset ~detail_every group =
  let frac = Float.rem (float_of_int (group + 1) *. golden) 1.0 in
  int_of_float (frac *. float_of_int detail_every)

let detailed ~detail_every index =
  detail_every = 1
  || index mod detail_every = stratum_offset ~detail_every (index / detail_every)

(* Position [pos] is in the warmup window when the *next* interval is
   detailed and pos lies within [warmup] instructions of its start.
   Interval 0 is always [Warmup]: it holds the measured region's
   cold-start transient (caches and queues filling), so it is simulated in
   detail and counted exactly but must not contribute a CPI sample — a
   systematic sample including it would weight the transient by
   [detail_every] instead of once.  A warming interval that precedes a
   detailed one splits at [iend - warmup]; every other interval is one
   segment. *)
let segment ~interval ~detail_every ~warmup pos =
  let idx = index_of ~interval pos in
  let iend = (idx + 1) * interval in
  if idx = 0 then (Warmup, iend)
  else if detailed ~detail_every idx then (Detailed, iend)
  else if detailed ~detail_every (idx + 1) then
    if pos >= iend - warmup then (Warmup, iend) else (Warming, iend - warmup)
  else (Warming, iend)

let mode_of ~interval ~detail_every ~warmup pos =
  fst (segment ~interval ~detail_every ~warmup pos)

let mode_name = function
  | Detailed -> "detailed"
  | Warmup -> "warmup"
  | Warming -> "warming"
