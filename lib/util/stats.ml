let check_nonempty name xs =
  if Array.length xs = 0 then invalid_arg (name ^ ": empty sample")

let sum xs =
  (* Kahan compensation: simulations aggregate millions of cycle terms. *)
  let s = ref 0.0 and c = ref 0.0 in
  Array.iter
    (fun x ->
      let y = x -. !c in
      let t = !s +. y in
      c := t -. !s -. y;
      s := t)
    xs;
  !s

let mean xs =
  check_nonempty "Stats.mean" xs;
  sum xs /. float_of_int (Array.length xs)

let geomean xs =
  check_nonempty "Stats.geomean" xs;
  let logs =
    Array.map
      (fun x ->
        if x <= 0.0 then invalid_arg "Stats.geomean: nonpositive sample";
        log x)
      xs
  in
  exp (mean logs)

let stddev xs =
  check_nonempty "Stats.stddev" xs;
  let m = mean xs in
  let acc = Array.fold_left (fun a x -> a +. ((x -. m) ** 2.0)) 0.0 xs in
  sqrt (acc /. float_of_int (Array.length xs))

let sorted xs =
  let ys = Array.copy xs in
  Array.sort compare ys;
  ys

let percentile xs p =
  check_nonempty "Stats.percentile" xs;
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let ys = sorted xs in
  let n = Array.length ys in
  if n = 1 then ys.(0)
  else
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    ys.(lo) +. (frac *. (ys.(hi) -. ys.(lo)))

let median xs = percentile xs 50.0

let min_max xs =
  check_nonempty "Stats.min_max" xs;
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (xs.(0), xs.(0))
    xs

let harmonic_mean xs =
  check_nonempty "Stats.harmonic_mean" xs;
  let acc =
    Array.fold_left
      (fun a x ->
        if x = 0.0 then invalid_arg "Stats.harmonic_mean: zero sample";
        a +. (1.0 /. x))
      0.0 xs
  in
  float_of_int (Array.length xs) /. acc
