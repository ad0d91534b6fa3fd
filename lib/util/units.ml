let ghz f = f *. 1e9

let ns_to_cycles ~freq_hz ns =
  if ns <= 0.0 then 0
  else
    let c = int_of_float (Float.ceil (ns *. 1e-9 *. freq_hz)) in
    max 1 c

let cycles_to_ns ~freq_hz c = float_of_int c /. freq_hz *. 1e9
let cycles_to_seconds ~freq_hz c = float_of_int c /. freq_hz

let rescale_cycles ~from_hz ~to_hz c =
  if c <= 0 then 0
  else
    let seconds = float_of_int c /. from_hz in
    max 1 (int_of_float (Float.ceil (seconds *. to_hz)))

let bytes_per_cycle ~bandwidth_bytes_per_s ~freq_hz = bandwidth_bytes_per_s /. freq_hz
