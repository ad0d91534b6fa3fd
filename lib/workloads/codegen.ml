type t = {
  name : string;
  overhead : float;
  unroll : int;
  vector_width : float;
}

let gcc_13_2 = { name = "gcc-13.2"; overhead = 1.0; unroll = 4; vector_width = 4.0 }
let gcc_9_4 = { name = "gcc-9.4"; overhead = 1.08; unroll = 2; vector_width = 1.0 }
let default = gcc_13_2

let vector_ops t n = max 1 (int_of_float (Float.ceil (float_of_int n /. t.vector_width)))

let ops_at t ~index ~base =
  let target = float_of_int base *. t.overhead in
  let upto i = int_of_float (Float.floor (float_of_int i *. target)) in
  upto (index + 1) - upto index
