(* The values, read from [head] onwards and wrapping at the end of the
   array, are in ascending order. *)
type t = { a : int array; mutable head : int }

let create n =
  if n <= 0 then invalid_arg "Ring.create: size must be positive";
  { a = Array.make n 0; head = 0 }

let reset t =
  Array.fill t.a 0 (Array.length t.a) 0;
  t.head <- 0

let[@inline] min t = Array.unsafe_get t.a t.head

(* The minimum's slot becomes the tail, and [v] moves towards the head
   past every larger value. *)
let replace_min t v =
  let a = t.a in
  let n = Array.length a in
  let tail = t.head in
  let head = if tail + 1 = n then 0 else tail + 1 in
  t.head <- head;
  let j = ref tail in
  let moving = ref true in
  while !moving && !j <> head do
    let p = if !j = 0 then n - 1 else !j - 1 in
    let pv = Array.unsafe_get a p in
    if pv > v then begin
      Array.unsafe_set a !j pv;
      j := p
    end
    else moving := false
  done;
  Array.unsafe_set a !j v
