type t = Isa.Insn.t Seq.t

let empty = Seq.empty
let of_list = List.to_seq
let append = Seq.append

(* The combinators below are flat walkers: they hold on to the *current*
   sub-sequence's tail plus the iteration state, so stepping one element
   is O(1).  The naive [Seq.append]-based versions built a left-leaning
   append spine that was re-walked on every element, making [repeat] —
   the backbone of every kernel loop — quadratic in the element count. *)

let concat ts =
  let rec start ts () =
    match ts with
    | [] -> Seq.Nil
    | s :: rest -> walk rest s ()
  and walk rest cur () =
    match cur () with
    | Seq.Cons (x, tl) -> Seq.Cons (x, walk rest tl)
    | Seq.Nil -> start rest ()
  in
  start ts

let repeat n s =
  if n <= 0 then Seq.empty
  else
    let rec walk i cur () =
      match cur () with
      | Seq.Cons (x, tl) -> Seq.Cons (x, walk i tl)
      | Seq.Nil -> if i + 1 >= n then Seq.Nil else walk (i + 1) s ()
    in
    walk 0 s

let iterate n f =
  if n <= 0 then Seq.empty
  else
    let rec start i () = if i >= n then Seq.Nil else walk i (f i) ()
    and walk i cur () =
      match cur () with
      | Seq.Cons (x, tl) -> Seq.Cons (x, walk i tl)
      | Seq.Nil -> start (i + 1) ()
    in
    start 0

let bursts ?(latch = fun _ -> []) n f =
  let rec start i () = if i >= n then Seq.Nil else walk i (f i) ()
  and walk i burst () =
    match burst with
    | x :: tl -> Seq.Cons (x, walk i tl)
    | [] -> close i (latch i) ()
  and close i burst () =
    match burst with
    | x :: tl -> Seq.Cons (x, close i tl)
    | [] -> start (i + 1) ()
  in
  start 0

let unfold init step =
  let rec start state () =
    match step state with
    | None -> Seq.Nil
    | Some (burst, state') -> walk state' burst ()
  and walk state burst () =
    match burst with
    | [] -> start state ()
    | x :: tl -> Seq.Cons (x, walk state tl)
  in
  start init

let length s = Seq.fold_left (fun n _ -> n + 1) 0 s
let take = Seq.take
let count_kind p s = Seq.fold_left (fun n (i : Isa.Insn.t) -> if p i.kind then n + 1 else n) 0 s
