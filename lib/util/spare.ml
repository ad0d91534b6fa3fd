type ('k, 'a) t = { lock : Mutex.t; mutable items : ('k * 'a) list }

let create () = { lock = Mutex.create (); items = [] }
let put t key x = Mutex.protect t.lock (fun () -> t.items <- (key, x) :: t.items)
let words t = Mutex.protect t.lock (fun () -> Obj.reachable_words (Obj.repr t.items))

let take t key =
  Mutex.protect t.lock (fun () ->
      let rec go seen = function
        | [] -> None
        | (k, x) :: rest when k = key ->
          t.items <- List.rev_append seen rest;
          Some x
        | item :: rest -> go (item :: seen) rest
      in
      go [] t.items)
