(* Mutex + condition variable; both are stdlib and work across threads
   and domains alike. *)

type 'a t = {
  mutex : Mutex.t;
  nonempty : Condition.t;
  items : 'a Queue.t;
  mutable is_closed : bool;
}

let create () =
  {
    mutex = Mutex.create ();
    nonempty = Condition.create ();
    items = Queue.create ();
    is_closed = false;
  }

let push t x =
  Mutex.protect t.mutex (fun () ->
      if t.is_closed then false
      else begin
        Queue.push x t.items;
        Condition.signal t.nonempty;
        true
      end)

let pop t =
  Mutex.protect t.mutex (fun () ->
      while Queue.is_empty t.items && not t.is_closed do
        Condition.wait t.nonempty t.mutex
      done;
      Queue.take_opt t.items)

let close t =
  Mutex.protect t.mutex (fun () ->
      t.is_closed <- true;
      Condition.broadcast t.nonempty)
