type t = {
  load : cycle:int -> addr:int -> int;
  store : cycle:int -> addr:int -> int;
  ifetch : cycle:int -> pc:int -> int;
  warm_load : addr:int -> unit;
  warm_store : addr:int -> unit;
  warm_ifetch : pc:int -> unit;
}

let ideal ~latency =
  {
    load = (fun ~cycle ~addr:_ -> cycle + latency);
    store = (fun ~cycle ~addr:_ -> cycle + latency);
    ifetch = (fun ~cycle ~pc:_ -> cycle + latency);
    warm_load = (fun ~addr:_ -> ());
    warm_store = (fun ~addr:_ -> ());
    warm_ifetch = (fun ~pc:_ -> ());
  }
