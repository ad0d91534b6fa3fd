type t = {
  load : cycle:int -> addr:int -> int;
  store : cycle:int -> addr:int -> int;
  ifetch : cycle:int -> pc:int -> int;
}

let ideal ~latency =
  {
    load = (fun ~cycle ~addr:_ -> cycle + latency);
    store = (fun ~cycle ~addr:_ -> cycle + latency);
    ifetch = (fun ~cycle ~pc:_ -> cycle + latency);
  }
