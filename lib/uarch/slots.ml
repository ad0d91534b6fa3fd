type t = { width : int; mutable cycle : int; mutable used : int }

let create ~width =
  if width <= 0 then invalid_arg "Slots.create: width";
  { width; cycle = -1; used = 0 }

let[@inline] alloc t earliest =
  if earliest > t.cycle then begin
    t.cycle <- earliest;
    t.used <- 1;
    t.cycle
  end
  else if t.used < t.width then begin
    t.used <- t.used + 1;
    t.cycle
  end
  else begin
    t.cycle <- t.cycle + 1;
    t.used <- 1;
    t.cycle
  end

let[@inline] advance t c =
  if c > t.cycle then begin
    t.cycle <- c;
    t.used <- 0
  end

let reset t =
  t.cycle <- -1;
  t.used <- 0
