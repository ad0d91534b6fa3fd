type core_model =
  | Inorder of Uarch.Inorder.config
  | Ooo of Uarch.Ooo.config

type t = {
  name : string;
  description : string;
  cores : int;
  core : core_model;
  l1i : Cache.config;
  l1d : Cache.config;
  l2 : Cache.config;
  llc : Cache.config option;
  bus : Interconnect.Bus.config;
  dram : Dram.config;
  dtlb : Tlb.config;
  itlb : Tlb.config;
  mpi_latency_us : float;
}

let freq_hz t =
  match t.core with
  | Inorder c -> c.Uarch.Inorder.freq_hz
  | Ooo c -> c.Uarch.Ooo.freq_hz

let core_name t =
  match t.core with
  | Inorder c -> c.Uarch.Inorder.name
  | Ooo c -> c.Uarch.Ooo.name

let with_freq t hz =
  let core =
    match t.core with
    | Inorder c -> Inorder { c with Uarch.Inorder.freq_hz = hz }
    | Ooo c -> Ooo { c with Uarch.Ooo.freq_hz = hz }
  in
  { t with core }

let with_cores t n =
  if n <= 0 then invalid_arg "Config.with_cores";
  { t with cores = n }

let pp_summary ppf t =
  let ghz = freq_hz t /. 1e9 in
  Format.fprintf ppf "@[<v>%s: %d x %s @ %.1f GHz@,L1I %dKiB / L1D %dKiB / L2 %dKiB%s@,bus %d-bit, %s@]"
    t.name t.cores (core_name t) ghz
    (Cache.size_bytes t.l1i / 1024)
    (Cache.size_bytes t.l1d / 1024)
    (Cache.size_bytes t.l2 / 1024)
    (match t.llc with
    | None -> ""
    | Some llc -> Printf.sprintf " / LLC %dMiB" (Cache.size_bytes llc / 1024 / 1024))
    t.bus.Interconnect.Bus.width_bits t.dram.Dram.name
