(** The transcribed paper expectations: [results/paper-expectations.json].

    The golden CSVs pin our regenerated figures bit-for-bit; the
    expectations file pins them to the {e paper}.  Each figure carries

    - {b bands}: per-cell (or per-row/per-series) relative-speedup ranges
      transcribed from the paper's reported numbers ("MM at ~35-37% of
      Banana Pi"), and
    - {b shapes}: qualitative assertions the paper's narrative makes —
      category-level under/over-performance, ordering constraints
      ("Large BOOM tracks MILK-V best"), scaling directions.

    Every entry carries a [provenance] string naming the paper section or
    figure it was transcribed from (plus the EXPERIMENTS.md deviation
    note where our reproduction is known to differ), so golden churn and
    band edits stay reviewable. *)

type band = {
  bx : string option;  (** row (x label); [None] = every row *)
  bseries : string option;  (** series label; [None] = every series *)
  blo : float;
  bhi : float;
  bprov : string;  (** paper section / figure this range came from *)
}

type shape =
  | All_below of {
      series : string list;
      threshold : float;
      except : string list;  (** rows allowed to exceed the threshold *)
    }
      (** Every listed series stays below [threshold] on every row not in
          [except] (e.g. "the Rocket model underachieves everywhere
          except the conflict-miss cache kernels"). *)
  | Category_geomean of {
      series : string;
      category : string;  (** Table 1 category name, e.g. ["Control Flow"] *)
      glo : float;
      ghi : float;
    }
      (** The geomean of the series over that MicroBench category lands
          in [glo, ghi] (the paper reports category-level verdicts). *)
  | Series_leq of {
      lo_series : string;
      hi_series : string;
      tol : float;  (** slack: geomean(lo) <= geomean(hi) * (1 + tol) *)
    }
      (** Ordering over whole-series geomeans (e.g. fidelity improves
          Small -> Medium -> Large BOOM). *)
  | Closest_to_hw of {
      winner : string;
      rivals : string list;
    }
      (** [winner]'s mean |ln(rel)| distance from 1.0 (hardware parity)
          is strictly smallest ("Large BOOM tracks MILK-V best"). *)

type shape_spec = { shape : shape; sprov : string }

type fig_expect = {
  fig_id : string;
  golden : string;  (** golden CSV filename, relative to the results dir *)
  fig_band : float option;  (** per-figure verdict band override *)
  bands : band list;
  shapes : shape_spec list;
}

type t = {
  version : int;
  default_band : float;  (** relative band for cell verdicts (e.g. 0.02) *)
  figures : fig_expect list;
}

val of_json : Util.Jsonx.t -> (t, string) result
val load : string -> (t, string) result

val find : t -> string -> fig_expect option
(** Expectations for one figure id; [None] means golden-only checking. *)

val golden_file : t -> string -> string
(** The golden CSV filename for a figure id (["<id>.csv"] when the
    figure has no expectations entry or no explicit [golden] field). *)

val cell_band : t -> fig_expect option -> float
(** The verdict band in effect: figure override or the global default. *)

val describe_shape : shape -> string
(** Compact human/JSON label, e.g. ["closest-to-hw: boom-large vs
    boom-small, boom-medium"]. *)
