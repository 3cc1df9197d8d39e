(** The paper's water-treatment facility (Section 4).

    Two independent process lines:

    - {e Line 1}: 3 softening tanks, 3 sand filters, 1 reservoir, 4 pumps
      (3 + 1 spare);
    - {e Line 2}: 3 softening tanks, 2 sand filters, 1 reservoir, 3 pumps
      (2 + 1 spare).

    Component rates (validated against the paper's Table 2, see
    EXPERIMENTS.md): softening tank MTTF 2000 h / MTTR 5 h; sand filter
    1000 h / 100 h; reservoir 6000 h / 12 h; pump 500 h / 1 h.

    A line is down when all softening tanks are down, or all sand filters
    are down, or the reservoir is down, or fewer pumps than needed
    (3 resp. 2) are up. The spare pump is hot: it can fail at any time and
    merely adds redundancy (hence, as the paper notes, it creates no extra
    service intervals). *)

type line = Line1 | Line2

val line_name : line -> string

(** A repair organisation for one line: one of the paper's strategies with
    a crew count, always with the paper's cost rates (idle crew 1/h, busy
    crew 0/h, failed component 3/h). *)
type config = {
  strategy : Core.Repair.strategy;
  crews : int;
}

val ded : config
val frf : int -> config
val fff : int -> config
val config_name : config -> string
(** "DED", "FRF-1", "FFF-2", ... *)

val paper_configs : config list
(** The five configurations of Tables 1 and 2: DED, FRF-1, FRF-2, FFF-1,
    FFF-2. *)

val mttf : string -> float
(** MTTF by component-kind prefix ("st", "sf", "res", "pump"); raises
    [Invalid_argument] on other names. *)

val mttr : string -> float

val line_model : line -> config -> Core.Model.t
(** The full repairable model of one line. *)

val reliability_model : line -> Core.Model.t
(** The repair-free variant used for Fig. 3. *)

val disaster1 : line -> string list
(** Disaster 1: all pumps of the line fail. *)

val disaster2 : string list
(** Disaster 2 (defined on Line 2): two pumps, one softener, one sand
    filter and the reservoir fail. *)

val service_intervals : line -> (float * float) list
(** The paper's service intervals as [(low, high)] pairs of consecutive
    positive service levels: Line 1 yields X1 = (1/3, 2/3), X2 = (2/3, 1),
    X3 = (1, 1); Line 2 adds the 1/2 level. The survivability of interval
    [Xi] is the probability of reaching service >= low. *)

val analyze : ?initial:Core.Semantics.state -> line -> config -> Core.Measures.t
(** Build and wrap a line's chain for measure evaluation. *)

val after_disaster : Core.Measures.t -> failed:string list -> Core.Measures.t
(** [after_disaster m ~failed] is the GOOD model over [m]'s chain: the
    same state space and analysis caches ({!Core.Measures.rooted}), started
    in the disaster state ({!Core.Semantics.disaster_state}) of [m]'s
    model. For the facility lines every disaster state is reachable from
    all-up, so the view has the state count a build from the disaster
    would have. Raises [Invalid_argument] when the disaster state is not
    in [m]'s chain. *)

val analyze_after_disaster : line -> config -> failed:string list -> Core.Measures.t
(** GOOD model: same chain rooted at the disaster state —
    [after_disaster (analyze line config) ~failed]. *)
