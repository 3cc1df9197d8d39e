(** Arcade spare management units.

    A spare management unit (SMU) watches a group of components: the
    [primaries] should be running; the [spares] are activated (in list
    order) whenever fewer than [List.length primaries] group members are
    operational. Dormant (deactivated) spares fail at a reduced rate
    depending on the spare mode:

    - {e Hot}: full failure rate even when dormant (the water-treatment
      pumps: the "+1" pump adds plain redundancy);
    - {e Warm f}: failure rate scaled by the dormancy factor [f] in (0, 1);
    - {e Cold}: cannot fail while dormant.

    Activation and deactivation are instantaneous and deterministic
    (primaries first, then spares in order), so the SMU adds no state of
    its own — it only modulates failure rates. *)

type mode = Hot | Warm of float | Cold

type t = private {
  name : string;
  primaries : string list;
  spares : string list;
  mode : mode;
}

val make :
  name:string -> mode:mode -> primaries:string list -> spares:string list -> unit -> t
(** Raises [Invalid_argument] on empty name, empty primaries, overlap
    between primaries and spares, or a warm factor outside (0, 1) (NaN
    included). *)

val members : t -> string list
(** Primaries followed by spares. *)

val dormancy_factor : t -> float
(** 1 for hot, the factor for warm, 0 for cold. *)

val mode_to_string : mode -> string

val mode_of_string : string -> mode
