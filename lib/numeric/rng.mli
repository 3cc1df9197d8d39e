(** Deterministic pseudo-random numbers for the CTMC simulator.

    A self-contained xoshiro256++ generator (seeded through splitmix64) so
    simulation runs are reproducible independently of the OCaml stdlib's
    [Random] state and version. *)

type t

val create : int64 -> t
(** [create seed] builds a generator from a 64-bit seed. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** Uniform in [[0, 1)]. 53-bit resolution. *)

val int : t -> int -> int
(** [int t n] is uniform in [[0, n-1]]; [n] must be positive. Exactly
    uniform for every [n] (masked rejection sampling over raw bits, no
    float scaling and hence no modulo or rounding bias). *)

val exponential : t -> rate:float -> float
(** Exponentially distributed sample with the given positive [rate]. *)

val choose_weighted : t -> float array -> int
(** [choose_weighted t ws] samples an index with probability proportional to
    the non-negative weights [ws]; the weights must not all be zero. *)
