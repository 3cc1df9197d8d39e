(** Dense vectors of floats.

    Thin helpers over [float array] used throughout the CTMC engine. All
    operations are written for clarity first; the hot paths (dot products,
    AXPY) are simple loops the compiler unboxes well. *)

type t = float array

val create : int -> float -> t
(** [create n x] is a vector of length [n] filled with [x]. *)

val zeros : int -> t
(** [zeros n] is [create n 0.]. *)

val unit : int -> int -> t
(** [unit n i] is the [i]-th canonical basis vector of length [n]. *)

val copy : t -> t

val dim : t -> int

val fill : t -> float -> unit

val blit : src:t -> dst:t -> unit
(** Copy [src] into [dst]; the two must have equal length. *)

val dot : t -> t -> float
(** Inner product. Raises [Invalid_argument] on dimension mismatch. *)

val sum : t -> float

val axpy : float -> t -> t -> unit
(** [axpy a x y] updates [y <- a*x + y]. *)

val add : t -> t -> t

val normalize_l1 : t -> unit
(** Scale in place so entries sum to 1. Raises [Invalid_argument] if the sum
    is not strictly positive. *)

val linf_distance : t -> t -> float
(** Max-norm distance between two vectors of equal length. *)

val max_entry : t -> float

val is_distribution : ?eps:float -> t -> bool
(** True when all entries are non-negative and sum to 1 within [eps]
    (default [1e-9]). *)
