(** Interning of fixed-width integer keys.

    Assigns dense ids [0, 1, 2, ...] to distinct keys in first-seen order.
    Every key is [width] ints read from a caller-owned buffer at an
    offset, and is copied into one flat int arena on insertion, so a
    lookup or an insertion allocates nothing (except when the table
    grows). The table is open-addressing with linear probing over ids and
    stores each key's full hash, compared before the key itself. State-space
    builders use it to number packed state vectors. *)

type t

val create : ?hash:(int array -> int -> int) -> width:int -> unit -> t
(** [create ~width ()] is an empty table for keys of [width] ints
    ([width >= 0]), sized for 1024 keys and doubled as needed.
    [hash key off] replaces the built-in hash of the key starting at
    [off]; it must be a function of those [width] ints only (meant for
    testing probe sequences with forced collisions). Raises
    [Invalid_argument] on a negative width. *)

val width : t -> int

val count : t -> int
(** Number of distinct keys interned so far; ids are [0 .. count - 1]. *)

val intern : t -> int array -> int -> int
(** [intern t buf off] is the id of the key [buf.(off) .. buf.(off + width
    - 1)], inserting it (with id [count t]) when absent. Raises
    [Invalid_argument] when the key does not fit in [buf]. *)

val find : t -> int array -> int -> int
(** Like {!intern} but never inserts: [-1] when the key is absent. *)

val get : t -> int -> int -> int
(** [get t id f] is word [f] of key [id]. Raises [Invalid_argument] out of
    range. *)

val blit : t -> int -> int array -> int -> unit
(** [blit t id dst off] copies key [id] into [dst] at [off]. *)

val key : t -> int -> int array
(** A fresh copy of key [id]. *)
