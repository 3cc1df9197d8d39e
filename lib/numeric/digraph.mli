(** Graph algorithms over the sparsity pattern of a square {!Sparse.t}:
    an edge [(i, j)] per stored entry, so a CTMC's rate matrix is its own
    transition graph. Strongly connected components (iterative Tarjan,
    safe on hundreds of thousands of vertices), bottom SCCs and
    reachability (coreachability: over the transpose). Non-square
    matrices raise [Invalid_argument]. *)

val sccs : Sparse.t -> int array * int array array
(** [sccs g] is [(comp, members)]: [comp.(v)] is the SCC index of [v] and
    [members.(c)] holds the vertices of SCC [c] in discovery order. SCC
    indices are a reverse topological order of the condensation: every
    edge between distinct SCCs [(c1, c2)] has [c1 > c2]. Roots are tried
    in increasing vertex order and each row's entries are walked from
    the last column to the first. *)

val bottom_sccs : Sparse.t -> int array * int array array -> int array array
(** [bottom_sccs g (sccs g)] is the SCCs with no edge leaving them (for
    a CTMC, the recurrent classes) in increasing SCC index, derived from
    the given decomposition without running Tarjan again. *)

val reachable : ?enter:(int -> bool) -> Sparse.t -> int list -> bool array
(** [reachable g seeds] marks every vertex reachable from [seeds] (the
    seeds included). With [enter], a non-seed vertex is marked (and
    expanded) only when [enter v] holds. *)
