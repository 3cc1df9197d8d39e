(** Reproduction drivers for every table and figure of the paper's
    evaluation (Section 5).

    Each [table*] / [fig*] function regenerates the corresponding artifact:

    - {!table1}: state-space sizes per repair strategy,
    - {!table2}: steady-state availability per strategy (and combined),
    - {!fig3}: reliability over time for both lines (no repairs),
    - {!fig4} / {!fig5}: survivability, Line 1, Disaster 1, service
      intervals X1 / X2 (DED, FRF-1, FRF-2),
    - {!fig6} / {!fig7}: instantaneous / accumulated cost, Line 1,
      Disaster 1,
    - {!fig8} / {!fig9}: survivability, Line 2, Disaster 2, X1 / X3,
    - {!fig10} / {!fig11}: instantaneous / accumulated cost, Line 2,
      Disaster 2.

    Each (line, strategy) has one {!Core.Measures.Session}, kept in an
    internal cache and shared by every artifact. Tables 1 and 2 read only
    group-invariant quantities, so they run on its symmetric chain (the
    quotient under interchangeable components, 96–727 states per chain):
    Table 1 prints the full chain's size counted by orbits. The figures
    run on its full chain, which takes its transition count from the
    symmetric one when a table built that first; a disaster analysis is a view of that chain rooted at
    the disaster state ({!Facility.after_disaster}). Generating the full
    set costs one reduced construction per table chain, one full
    construction per (line, strategy) a figure uses, and one per
    reliability model.

    Figure series (one per repair configuration) and table rows are
    computed through {!Numeric.Parallel.map}: independent chains fan out
    over domains, with the width controlled by the [PAR_DOMAINS]
    environment variable (default
    [Domain.recommended_domain_count ()]; [PAR_DOMAINS=1] is fully
    sequential). The chain cache is one process-wide table behind a
    mutex, shared by every domain, so each chain is built once whichever
    domain first asks for it and whatever the domain count. The items of
    one map touch disjoint chains, so no session (which builds its chains
    on demand) and no {!Core.Measures.t} (which carries a mutable
    {!Ctmc.Analysis} session) is used by two domains at once. Results are deterministic and identical for any domain
    count. *)

type series = { label : string; points : (float * float) list }

type figure = {
  fig_id : string;
  title : string;
  xlabel : string;
  ylabel : string;
  series : series list;
}

type table = {
  table_id : string;
  title : string;
  header : string list;
  rows : string list list;
}

type artifact = Table of table | Figure of figure

val table1 : unit -> table

val table2 : unit -> table

val fig3 : ?points:int -> unit -> figure

val fig4 : ?points:int -> unit -> figure

val fig5 : ?points:int -> unit -> figure

val fig6 : ?points:int -> unit -> figure

val fig7 : ?points:int -> unit -> figure

val fig8 : ?points:int -> unit -> figure

val fig9 : ?points:int -> unit -> figure

val fig10 : ?points:int -> unit -> figure

val fig11 : ?points:int -> unit -> figure

val by_id : string -> (?points:int -> unit -> artifact) option
(** Look up an artifact generator by id ("table1", "fig7", ...). [points]
    is the number of curve samples per figure (default 25), both ends of
    the time axis included: every figure generator raises
    [Invalid_argument "Experiments.<id>: ..."] when it is below 2. *)

val ids : string list

val render_table : Format.formatter -> table -> unit
(** Aligned plain-text rendering. *)

val render_figure : Format.formatter -> figure -> unit
(** Data rows in gnuplot-style blocks (one block per series, blank-line
    separated) with header comments. *)

val render_artifact : Format.formatter -> artifact -> unit

val figure_to_csv : figure -> string
(** Wide CSV: one [time] column plus one column per series. *)

val artifact_points : artifact -> int
(** Total number of curve points across an artifact's series (0 for
    tables) — recorded next to the timings in the bench JSON. *)

val state_spaces : string -> (string * int) list
(** [state_spaces id] is the state-space size of every chain behind the
    artifact [id] (one [("line/config", states)] pair per chain), [[]] for
    unknown ids. Tables 1 and 2 run on symmetry-reduced chains, so theirs
    are the reduced sizes. Chains are taken from — or built into — the
    shared cache, so calling this right after generating [id] is free. *)

val clear_cache : unit -> unit
(** Drop every memoized chain and cost-curve pair (used by benchmarks to
    measure cold times). Call it between maps, not from inside one. *)
