(** Ablation studies beyond the paper's evaluation.

    Each generator returns an {!Experiments.table} in the same rendering
    pipeline as the paper artifacts:

    - {!crew_sweep}: availability and expected time to first degradation as
      the crew count grows — where does adding crews stop paying?
    - {!strategy_matrix}: the paper's strategies plus FCFS and the
      preemptive variants, on one line;
    - {!lumping_table}: state-space reduction achieved by strong
      bisimulation lumping on the dedicated chains (the paper's future-work
      minimization);
    - {!importance_table}: component importance indices (Birnbaum,
      improvement potential, risk achievement worth, Fussell–Vesely) for a
      line — which physical component deserves the maintenance budget. *)

val crew_sweep : ?max_crews:int -> Facility.line -> Experiments.table

val strategy_matrix : Facility.line -> Experiments.table

val lumping_table : unit -> Experiments.table

val importance_table : Facility.line -> Experiments.table

val erlang_repair_table : ?levels:int list -> unit -> Experiments.table
(** Replace the case study's exponential repairs with Erlang-k repairs of
    the same mean (Line 2, FRF-1, Disaster 1). Under {e dedicated} repair
    the availability would be provably invariant (alternating renewal is
    mean-only); under the shared FRF queue it shifts slightly (queueing
    delays feel the distribution), while the recovery probabilities shift
    markedly — low-variance repairs finish later but more surely. *)

val ids : string list

val by_id : string -> (unit -> Experiments.artifact) option
