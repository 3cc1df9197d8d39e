(** Chain-layer lint rules (ARC-C family): structural facts about the CTMC the
    model would generate, computed from per-component skeleton digraphs
    (sparsity patterns of a few dozen vertices, analysed with
    {!Numeric.Digraph}) instead of the product state space.

    Rule catalogue:
    - [ARC-C001] (info): the chain has absorbing failure configurations —
      some component is never repaired. Info, not warning: pure
      reliability models are a standard use and must stay quiet under
      [-Werror].
    - [ARC-C002] (warning): the chain has several recurrent classes (an
      unrepaired component with two or more failure modes), so
      steady-state measures depend on the initial state.
    - [ARC-C003] (warning): stiff chain — the positive-rate spread
      (fastest over slowest) reaches [1e6]. *)

val multiple_bsccs : Core.Xml_io.raw -> bool
(** Whether the product chain has more than one recurrent class (upper
    bound via the per-component skeleton product). Shared with the query
    layer (ARC-Q007). *)

val check : Core.Xml_io.raw -> Diagnostic.t list
