(** Model-layer lint rules (the ARC-M and ARC-F families).

    The rules run over the raw records of {!Core.Xml_io.read}, an
    unvalidated mirror of {!Core.Model} with source positions, so that
    every mistake the validating constructors would throw on is instead
    reported statically, with a source position, and several independent
    mistakes surface in one pass. [read]'s own schema errors become
    [ARC-X001] in {!Lint.lint_source}.

    Rule catalogue:
    - [ARC-M001] (error): reference to an unknown component or failure mode
      (from repair units, spare units or the fault tree).
    - [ARC-M002] (error): duplicate component name.
    - [ARC-M003] (error): a component repaired by more than one repair unit.
    - [ARC-M004] (warning): component never referenced by the fault tree or
      a spare unit.
    - [ARC-M005] (warning): the model has repair units, but this component
      is covered by none — once failed it stays failed.
    - [ARC-M006] (warning): dedicated strategy with an explicit crew count
      it ignores.
    - [ARC-M007] (error/warning): non-positive crew count, empty repair
      unit, or more crews than components.
    - [ARC-M008] (error): non-positive or non-finite MTTF/MTTR.
    - [ARC-M009] (warning): MTTR not below MTTF — likely swapped means.
    - [ARC-M010] (error/warning): degenerate Erlang repair-stage count.
    - [ARC-M011] (error): priority list does not match the unit's
      components (unknown names, omissions, duplicates).
    - [ARC-M012] (error): spare-unit structure (no primaries,
      primary/spare overlap, a component in two spare units, warm factor
      outside (0, 1)).
    - [ARC-M013] (error): a negative or non-finite cost rate, or an empty
      name, one per attribute.
    - [ARC-F001] (warning): no-op gate (single-input and/or, 1-of-n,
      n-of-n).
    - [ARC-F002] (warning): structurally duplicate gate inputs.
    - [ARC-F003] (warning): gate input that never determines the top event
      (minimal cut sets unchanged without it).
    - [ARC-F004] (error): malformed gate (no inputs, k outside 1..n). *)

val check : Core.Xml_io.raw -> Diagnostic.t list
(** Run all model-layer rules. *)
