(** Pretty-printing of PRISM models.

    Emits standard PRISM syntax, so the generated text can be loaded by the
    real PRISM tool as well as by {!Parser}. [Parser.parse_model] composed
    with {!model_to_string} is the identity on ASTs (up to formatting). *)

val expr_to_string : Ast.expr -> string

val model_to_string : Ast.model -> string
