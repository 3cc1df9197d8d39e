module D = Diagnostic
module Ast = Csl.Ast

(* ------------------------------------------------------------------ *)
(* Query-layer rules: a static CSL/CSRL checker. The contract is that any
   formula this pass accepts will not raise Csl.Checker.Unsupported when
   evaluated through Core.Measures.to_csl_model — every Unsupported site in
   Csl.Checker (unknown label, unresolvable atomic, nested =?, unknown
   reward) has a rule here, checked against the model's actual label and
   reward sets without ever building the state space. *)

type atomics = ANone | AVars of string list | AAll

type context = {
  model_name : string;
  labels : string list;
  any_sl : bool;
      (** accept any [sl_ge_<digits>] label without enumerating levels *)
  rewards : string option list;
  atomics : atomics;
  multiple_bsccs : bool;
}

(* service-level enumeration walks the tree's satisfying assignments;
   skip it for big trees *)
let levels_of_model (model : Core.Model.t) =
  if List.length (Fault_tree.basics model.Core.Model.fault_tree) > 20 then None
  else Some (Core.Model.service_levels model)

(* The names Core.Measures.to_csl_model defines, from Core.Measures
   itself. Its CSL model goes through Csl.Checker.of_chain, whose atomic
   resolver is the constant None — so every Atomic expression is
   statically an error (ARC-Q006). *)
let context_of_model ?(multiple_bsccs = false) ?levels (model : Core.Model.t) =
  let levels = match levels with Some l -> l | None -> levels_of_model model in
  let component_labels =
    List.concat_map
      (fun c -> List.map fst (Core.Measures.component_labels c))
      model.Core.Model.components
  in
  (* without the levels, any sl_ge_<digits> is accepted *)
  let level_labels =
    match levels with
    | None -> []
    | Some l -> List.mapi (fun i _ -> Core.Measures.level_label i) l
  in
  {
    model_name = model.Core.Model.name;
    labels = Core.Measures.tree_labels @ level_labels @ component_labels;
    any_sl = levels = None;
    rewards = List.map Option.some Core.Measures.reward_names;
    atomics = ANone;
    multiple_bsccs;
  }

let is_sl_label name =
  String.length name > 6
  && String.sub name 0 6 = "sl_ge_"
  && String.for_all
       (fun c -> c >= '0' && c <= '9')
       (String.sub name 6 (String.length name - 6))

let check_ast ?position ctx ~subject formula =
  let out = ref [] in
  let push ?hint ~code ~severity fmt =
    Printf.ksprintf
      (fun message ->
        out := D.make ?hint ?position ~code ~severity ~subject "%s" message :: !out)
      fmt
  in
  let bad_time t = t < 0. || not (Float.is_finite t) in
  let check_interval = function
    | Ast.Unbounded -> ()
    | Ast.Upto t ->
        if bad_time t then
          push ~code:"ARC-Q005" ~severity:D.Error
            "time bound <= %g is not a non-negative finite time" t
    | Ast.Within (a, b) ->
        if bad_time a || not (Float.is_finite b) then
          push ~code:"ARC-Q005" ~severity:D.Error
            "time interval [%g, %g] is not within [0, oo)" a b
        else if b < a then
          push ~code:"ARC-Q005" ~severity:D.Error
            "time interval [%g, %g] is inverted" a b
  in
  let check_prob_bound = function
    | Ast.Query -> ()
    | Ast.Bounded (cmp, p) ->
        if p < 0. || p > 1. || not (Float.is_finite p) then
          push ~code:"ARC-Q008" ~severity:D.Warning
            "probability bound %g is outside [0, 1]" p
        else if (cmp = Ast.Ge && p = 0.) || (cmp = Ast.Le && p = 1.) then
          push ~code:"ARC-Q008" ~severity:D.Warning
            "probability bound is trivially true (%s %g holds for every \
             probability)"
            (match cmp with Ast.Ge -> ">=" | _ -> "<=")
            p
        else if (cmp = Ast.Lt && p = 0.) || (cmp = Ast.Gt && p = 1.) then
          push ~code:"ARC-Q008" ~severity:D.Warning
            "probability bound is trivially false (no probability is %s %g)"
            (match cmp with Ast.Lt -> "<" | _ -> ">")
            p
  in
  let steady_warning kind =
    if ctx.multiple_bsccs then
      push ~code:"ARC-Q007" ~severity:D.Warning
        ~hint:
          "the chain has several recurrent classes (see ARC-C002); the \
           result is a weighted mix over classes reachable from the \
           initial state"
        "%s on a chain whose long-run behaviour depends on the initial state"
        kind
  in
  let rec state ~top formula =
    match formula with
    | Ast.True | Ast.False -> ()
    | Ast.Label name ->
        if
          not
            (List.mem name ctx.labels || (ctx.any_sl && is_sl_label name))
        then
          push ~code:"ARC-Q002" ~severity:D.Error
            ?hint:(D.did_you_mean name ctx.labels)
            "unknown label %S (model %s defines: %s)" name ctx.model_name
            (String.concat ", "
               (List.filteri (fun i _ -> i < 6) ctx.labels)
            ^ if List.length ctx.labels > 6 then ", ..." else "")
    | Ast.Atomic expr -> (
        match ctx.atomics with
        | AAll -> ()
        | ANone ->
            push ~code:"ARC-Q006" ~severity:D.Error
              ~hint:"use a quoted label instead, e.g. \"down\""
              "atomic expression %s cannot be resolved against an Arcade \
               model (only labels are available)"
              (Prism.Printer.expr_to_string expr)
        | AVars vars ->
            List.iter
              (fun v ->
                if not (List.mem v vars) then
                  push ~code:"ARC-Q006" ~severity:D.Error
                    ?hint:(D.did_you_mean v vars)
                    "atomic expression references unknown state variable %s" v)
              (Prism.Ast.expr_vars expr))
    | Ast.Not f -> state ~top:false f
    | Ast.And (a, b) | Ast.Or (a, b) | Ast.Implies (a, b) ->
        state ~top:false a;
        state ~top:false b
    | Ast.P (bound, path_f) ->
        nested_query ~top bound "P";
        check_prob_bound bound;
        path path_f
    | Ast.S (bound, f) ->
        nested_query ~top bound "S";
        check_prob_bound bound;
        steady_warning "a steady-state (S) query";
        state ~top:false f
    | Ast.R (name, bound, query) ->
        nested_query ~top bound "R";
        (match bound with
        | Ast.Bounded (_, v) when not (Float.is_finite v) ->
            push ~code:"ARC-Q005" ~severity:D.Error
              "reward bound %g is not finite" v
        | _ -> ());
        if not (List.mem name ctx.rewards) then
          push ~code:"ARC-Q003" ~severity:D.Error
            ?hint:
              (D.did_you_mean
                 (Option.value name ~default:"")
                 (List.filter_map Fun.id ctx.rewards))
            "unknown reward structure %s (model %s defines: %s)"
            (match name with None -> "(unnamed)" | Some n -> Printf.sprintf "%S" n)
            ctx.model_name
            (String.concat ", " (List.filter_map Fun.id ctx.rewards));
        (match query with
        | Ast.Instantaneous t ->
            if bad_time t then
              push ~code:"ARC-Q005" ~severity:D.Error
                "instantaneous reward time %g is not a non-negative finite \
                 time"
                t
        | Ast.Cumulative t ->
            if bad_time t then
              push ~code:"ARC-Q005" ~severity:D.Error
                "cumulative reward horizon %g is not a non-negative finite \
                 time"
                t
        | Ast.Steady -> steady_warning "a long-run reward (R[S]) query")
  and nested_query ~top bound op =
    if (not top) && bound = Ast.Query then
      push ~code:"ARC-Q004" ~severity:D.Error
        "%s=? cannot be nested inside a state formula" op
        ~hint:"give the inner operator an explicit bound, e.g. P>=0.99 [...]"
  and path = function
    | Ast.Next (i, f) | Ast.Eventually (i, f) | Ast.Globally (i, f) ->
        check_interval i;
        state ~top:false f
    | Ast.Until (a, i, b) ->
        check_interval i;
        state ~top:false a;
        state ~top:false b
  in
  state ~top:true formula;
  List.rev !out

let check_string ?position ctx ~subject input =
  match Csl.Parser.parse input with
  | ast -> check_ast ?position ctx ~subject ast
  | exception Csl.Parser.Syntax_error { line; column; message; _ } ->
      [
        D.make ?position ~code:"ARC-Q001" ~severity:D.Error ~subject
          "syntax error at %d:%d in query: %s" line column message;
      ]
