module D = Diagnostic
open Core.Xml_io

(* Model-layer rules over the raw records Core.Xml_io.read returns, so that
   every mistake Core.Model.make would throw on is instead reported
   statically, with a source position, and several independent mistakes
   surface in one pass. *)

let diag ?hint ?position ~code ~severity ~subject fmt =
  D.make ?hint ?position ~code ~severity ~subject fmt

let split_literal b =
  match String.index_opt b ':' with
  | None -> (b, None)
  | Some i -> (String.sub b 0 i, Some (String.sub b (i + 1) (String.length b - i - 1)))

let rec gate_basics acc = function
  | Gbasic (b, p) -> (b, p) :: acc
  | Gand (gs, _) | Gor (gs, _) | Gkofn (_, gs, _) ->
      List.fold_left gate_basics acc gs

let rec strip_pos = function
  | Gbasic (b, _) -> Gbasic (b, None)
  | Gand (gs, _) -> Gand (List.map strip_pos gs, None)
  | Gor (gs, _) -> Gor (List.map strip_pos gs, None)
  | Gkofn (k, gs, _) -> Gkofn (k, List.map strip_pos gs, None)

let gate_equal a b = strip_pos a = strip_pos b

(* Best-effort conversion for cut-set reasoning; [None] when the raw tree
   is malformed (empty gates, bad k-of-n bounds — reported separately). *)
let rec to_fault_tree = function
  | Gbasic (b, _) -> Some (Fault_tree.Basic b)
  | Gand (gs, _) ->
      Option.map (fun l -> Fault_tree.And l) (to_fault_trees gs)
  | Gor (gs, _) -> Option.map (fun l -> Fault_tree.Or l) (to_fault_trees gs)
  | Gkofn (Some k, gs, _) when k >= 1 && k <= List.length gs ->
      Option.map (fun l -> Fault_tree.Kofn (k, l)) (to_fault_trees gs)
  | Gkofn _ -> None

and to_fault_trees gs =
  let converted = List.map to_fault_tree gs in
  if gs = [] || List.exists Option.is_none converted then None
  else Some (List.map Option.get converted)

let gate_label g =
  match to_fault_tree g with
  | Some t ->
      (* to_string pretty-prints with line breaks; flatten for one-line
         diagnostics *)
      let s =
        String.concat " "
          (List.filter
             (fun w -> w <> "")
             (String.split_on_char ' '
                (String.map
                   (function '\n' | '\t' -> ' ' | c -> c)
                   (Fault_tree.to_string t))))
      in
      if String.length s > 48 then String.sub s 0 45 ^ "..." else s
  | None -> (
      match g with
      | Gbasic (b, _) -> b
      | Gand _ -> "and(...)"
      | Gor _ -> "or(...)"
      | Gkofn _ -> "kofn(...)")

let check raw =
  let out = ref [] in
  let push d = out := d :: !out in
  let comp_names = List.map (fun rc -> rc.rc_name) raw.raw_components in
  let comp_tbl = Hashtbl.create 16 in
  List.iter
    (fun rc ->
      if not (Hashtbl.mem comp_tbl rc.rc_name) then
        Hashtbl.replace comp_tbl rc.rc_name rc)
    raw.raw_components;
  let exists name = Hashtbl.mem comp_tbl name in
  let mode_exists comp mode =
    match Hashtbl.find_opt comp_tbl comp with
    | None -> false
    | Some rc -> List.exists (fun m -> m.rm_name = mode) rc.rc_modes
  in
  (* ARC-M002: duplicate component names *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun rc ->
      if Hashtbl.mem seen rc.rc_name then
        push
          (diag ?position:rc.rc_pos ~code:"ARC-M002" ~severity:D.Error
             ~subject:(Printf.sprintf "component %s" rc.rc_name)
             "duplicate component name")
      else Hashtbl.replace seen rc.rc_name ())
    raw.raw_components;
  (* ARC-M001: unknown references, from repair units, spare units and the
     fault tree (component and failure-mode references alike) *)
  let unknown_ref pos ~subject name =
    push
      (diag ?position:pos
         ?hint:(D.did_you_mean name comp_names)
         ~code:"ARC-M001" ~severity:D.Error ~subject
         "reference to unknown component %s" name)
  in
  List.iter
    (fun ru ->
      let subject = Printf.sprintf "repair unit %s" ru.rr_name in
      List.iter
        (fun m -> if not (exists m) then unknown_ref ru.rr_pos ~subject m)
        ru.rr_components)
    raw.raw_repair_units;
  List.iter
    (fun smu ->
      let subject = Printf.sprintf "spare unit %s" smu.rs_name in
      List.iter
        (fun m -> if not (exists m) then unknown_ref smu.rs_pos ~subject m)
        (smu.rs_primaries @ smu.rs_spares))
    raw.raw_spare_units;
  (match raw.raw_fault_tree with
  | None -> ()
  | Some tree ->
      List.iter
        (fun (literal, pos) ->
          let comp, mode = split_literal literal in
          let subject = "fault tree" in
          if not (exists comp) then unknown_ref pos ~subject comp
          else
            match mode with
            | Some m when not (mode_exists comp m) ->
                push
                  (diag ?position:pos ~code:"ARC-M001" ~severity:D.Error ~subject
                     "component %s has no failure mode %s" comp m)
            | _ -> ())
        (gate_basics [] tree));
  (* ARC-M003: a component repaired by more than one unit (or listed twice
     in one unit) *)
  let repaired = Hashtbl.create 16 in
  List.iter
    (fun ru ->
      List.iter
        (fun m ->
          match Hashtbl.find_opt repaired m with
          | Some first when exists m ->
              push
                (diag ?position:ru.rr_pos ~code:"ARC-M003" ~severity:D.Error
                   ~subject:(Printf.sprintf "repair unit %s" ru.rr_name)
                   "component %s is already repaired by %s" m first)
          | _ -> Hashtbl.replace repaired m ru.rr_name)
        ru.rr_components)
    raw.raw_repair_units;
  (* ARC-M004: components never referenced by the fault tree or a spare
     unit — they add states and cost but cannot influence any measure's
     predicate *)
  (match raw.raw_fault_tree with
  | None -> ()
  | Some tree ->
      let referenced = Hashtbl.create 16 in
      List.iter
        (fun (literal, _) -> Hashtbl.replace referenced (fst (split_literal literal)) ())
        (gate_basics [] tree);
      List.iter
        (fun smu ->
          List.iter
            (fun m -> Hashtbl.replace referenced m ())
            (smu.rs_primaries @ smu.rs_spares))
        raw.raw_spare_units;
      List.iter
        (fun rc ->
          if not (Hashtbl.mem referenced rc.rc_name) then
            push
              (diag ?position:rc.rc_pos ~code:"ARC-M004" ~severity:D.Warning
                 ~subject:(Printf.sprintf "component %s" rc.rc_name)
                 "never referenced by the fault tree or any spare unit"
                 ~hint:
                   "the component still multiplies the state space and \
                    contributes cost; reference it or remove it"))
        raw.raw_components);
  (* ARC-M005: the model has a repair organisation, but this component is
     outside it — it is never repaired *)
  if raw.raw_repair_units <> [] then
    List.iter
      (fun rc ->
        if not (Hashtbl.mem repaired rc.rc_name) then
          push
            (diag ?position:rc.rc_pos ~code:"ARC-M005" ~severity:D.Warning
               ~subject:(Printf.sprintf "component %s" rc.rc_name)
               "not reachable by any repair unit: once failed it stays failed"
               ~hint:
                 "add the component to a repair unit, or drop all repair \
                  units for a pure reliability model"))
      raw.raw_components;
  (* Repair-unit sanity: ARC-M006 / ARC-M007 / ARC-M011 *)
  List.iter
    (fun ru ->
      let subject = Printf.sprintf "repair unit %s" ru.rr_name in
      let n = List.length ru.rr_components in
      (match ru.rr_crews with
      | Some k when k <= 0 ->
          push
            (diag ?position:ru.rr_pos ~code:"ARC-M007" ~severity:D.Error ~subject
               "crew count %d is not positive" k)
      | Some k when ru.rr_strategy = Some Core.Repair.Dedicated && k <> 1 && k <> n ->
          push
            (diag ?position:ru.rr_pos ~code:"ARC-M006" ~severity:D.Warning ~subject
               "dedicated strategy ignores crews=%d (it acts as one crew per \
                component, here %d)"
               k n
               ~hint:"drop the crews attribute or switch to fcfs/frf/fff")
      | Some k when ru.rr_strategy <> Some Core.Repair.Dedicated && k > n ->
          push
            (diag ?position:ru.rr_pos ~code:"ARC-M007" ~severity:D.Warning ~subject
               "%d crews for %d components: the extra crews can never be busy"
               k n
               ~hint:"crews beyond the component count only accrue idle cost")
      | _ -> ());
      if n = 0 then
        push
          (diag ?position:ru.rr_pos ~code:"ARC-M007" ~severity:D.Error ~subject
             "repair unit has no components");
      match ru.rr_strategy with
      | Some (Core.Repair.Priority order) ->
          let members = List.sort_uniq compare ru.rr_components in
          let listed = Hashtbl.create 8 in
          List.iter
            (fun name ->
              if Hashtbl.mem listed name then
                push
                  (diag ?position:ru.rr_pos ~code:"ARC-M011" ~severity:D.Error
                     ~subject "priority list names %s twice" name)
              else Hashtbl.replace listed name ();
              if not (List.mem name members) then
                push
                  (diag ?position:ru.rr_pos ~code:"ARC-M011" ~severity:D.Error
                     ~subject "priority list names %s, which the unit does not repair"
                     name))
            order;
          List.iter
            (fun name ->
              if not (List.mem name order) then
                push
                  (diag ?position:ru.rr_pos ~code:"ARC-M011" ~severity:D.Error
                     ~subject "priority list omits repairable component %s" name))
            members
      | _ -> ())
    raw.raw_repair_units;
  (* Rate sanity per failure mode: ARC-M008 / ARC-M009 / ARC-M010 *)
  List.iter
    (fun rc ->
      List.iter
        (fun m ->
          let subject =
            if m.rm_name = "failed" then Printf.sprintf "component %s" rc.rc_name
            else Printf.sprintf "component %s, mode %s" rc.rc_name m.rm_name
          in
          let bad_rate key = function
            | Some v when v <= 0. || not (Float.is_finite v) ->
                push
                  (diag ?position:m.rm_pos ~code:"ARC-M008" ~severity:D.Error
                     ~subject "%s=%g is not a positive finite mean time" key v)
            | _ -> ()
          in
          bad_rate "mttf" m.rm_mttf;
          bad_rate "mttr" m.rm_mttr;
          (match (m.rm_mttf, m.rm_mttr) with
          | Some mttf, Some mttr
            when mttf > 0. && mttr >= mttf && Float.is_finite mttf
                 && Float.is_finite mttr ->
              push
                (diag ?position:m.rm_pos ~code:"ARC-M009" ~severity:D.Warning
                   ~subject
                   "mttr (%g h) is not below mttf (%g h): the component is \
                    failed at least half of the time"
                   mttr mttf
                   ~hint:"check whether the two means are swapped")
          | _ -> ());
          match m.rm_stages with
          | Some s when s < 1 ->
              push
                (diag ?position:m.rm_pos ~code:"ARC-M010" ~severity:D.Error
                   ~subject "repair-stages=%d is not a positive Erlang phase count" s)
          | Some s when s > 64 ->
              push
                (diag ?position:m.rm_pos ~code:"ARC-M010" ~severity:D.Warning
                   ~subject
                   "repair-stages=%d multiplies the component's state count \
                    by %d"
                   s s
                   ~hint:
                     "beyond ~64 phases the Erlang approximates a \
                      deterministic delay with no further accuracy gain")
          | _ -> ())
        rc.rc_modes)
    raw.raw_components;
  (* Cost rates and names the constructors reject: ARC-M013, one per
     attribute *)
  let bad_cost ?position ~subject key v =
    if v < 0. || not (Float.is_finite v) then
      push
        (diag ?position ~code:"ARC-M013" ~severity:D.Error ~subject
           "%s=%g is not a non-negative finite cost rate" key v)
  in
  let empty_name ?position ?(what = "name") ~subject name =
    if name = "" then
      push
        (diag ?position ~code:"ARC-M013" ~severity:D.Error ~subject "%s is empty"
           what)
  in
  empty_name ?position:raw.raw_pos ~subject:"model" raw.raw_name;
  List.iter
    (fun rc ->
      let subject = Printf.sprintf "component %s" rc.rc_name in
      empty_name ?position:rc.rc_pos ~subject:"component" rc.rc_name;
      bad_cost ?position:rc.rc_pos ~subject "operational-cost"
        rc.rc_operational_cost;
      List.iter
        (fun m ->
          empty_name ?position:m.rm_pos ~what:"mode name" ~subject m.rm_name;
          let subject =
            if m.rm_name = "failed" || m.rm_name = "" then subject
            else Printf.sprintf "%s, mode %s" subject m.rm_name
          in
          bad_cost ?position:m.rm_pos ~subject "failed-cost" m.rm_failed_cost)
        rc.rc_modes)
    raw.raw_components;
  List.iter
    (fun ru ->
      let subject = Printf.sprintf "repair unit %s" ru.rr_name in
      empty_name ?position:ru.rr_pos ~subject:"repair unit" ru.rr_name;
      bad_cost ?position:ru.rr_pos ~subject "idle-cost" ru.rr_idle_cost;
      bad_cost ?position:ru.rr_pos ~subject "busy-cost" ru.rr_busy_cost)
    raw.raw_repair_units;
  List.iter
    (fun smu ->
      empty_name ?position:smu.rs_pos ~subject:"spare unit" smu.rs_name)
    raw.raw_spare_units;
  (* Spare-unit structure: ARC-M012 *)
  let spare_member = Hashtbl.create 16 in
  List.iter
    (fun smu ->
      let subject = Printf.sprintf "spare unit %s" smu.rs_name in
      if smu.rs_primaries = [] then
        push
          (diag ?position:smu.rs_pos ~code:"ARC-M012" ~severity:D.Error ~subject
             "spare unit has no primary components");
      List.iter
        (fun p ->
          if List.mem p smu.rs_spares then
            push
              (diag ?position:smu.rs_pos ~code:"ARC-M012" ~severity:D.Error
                 ~subject "component %s is both a primary and a spare" p))
        smu.rs_primaries;
      (match smu.rs_mode with
      | Core.Spare.Warm f when f <= 0. || f >= 1. ->
          push
            (diag ?position:smu.rs_pos ~code:"ARC-M012" ~severity:D.Error ~subject
               "warm dormancy factor %g is outside (0, 1)" f
               ~hint:"use mode=\"cold\" for factor 0 and mode=\"hot\" for 1")
      | _ -> ());
      List.iter
        (fun m ->
          match Hashtbl.find_opt spare_member m with
          | Some first when exists m ->
              push
                (diag ?position:smu.rs_pos ~code:"ARC-M012" ~severity:D.Error
                   ~subject "component %s is already managed by spare unit %s" m
                   first)
          | _ -> Hashtbl.replace spare_member m smu.rs_name)
        (smu.rs_primaries @ smu.rs_spares))
    raw.raw_spare_units;
  (* Fault-tree structure: ARC-F001 .. ARC-F004 *)
  (match raw.raw_fault_tree with
  | None -> ()
  | Some tree ->
      let rec structural g =
        (match g with
        | Gbasic _ -> ()
        | Gand (kids, pos) | Gor (kids, pos) ->
            let kind = match g with Gand _ -> "and" | _ -> "or" in
            if kids = [] then
              push
                (diag ?position:pos ~code:"ARC-F004" ~severity:D.Error
                   ~subject:(Printf.sprintf "%s gate" kind)
                   "gate has no inputs")
            else if List.length kids = 1 then
              push
                (diag ?position:pos ~code:"ARC-F001" ~severity:D.Warning
                   ~subject:(Printf.sprintf "%s gate" kind)
                   "single-input %s gate is a no-op" kind
                   ~hint:"inline the child into the parent gate")
        | Gkofn (k, kids, pos) -> (
            let n = List.length kids in
            match k with
            | Some k when k < 1 || k > n ->
                push
                  (diag ?position:pos ~code:"ARC-F004" ~severity:D.Error
                     ~subject:"kofn gate"
                     "k=%d is outside 1..%d" k n)
            | Some k when k = 1 && n >= 1 ->
                push
                  (diag ?position:pos ~code:"ARC-F001" ~severity:D.Warning
                     ~subject:"kofn gate" "1-of-%d is an or gate" n
                     ~hint:"write <or> for clarity")
            | Some k when k = n && n > 0 ->
                push
                  (diag ?position:pos ~code:"ARC-F001" ~severity:D.Warning
                     ~subject:"kofn gate" "%d-of-%d is an and gate" n n
                     ~hint:"write <and> for clarity")
            | _ -> ()));
        match g with
        | Gbasic _ -> ()
        | Gand (kids, _) | Gor (kids, _) | Gkofn (_, kids, _) ->
            (* ARC-F002: structurally identical siblings *)
            let rec dup_pairs = function
              | [] -> ()
              | kid :: rest ->
                  if List.exists (gate_equal kid) rest then
                    push
                      (diag
                         ?position:
                           (match kid with
                           | Gbasic (_, p) | Gand (_, p) | Gor (_, p) | Gkofn (_, _, p)
                             -> p)
                         ~code:"ARC-F002" ~severity:D.Warning
                         ~subject:(Printf.sprintf "gate input %s" (gate_label kid))
                         "duplicate gate input"
                         ~hint:
                           "identical inputs to one gate never add \
                            information; under kofn they change the \
                            threshold semantics silently");
                  dup_pairs rest
            in
            dup_pairs kids;
            List.iter structural kids
      in
      structural tree;
      (* ARC-F003: gate inputs that can never determine the top event — the
         minimal cut sets are unchanged when the input is removed
         (absorption, e.g. or(a, and(a, b))). Only and/or parents: removing
         a k-of-n input changes the threshold semantics. *)
      (match to_fault_tree tree with
      | Some ft when List.length (Fault_tree.basics ft) <= 16 ->
          let baseline = try Some (Fault_tree.minimal_cut_sets ft) with _ -> None in
          (match baseline with
          | None -> ()
          | Some baseline ->
              let remove_nth l i = List.filteri (fun j _ -> j <> i) l in
              let rec walk rebuild g =
                match g with
                | Gbasic _ | Gkofn _ -> ()
                | Gand (kids, pos) | Gor (kids, pos) ->
                    let is_and = match g with Gand _ -> true | _ -> false in
                    if List.length kids >= 2 then
                      List.iteri
                        (fun i kid ->
                          (* a duplicate sibling is already ARC-F002 *)
                          if not (List.exists (gate_equal kid) (remove_nth kids i))
                          then
                            let smaller =
                              if is_and then Gand (remove_nth kids i, pos)
                              else Gor (remove_nth kids i, pos)
                            in
                            match to_fault_tree (rebuild smaller) with
                            | Some candidate
                              when (try
                                      Fault_tree.minimal_cut_sets candidate
                                      = baseline
                                    with _ -> false) ->
                                push
                                  (diag
                                     ?position:
                                       (match kid with
                                       | Gbasic (_, p)
                                       | Gand (_, p)
                                       | Gor (_, p)
                                       | Gkofn (_, _, p) -> p)
                                     ~code:"ARC-F003" ~severity:D.Warning
                                     ~subject:
                                       (Printf.sprintf "gate input %s"
                                          (gate_label kid))
                                     "input never determines the top event \
                                      (minimal cut sets are unchanged \
                                      without it)"
                                     ~hint:
                                       "the input is absorbed by the rest \
                                        of the tree; remove it or fix the \
                                        tree structure")
                            | _ -> ())
                        kids;
                    List.iteri
                      (fun i kid ->
                        let rebuild_kid replacement =
                          let kids' =
                            List.mapi (fun j k0 -> if j = i then replacement else k0)
                              kids
                          in
                          rebuild
                            (if is_and then Gand (kids', pos) else Gor (kids', pos))
                        in
                        walk rebuild_kid kid)
                      kids
              in
              walk Fun.id tree)
      | _ -> ()));
  List.rev !out
