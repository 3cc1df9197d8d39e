module D = Diagnostic
module M = Core.Xml_io

(* ------------------------------------------------------------------ *)
(* Chain-layer rules: structural facts about the CTMC the model would
   generate, computed from per-component skeletons instead of the product
   state space. The skeleton of one component is the digraph over
   {up} U {(mode, stage)}; its bottom SCCs multiply across components to
   give the product chain's recurrent-class count, so a model with millions
   of states is analysed from graphs of a few dozen vertices. *)

type skeleton = {
  sk_component : string;
  sk_pos : M.pos;
  sk_bottom : int;  (** bottom-SCC count of the skeleton *)
  sk_repaired : bool;
  sk_modes : int;
}

let repaired_set raw =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun ru -> List.iter (fun c -> Hashtbl.replace tbl c ()) ru.M.rr_components)
    raw.M.raw_repair_units;
  tbl

let skeleton_of_component ~repaired (rc : M.raw_component) =
  (* vertex 0 = up; then one vertex per (mode, stage), modes in order *)
  let stages m = max 1 (Option.value m.M.rm_stages ~default:1) in
  let total = List.fold_left (fun acc m -> acc + stages m) 0 rc.M.rc_modes in
  let b = Numeric.Sparse.Builder.create ~rows:(1 + total) ~cols:(1 + total) in
  let edge u v = Numeric.Sparse.Builder.add b u v 1. in
  let base = ref 1 in
  List.iter
    (fun m ->
      let s = stages m in
      edge 0 !base;
      if repaired then (
        for k = 0 to s - 2 do
          edge (!base + k) (!base + k + 1)
        done;
        edge (!base + s - 1) 0);
      base := !base + s)
    rc.M.rc_modes;
  let g = Numeric.Sparse.Builder.to_csr b in
  let bottom = Numeric.Digraph.(Array.length (bottom_sccs g (sccs g))) in
  {
    sk_component = rc.M.rc_name;
    sk_pos = rc.M.rc_pos;
    sk_bottom = bottom;
    sk_repaired = repaired;
    sk_modes = List.length rc.M.rc_modes;
  }

let skeletons raw =
  let repaired = repaired_set raw in
  List.map
    (fun rc -> skeleton_of_component ~repaired:(Hashtbl.mem repaired rc.M.rc_name) rc)
    raw.M.raw_components

(* The product chain has [prod_i bottom_i] recurrent classes: component
   failure/repair cycles are independent at the reachability level (repair
   queues delay but never deny a repair; spare dormancy scales but — for hot
   and warm spares — never removes a failure edge). Cold spares could in
   principle remove failure edges while dormant, which only merges classes,
   so the product is an upper bound and [> 1] detection stays sound for the
   models Arcade generates (activation is work-conserving: a dormant cold
   spare becomes active as soon as a primary fails). *)
let multiple_bsccs raw =
  List.exists (fun sk -> sk.sk_bottom > 1) (skeletons raw)

let stiffness_threshold = 1e6

let rates raw =
  let repaired = repaired_set raw in
  List.concat_map
    (fun rc ->
      let is_repaired = Hashtbl.mem repaired rc.M.rc_name in
      (* warm dormancy scales this component's failure rate by f; include
         the scaled rate too since the chain contains it in dormant states *)
      let warm_factors =
        List.filter_map
          (fun su ->
            match su.M.rs_mode with
            | Core.Spare.Warm f
              when f > 0.
                   && List.mem rc.M.rc_name (su.M.rs_primaries @ su.M.rs_spares) ->
                Some f
            | _ -> None)
          raw.M.raw_spare_units
      in
      List.concat_map
        (fun m ->
          let label which v = (rc.M.rc_name ^ "." ^ m.M.rm_name ^ which, v) in
          let failure =
            match m.M.rm_mttf with
            | Some mttf when mttf > 0. && Float.is_finite mttf ->
                label " failure" (1. /. mttf)
                :: List.map
                     (fun f -> label " dormant failure" (f /. mttf))
                     warm_factors
            | _ -> []
          in
          let repair =
            match m.M.rm_mttr with
            | Some mttr when is_repaired && mttr > 0. && Float.is_finite mttr ->
                let s = float_of_int (max 1 (Option.value m.M.rm_stages ~default:1)) in
                [ label " repair stage" (s /. mttr) ]
            | _ -> []
          in
          failure @ repair)
        rc.M.rc_modes)
    raw.M.raw_components

let check raw =
  let out = ref [] in
  let push d = out := d :: !out in
  let sks = skeletons raw in
  (* ARC-C001 (info): absorbing failure configurations. Deliberately not a
     warning — pure reliability models (no repair at all) are a standard
     use of the tool and must stay quiet under -Werror. *)
  let absorbing = List.filter (fun sk -> not sk.sk_repaired) sks in
  if absorbing <> [] && raw.M.raw_components <> [] then
    push
      (D.make ~code:"ARC-C001" ~severity:D.Info
         ~subject:(Printf.sprintf "model %s" raw.M.raw_name)
         "the chain has absorbing failure configurations: %s %s never \
          repaired, so time-unbounded measures converge to the all-failed \
          regime"
         (String.concat ", " (List.map (fun sk -> sk.sk_component) absorbing))
         (if List.length absorbing = 1 then "is" else "are"));
  (* ARC-C002: several recurrent classes make long-run measures depend on
     the initial distribution *)
  let split = List.filter (fun sk -> sk.sk_bottom > 1) sks in
  if split <> [] then begin
    let product =
      List.fold_left (fun acc sk -> acc * sk.sk_bottom) 1 sks
    in
    List.iter
      (fun sk ->
        push
          (D.make ?position:sk.sk_pos ~code:"ARC-C002" ~severity:D.Warning
             ~subject:(Printf.sprintf "component %s" sk.sk_component)
             "unrepaired component with %d failure modes splits the chain \
              into separate recurrent classes"
             sk.sk_modes
             ~hint:"repair the component or reduce it to a single mode"))
      split;
    push
      (D.make ~code:"ARC-C002" ~severity:D.Warning
         ~subject:(Printf.sprintf "model %s" raw.M.raw_name)
         "the chain has %d recurrent classes; steady-state (S=?, R[S]=?) \
          results depend on the initial state"
         product)
  end;
  (* ARC-C003: stiffness — uniformisation effort grows with the rate
     spread, and transient results lose digits when rates differ by many
     orders of magnitude *)
  (match rates raw with
  | [] -> ()
  | first :: rest ->
      let (slow_label, slow), (fast_label, fast) =
        List.fold_left
          (fun (((_, mn) as lo), ((_, mx) as hi)) ((_, r) as cur) ->
            ((if r < mn then cur else lo), if r > mx then cur else hi))
          (first, first) rest
      in
      if slow > 0. && fast /. slow >= stiffness_threshold then
        push
          (D.make ~code:"ARC-C003" ~severity:D.Warning
             ~subject:(Printf.sprintf "model %s" raw.M.raw_name)
             "stiff chain: rates span %.1e (%s, %g/h) to %.1e (%s, %g/h), a \
              ratio of %.1e"
             slow slow_label slow fast fast_label fast (fast /. slow)
             ~hint:
               "uniformisation cost grows with the fastest rate times the \
                time horizon; consider rescaling near-instantaneous \
                transitions"));
  List.rev !out
