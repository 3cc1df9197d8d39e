type failure_mode = {
  fm_name : string;
  fm_mttf : float;
  fm_mttr : float;
  fm_failed_cost : float;
  fm_repair_stages : int;
}

type t = {
  name : string;
  mttf : float;
  mttr : float;
  failed_cost : float;
  operational_cost : float;
  repair_stages : int;
  extra_modes : failure_mode list;
}

(* A mean time must be finite (not NaN) and positive, a cost rate finite
   and non-negative. *)
let check_time who what t =
  if not (Float.is_finite t) then
    invalid_arg (Printf.sprintf "%s: %s must be finite (got %g)" who what t);
  if t <= 0. then invalid_arg (Printf.sprintf "%s: %s must be positive" who what)

let check_cost who c =
  if not (Float.is_finite c && c >= 0.) then
    invalid_arg (Printf.sprintf "%s: cost rate %g is not finite and non-negative" who c)

let failure_mode ?(failed_cost = 3.) ?(repair_stages = 1) ~name ~mttf ~mttr () =
  let who = "Component.failure_mode" in
  if name = "" then invalid_arg "Component.failure_mode: empty name";
  check_time who "MTTF" mttf;
  check_time who "MTTR" mttr;
  check_cost who failed_cost;
  if repair_stages < 1 then invalid_arg "Component.failure_mode: stages must be >= 1";
  {
    fm_name = name;
    fm_mttf = mttf;
    fm_mttr = mttr;
    fm_failed_cost = failed_cost;
    fm_repair_stages = repair_stages;
  }

let make ?(failed_cost = 3.) ?(operational_cost = 0.) ?(repair_stages = 1)
    ?(extra_modes = []) ~name ~mttf ~mttr () =
  let who = "Component.make" in
  if name = "" then invalid_arg "Component.make: empty name";
  check_time who "MTTF" mttf;
  check_time who "MTTR" mttr;
  check_cost who failed_cost;
  check_cost who operational_cost;
  if repair_stages < 1 then
    invalid_arg "Component.make: repair stages must be at least 1";
  let mode_names = "failed" :: List.map (fun m -> m.fm_name) extra_modes in
  let sorted = List.sort compare mode_names in
  let rec adjacent = function
    | a :: (b :: _ as rest) -> a = b || adjacent rest
    | [ _ ] | [] -> false
  in
  if adjacent sorted then invalid_arg "Component.make: duplicate failure-mode names";
  { name; mttf; mttr; failed_cost; operational_cost; repair_stages; extra_modes }

let failure_rate c = 1. /. c.mttf

let repair_rate c = 1. /. c.mttr

let stage_rate c = float_of_int c.repair_stages /. c.mttr

let modes c =
  {
    fm_name = "failed";
    fm_mttf = c.mttf;
    fm_mttr = c.mttr;
    fm_failed_cost = c.failed_cost;
    fm_repair_stages = c.repair_stages;
  }
  :: c.extra_modes

let mode_failure_rate m = 1. /. m.fm_mttf

let mode_stage_rate m = float_of_int m.fm_repair_stages /. m.fm_mttr
