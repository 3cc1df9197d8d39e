type strategy =
  | Dedicated
  | Fcfs
  | Frf
  | Fff
  | Priority of string list

type t = {
  name : string;
  strategy : strategy;
  crews : int;
  components : string list;
  idle_cost : float;
  busy_cost : float;
  preemptive : bool;
}

let has_duplicates names =
  let sorted = List.sort compare names in
  let rec adjacent = function
    | a :: (b :: _ as rest) -> a = b || adjacent rest
    | [ _ ] | [] -> false
  in
  adjacent sorted

let make ?(crews = 1) ?(idle_cost = 1.) ?(busy_cost = 0.) ?(preemptive = false)
    ~name ~strategy ~components () =
  if name = "" then invalid_arg "Repair.make: empty name";
  if components = [] then invalid_arg "Repair.make: no components";
  if has_duplicates components then invalid_arg "Repair.make: duplicate components";
  if crews <= 0 then invalid_arg "Repair.make: crews must be positive";
  List.iter
    (fun c ->
      if not (Float.is_finite c && c >= 0.) then
        invalid_arg
          (Printf.sprintf "Repair.make: cost rate %g is not finite and non-negative" c))
    [ idle_cost; busy_cost ];
  (match strategy with
  | Priority order ->
      if List.sort compare order <> List.sort compare components then
        invalid_arg "Repair.make: priority list must cover exactly the unit's components"
  | Dedicated | Fcfs | Frf | Fff -> ());
  { name; strategy; crews; components; idle_cost; busy_cost; preemptive }

let strategy_to_string = function
  | Dedicated -> "dedicated"
  | Fcfs -> "fcfs"
  | Frf -> "frf"
  | Fff -> "fff"
  | Priority order -> "priority:" ^ String.concat "," order

let strategy_of_string s =
  match String.lowercase_ascii s with
  | "dedicated" | "ded" -> Dedicated
  | "fcfs" -> Fcfs
  | "frf" -> Frf
  | "fff" -> Fff
  | other ->
      (match String.index_opt other ':' with
      | Some i when String.sub other 0 i = "priority" ->
          let rest = String.sub s (i + 1) (String.length s - i - 1) in
          Priority (String.split_on_char ',' rest)
      | _ -> invalid_arg (Printf.sprintf "Repair.strategy_of_string: %S" s))

let crew_count ru =
  match ru.strategy with
  | Dedicated -> List.length ru.components
  | Fcfs | Frf | Fff | Priority _ -> ru.crews

let rank_by_rate ru lookup rate_of name =
  (* rank components by the chosen rate attribute; equal attribute values
     share a rank so FCFS breaks the tie at dispatch time *)
  let values =
    List.sort_uniq compare (List.map (fun c -> rate_of (lookup c)) ru.components)
  in
  let target = rate_of (lookup name) in
  let rec position i = function
    | [] -> invalid_arg "Repair.priority_rank: component not in unit"
    | v :: rest -> if v = target then i else position (i + 1) rest
  in
  position 0 values

let priority_rank ru lookup name =
  if not (List.mem name ru.components) then
    invalid_arg
      (Printf.sprintf "Repair.priority_rank: %s not repaired by unit %s" name ru.name);
  match ru.strategy with
  | Dedicated | Fcfs -> 0
  | Frf -> rank_by_rate ru lookup (fun c -> c.Component.mttr) name
  | Fff -> rank_by_rate ru lookup (fun c -> c.Component.mttf) name
  | Priority order ->
      let rec position i = function
        | [] -> invalid_arg "Repair.priority_rank: component not in priority list"
        | c :: rest -> if c = name then i else position (i + 1) rest
      in
      position 0 order
