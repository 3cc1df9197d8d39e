type mode = Hot | Warm of float | Cold

type t = {
  name : string;
  primaries : string list;
  spares : string list;
  mode : mode;
}

let make ~name ~mode ~primaries ~spares () =
  if name = "" then invalid_arg "Spare.make: empty name";
  if primaries = [] then invalid_arg "Spare.make: no primaries";
  List.iter
    (fun s ->
      if List.mem s primaries then
        invalid_arg (Printf.sprintf "Spare.make: %s is both primary and spare" s))
    spares;
  (match mode with
  | Warm f when not (f > 0. && f < 1.) ->
      invalid_arg "Spare.make: warm dormancy factor must be in (0, 1)"
  | Warm _ | Hot | Cold -> ());
  { name; primaries; spares; mode }

let members smu = smu.primaries @ smu.spares

let dormancy_factor smu =
  match smu.mode with Hot -> 1. | Warm f -> f | Cold -> 0.

let mode_to_string = function
  | Hot -> "hot"
  | Warm f -> Printf.sprintf "warm:%g" f
  | Cold -> "cold"

let mode_of_string s =
  match String.lowercase_ascii s with
  | "hot" -> Hot
  | "cold" -> Cold
  | other ->
      (match String.index_opt other ':' with
      | Some i when String.sub other 0 i = "warm" ->
          let rest = String.sub other (i + 1) (String.length other - i - 1) in
          (match float_of_string_opt rest with
          | Some f -> Warm f
          | None -> invalid_arg (Printf.sprintf "Spare.mode_of_string: %S" s))
      | _ -> invalid_arg (Printf.sprintf "Spare.mode_of_string: %S" s))
