type severity = Error | Warning | Info

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

type t = {
  code : string;
  severity : severity;
  subject : string;
  message : string;
  hint : string option;
  file : string option;
  line : int option;
  column : int option;
}

type rule = {
  rule_code : string;
  rule_severity : severity;
  rule_layer : string;
  rule_title : string;
  rule_rationale : string;
}

let make ?hint ?file ?position ~code ~severity ~subject fmt =
  Printf.ksprintf
    (fun message ->
      let line, column =
        match position with
        | Some (l, c) -> (Some l, Some c)
        | None -> (None, None)
      in
      { code; severity; subject; message; hint; file; line; column })
    fmt

let with_file file d = { d with file = Some file }

let pp ppf d =
  let anchor =
    match (d.file, d.line, d.column) with
    | Some f, Some l, Some c -> Printf.sprintf "%s:%d:%d: " f l c
    | Some f, _, _ -> f ^ ": "
    | None, Some l, Some c -> Printf.sprintf "%d:%d: " l c
    | None, _, _ -> ""
  in
  Format.fprintf ppf "%s%s[%s] %s: %s" anchor
    (severity_to_string d.severity)
    d.code d.subject d.message;
  match d.hint with
  | Some hint -> Format.fprintf ppf "@,  hint: %s" hint
  | None -> ()

let to_string d = Format.asprintf "@[<v>%a@]" pp d

let compare_diag a b =
  let key d =
    ( (match d.file with Some f -> f | None -> ""),
      (match d.line with Some l -> l | None -> max_int),
      (match d.column with Some c -> c | None -> max_int),
      d.code,
      d.subject,
      d.message )
  in
  compare (key a) (key b)

let sort diags = List.sort_uniq compare_diag diags

let count severity diags =
  List.length (List.filter (fun d -> d.severity = severity) diags)

(* Small edit distance for "did you mean" hints on unknown names. *)
let levenshtein a b =
  let la = String.length a and lb = String.length b in
  let prev = Array.init (lb + 1) Fun.id in
  let curr = Array.make (lb + 1) 0 in
  for i = 1 to la do
    curr.(0) <- i;
    for j = 1 to lb do
      let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
      curr.(j) <- min (min (curr.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
    done;
    Array.blit curr 0 prev 0 (lb + 1)
  done;
  prev.(lb)

let did_you_mean name candidates =
  let scored =
    List.filter_map
      (fun c ->
        let d = levenshtein name c in
        if d <= 2 && d < String.length name then Some (d, c) else None)
      candidates
  in
  match List.sort compare scored with
  | (_, best) :: _ -> Some (Printf.sprintf "did you mean %S?" best)
  | [] -> None
