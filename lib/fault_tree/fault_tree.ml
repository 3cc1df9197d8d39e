type t =
  | Basic of string
  | And of t list
  | Or of t list
  | Kofn of int * t list

let basic name = Basic name

let check_gate name inputs =
  if inputs = [] then invalid_arg (Printf.sprintf "Fault_tree.%s: empty gate" name)

let and_ inputs =
  check_gate "and_" inputs;
  And inputs

let or_ inputs =
  check_gate "or_" inputs;
  Or inputs

let kofn k inputs =
  check_gate "kofn" inputs;
  if k < 1 || k > List.length inputs then
    invalid_arg
      (Printf.sprintf "Fault_tree.kofn: k = %d out of [1, %d]" k
         (List.length inputs));
  Kofn (k, inputs)

let rec validate = function
  | Basic name -> if name = "" then invalid_arg "Fault_tree: empty basic-event name"
  | And inputs ->
      check_gate "validate(and)" inputs;
      List.iter validate inputs
  | Or inputs ->
      check_gate "validate(or)" inputs;
      List.iter validate inputs
  | Kofn (k, inputs) ->
      check_gate "validate(kofn)" inputs;
      if k < 1 || k > List.length inputs then
        invalid_arg "Fault_tree: kofn threshold out of range";
      List.iter validate inputs

let basics tree =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let rec go = function
    | Basic name ->
        if not (Hashtbl.mem seen name) then begin
          Hashtbl.replace seen name ();
          out := name :: !out
        end
    | And inputs | Or inputs | Kofn (_, inputs) -> List.iter go inputs
  in
  go tree;
  List.rev !out

let rec eval tree truth =
  match tree with
  | Basic name -> truth name
  | And inputs -> List.for_all (fun g -> eval g truth) inputs
  | Or inputs -> List.exists (fun g -> eval g truth) inputs
  | Kofn (k, inputs) ->
      let sat = List.fold_left (fun n g -> if eval g truth then n + 1 else n) 0 inputs in
      sat >= k

let rec dual = function
  | Basic name -> Basic name
  | And inputs -> Or (List.map dual inputs)
  | Or inputs -> And (List.map dual inputs)
  | Kofn (k, inputs) -> Kofn (List.length inputs - k + 1, List.map dual inputs)

let rec eval_quantitative tree value =
  match tree with
  | Basic name -> value name
  | And inputs ->
      List.fold_left
        (fun acc g -> Float.min acc (eval_quantitative g value))
        infinity inputs
  | Or inputs ->
      let sum = List.fold_left (fun acc g -> acc +. eval_quantitative g value) 0. inputs in
      sum /. float_of_int (List.length inputs)
  | Kofn (k, inputs) ->
      let sum = List.fold_left (fun acc g -> acc +. eval_quantitative g value) 0. inputs in
      Float.min 1. (sum /. float_of_int k)

(* A tree compiled for evaluation over 0/1 assignments: the nodes in
   post-order (children before their gate), each leaf reading one bit of
   the assignment mask (bit i = the i-th basic event in first-occurrence
   order). *)
type node =
  | Bit of int
  | Min of int array
  | Mean of int array * float (* divided by the input count *)
  | Capped of int array * float (* min 1 (sum / k) *)

(* trailing zero bits of a positive int *)
let ctz x =
  let rec go x t = if x land 1 = 1 then t else go (x lsr 1) (t + 1) in
  go x 0

let service_levels tree =
  let names = Array.of_list (basics tree) in
  let n = Array.length names in
  if n > 24 then invalid_arg "Fault_tree.service_levels: too many basic events";
  let index = Hashtbl.create n in
  Array.iteri (fun i name -> Hashtbl.replace index name i) names;
  let nodes = ref [] and count = ref 0 in
  let emit node =
    nodes := node :: !nodes;
    incr count;
    !count - 1
  in
  let rec compile = function
    | Basic name -> emit (Bit (Hashtbl.find index name))
    | And inputs -> emit (Min (kids inputs))
    | Or inputs ->
        let kids = kids inputs in
        emit (Mean (kids, float_of_int (Array.length kids)))
    | Kofn (k, inputs) -> emit (Capped (kids inputs, float_of_int k))
  and kids inputs = Array.of_list (List.map compile inputs) in
  let root = compile tree in
  let nodes = Array.of_list (List.rev !nodes) in
  (* per node, the lowest bit its value depends on *)
  let low = Array.make (Array.length nodes) 0 in
  Array.iteri
    (fun j node ->
      low.(j) <-
        (match node with
        | Bit i -> i
        | Min kids | Mean (kids, _) | Capped (kids, _) ->
            Array.fold_left (fun acc c -> Int.min acc low.(c)) max_int kids))
    nodes;
  (* Masks are enumerated in increasing order: going from [mask - 1] to
     [mask] flips exactly the bits 0 .. ctz mask, so only the nodes that
     depend on one of them are re-evaluated, by [stale.(ctz mask)], in
     post-order. Each node repeats the float operations of
     [eval_quantitative] in the same order, so every value is bit for bit
     the one it computes. *)
  let stale =
    Array.init n (fun t ->
        Array.of_list
          (List.filter (fun j -> low.(j) <= t) (List.init (Array.length nodes) Fun.id)))
  in
  let value = Array.make (Array.length nodes) 0. in
  let sum kids =
    let s = ref 0. in
    for c = 0 to Array.length kids - 1 do
      s := !s +. value.(kids.(c))
    done;
    !s
  in
  let eval mask j =
    value.(j) <-
      (match nodes.(j) with
      | Bit i -> if mask land (1 lsl i) <> 0 then 1. else 0.
      | Min kids ->
          let m = ref infinity in
          for c = 0 to Array.length kids - 1 do
            m := Float.min !m value.(kids.(c))
          done;
          !m
      | Mean (kids, d) -> sum kids /. d
      | Capped (kids, k) -> Float.min 1. (sum kids /. k))
  in
  (* the last mask giving each distinct level, by the level's bits: the
     table is written when the level changes from one mask to the next *)
  let last = Hashtbl.create 16 and current = ref 0L in
  for mask = 0 to (1 lsl n) - 1 do
    Array.iter (eval mask) stale.(if mask = 0 then n - 1 else ctz mask);
    let bits = Int64.bits_of_float value.(root) in
    if mask = 0 || not (Int64.equal bits !current) then begin
      if mask > 0 then Hashtbl.replace last !current (mask - 1);
      current := bits
    end
  done;
  Hashtbl.replace last !current ((1 lsl n) - 1);
  (* Canonicalize levels that should be equal across assignments on their
     "%.12g" rendering; of several alike levels the one the latest mask
     gave stands, as in a plain enumeration that overwrites by key. *)
  let by_key = Hashtbl.create 16 in
  Hashtbl.iter
    (fun bits m ->
      let level = Int64.float_of_bits bits in
      let key = Printf.sprintf "%.12g" level in
      match Hashtbl.find_opt by_key key with
      | Some (m', _) when m' > m -> ()
      | _ -> Hashtbl.replace by_key key (m, level))
    last;
  List.sort compare (Hashtbl.fold (fun _ (_, v) acc -> v :: acc) by_key [])

(* Minimal cut sets: expand to a DNF where each disjunct is a sorted list of
   basic events, applying absorption (drop supersets) as we go. A K-of-N gate
   expands to the OR of all ANDs of k-subsets. *)
module Cut = struct
  type set = string list (* sorted, distinct *)

  let union a b = List.sort_uniq compare (a @ b)

  let subset a b = List.for_all (fun x -> List.mem x b) a

  let absorb (sets : set list) =
    let minimal s others = not (List.exists (fun o -> o <> s && subset o s) others) in
    let sets = List.sort_uniq compare sets in
    List.filter (fun s -> minimal s sets) sets

  let cross (a : set list) (b : set list) =
    absorb (List.concat_map (fun x -> List.map (fun y -> union x y) b) a)
end

let rec choose k items =
  match (k, items) with
  | 0, _ -> [ [] ]
  | _, [] -> []
  | k, x :: rest ->
      List.map (fun c -> x :: c) (choose (k - 1) rest) @ choose k rest

let minimal_cut_sets tree =
  let rec go = function
    | Basic name -> [ [ name ] ]
    | Or inputs -> Cut.absorb (List.concat_map go inputs)
    | And inputs ->
        List.fold_left
          (fun acc g -> Cut.cross acc (go g))
          [ [] ]
          inputs
    | Kofn (k, inputs) ->
        let subsets = choose k inputs in
        Cut.absorb (List.concat_map (fun sub -> go (And sub)) subsets)
  in
  List.sort compare (go tree)

let minimal_path_sets tree = minimal_cut_sets (dual tree)

let rec pp ppf = function
  | Basic name -> Format.pp_print_string ppf name
  | And inputs -> pp_gate ppf "and" inputs
  | Or inputs -> pp_gate ppf "or" inputs
  | Kofn (k, inputs) ->
      Format.fprintf ppf "kofn(%d" k;
      List.iter (fun g -> Format.fprintf ppf ",@ %a" pp g) inputs;
      Format.fprintf ppf ")"

and pp_gate ppf name inputs =
  Format.fprintf ppf "%s(" name;
  List.iteri
    (fun i g ->
      if i > 0 then Format.fprintf ppf ",@ ";
      pp ppf g)
    inputs;
  Format.fprintf ppf ")"

let to_string tree = Format.asprintf "%a" pp tree

(* Recursive-descent parser for the to_string syntax. *)
let of_string input =
  let n = String.length input in
  let pos = ref 0 in
  let error msg = failwith (Printf.sprintf "Fault_tree.of_string: %s at %d" msg !pos) in
  let skip_ws () =
    while !pos < n && (input.[!pos] = ' ' || input.[!pos] = '\t' || input.[!pos] = '\n') do
      incr pos
    done
  in
  let peek () = if !pos < n then Some input.[!pos] else None in
  let expect c =
    skip_ws ();
    match peek () with
    | Some c' when c' = c -> incr pos
    | _ -> error (Printf.sprintf "expected '%c'" c)
  in
  let ident () =
    skip_ws ();
    let start = !pos in
    let is_ident c =
      (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
      || c = '_' || c = '-' || c = '.'
    in
    while !pos < n && is_ident input.[!pos] do
      incr pos
    done;
    if !pos = start then error "expected identifier";
    String.sub input start (!pos - start)
  in
  let rec expr () =
    let name = ident () in
    skip_ws ();
    match (String.lowercase_ascii name, peek ()) with
    | "and", Some '(' -> and_ (args ())
    | "or", Some '(' -> or_ (args ())
    | "kofn", Some '(' ->
        expect '(';
        let k_str = ident () in
        let k = try int_of_string k_str with Failure _ -> error "expected integer k" in
        let inputs = ref [] in
        let continue = ref true in
        while !continue do
          skip_ws ();
          match peek () with
          | Some ',' ->
              incr pos;
              inputs := expr () :: !inputs
          | Some ')' ->
              incr pos;
              continue := false
          | _ -> error "expected ',' or ')'"
        done;
        kofn k (List.rev !inputs)
    | _, _ -> basic name
  and args () =
    expect '(';
    let first = expr () in
    let inputs = ref [ first ] in
    let continue = ref true in
    while !continue do
      skip_ws ();
      match peek () with
      | Some ',' ->
          incr pos;
          inputs := expr () :: !inputs
      | Some ')' ->
          incr pos;
          continue := false
      | _ -> error "expected ',' or ')'"
    done;
    List.rev !inputs
  in
  let tree = expr () in
  skip_ws ();
  if !pos <> n then error "trailing input";
  tree
