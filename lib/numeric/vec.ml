type t = float array

let create n x = Array.make n x

let zeros n = create n 0.

let unit n i =
  let v = zeros n in
  v.(i) <- 1.;
  v

let copy = Array.copy

let dim = Array.length

let fill v x = Array.fill v 0 (Array.length v) x

let check_same_dim name a b =
  if Array.length a <> Array.length b then
    invalid_arg (Printf.sprintf "Vec.%s: dimension mismatch (%d vs %d)"
                   name (Array.length a) (Array.length b))

let blit ~src ~dst =
  check_same_dim "blit" src dst;
  Array.blit src 0 dst 0 (Array.length src)

let dot a b =
  check_same_dim "dot" a b;
  let acc = ref 0. in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

let sum v =
  let acc = ref 0. in
  for i = 0 to Array.length v - 1 do
    acc := !acc +. v.(i)
  done;
  !acc

let scale_in_place a v =
  for i = 0 to Array.length v - 1 do
    v.(i) <- a *. v.(i)
  done

let axpy a x y =
  check_same_dim "axpy" x y;
  for i = 0 to Array.length x - 1 do
    Array.unsafe_set y i (Array.unsafe_get y i +. (a *. Array.unsafe_get x i))
  done

let add a b =
  check_same_dim "add" a b;
  Array.init (Array.length a) (fun i -> a.(i) +. b.(i))

let normalize_l1 v =
  let s = sum v in
  if s <= 0. then invalid_arg "Vec.normalize_l1: non-positive sum";
  scale_in_place (1. /. s) v

let linf_distance a b =
  check_same_dim "linf_distance" a b;
  let acc = ref 0. in
  for i = 0 to Array.length a - 1 do
    let d = Float.abs (a.(i) -. b.(i)) in
    if d > !acc then acc := d
  done;
  !acc

let max_entry v = Array.fold_left Float.max neg_infinity v

let is_distribution ?(eps = 1e-9) v =
  Array.for_all (fun x -> x >= -.eps) v && Float.abs (sum v -. 1.) <= eps
