type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

(* splitmix64 is the recommended seeder for xoshiro: it diffuses low-entropy
   seeds into well-distributed state words. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed =
  let state = ref seed in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  { s0; s1; s2; s3 }

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let bits64 g =
  let open Int64 in
  let result = add (rotl (add g.s0 g.s3) 23) g.s0 in
  let t = shift_left g.s1 17 in
  g.s2 <- logxor g.s2 g.s0;
  g.s3 <- logxor g.s3 g.s1;
  g.s1 <- logxor g.s1 g.s2;
  g.s0 <- logxor g.s0 g.s3;
  g.s2 <- logxor g.s2 t;
  g.s3 <- rotl g.s3 45;
  result

let float g =
  (* top 53 bits -> [0,1) *)
  let bits = Int64.shift_right_logical (bits64 g) 11 in
  Int64.to_float bits *. 0x1.0p-53

let uniform g x = float g *. x

let int g n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  if n = 1 then 0
  else begin
    (* masked rejection over 62 raw bits: keep the smallest all-ones mask
       covering n-1 and retry draws >= n. Every surviving value is equally
       likely, for any n — unlike float scaling, which collapses 2^64
       states onto 53 bits and rounds, so some residues occur more often *)
    let mask =
      let m = ref (n - 1) in
      m := !m lor (!m lsr 1);
      m := !m lor (!m lsr 2);
      m := !m lor (!m lsr 4);
      m := !m lor (!m lsr 8);
      m := !m lor (!m lsr 16);
      m := !m lor (!m lsr 32);
      !m
    in
    let rec draw () =
      let bits = Int64.to_int (Int64.shift_right_logical (bits64 g) 2) in
      let k = bits land mask in
      if k < n then k else draw ()
    in
    draw ()
  end

let exponential g ~rate =
  if rate <= 0. then invalid_arg "Rng.exponential: rate must be positive";
  let u = 1. -. float g in
  (* u in (0,1] so log is finite *)
  -.Float.log u /. rate

let choose_weighted g ws =
  let total = Array.fold_left ( +. ) 0. ws in
  if total <= 0. then invalid_arg "Rng.choose_weighted: zero total weight";
  let target = uniform g total in
  let n = Array.length ws in
  let rec scan i acc =
    if i = n - 1 then i
    else
      let acc = acc +. ws.(i) in
      if target < acc then i else scan (i + 1) acc
  in
  scan 0 0.
