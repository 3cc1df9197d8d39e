module Sparse = Numeric.Sparse

type t = {
  states : int list;
  probability : float;
}

(* Dijkstra over edge weights -log p(i -> j) on the embedded chain. A simple
   binary-heap-free implementation using a sorted module on (dist, vertex)
   pairs would be O(n^2); we use a leftist-ish pairing via a sorted set
   substitute: OCaml's Set over (float * int). *)
module Frontier = Set.Make (struct
  type t = float * int

  let compare = compare
end)

let most_probable_path m ~psi =
  let n = Chain.states m in
  let emb = Chain.embedded m in
  let dist = Array.make n infinity in
  let pred = Array.make n (-1) in
  let frontier = ref Frontier.empty in
  Array.iteri
    (fun s p ->
      if p > 0. then begin
        dist.(s) <- 0.;
        frontier := Frontier.add (0., s) !frontier
      end)
    (Chain.initial m);
  let result = ref None in
  (try
     while not (Frontier.is_empty !frontier) do
       let ((d, u) as elt) = Frontier.min_elt !frontier in
       frontier := Frontier.remove elt !frontier;
       if d <= dist.(u) then begin
         if psi u then begin
           result := Some u;
           raise Exit
         end;
         Sparse.iter_row emb u (fun v p ->
             if p > 0. && v <> u then begin
               let d' = d -. Float.log p in
               if d' < dist.(v) then begin
                 dist.(v) <- d';
                 pred.(v) <- u;
                 frontier := Frontier.add (d', v) !frontier
               end
             end)
       end
     done
   with Exit -> ());
  match !result with
  | None -> None
  | Some target ->
      let rec collect s acc =
        if pred.(s) = -1 then s :: acc else collect pred.(s) (s :: acc)
      in
      Some { states = collect target []; probability = Float.exp (-.dist.(target)) }
