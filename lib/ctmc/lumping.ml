module Vec = Numeric.Vec
module Sparse = Numeric.Sparse

type result = {
  block_of : int array;
  blocks : int list array;
  quotient : Chain.t;
}

let partition_by_key n key =
  let table = Hashtbl.create 16 in
  let next = ref 0 in
  Array.init n (fun s ->
      let k = key s in
      match Hashtbl.find_opt table k with
      | Some b -> b
      | None ->
          let b = !next in
          incr next;
          Hashtbl.replace table k b;
          b)

let block_members block_of n_blocks =
  let blocks = Array.make n_blocks [] in
  for s = Array.length block_of - 1 downto 0 do
    blocks.(block_of.(s)) <- s :: blocks.(block_of.(s))
  done;
  blocks

(* Two accumulated rates are "the same" when they differ by no more than an
   absolute floor plus a relative tolerance — an explicit predicate instead
   of rounding to a decade-scaled grid. Grid rounding split exactly-lumpable
   states whose (floating-point) sums landed on opposite sides of a rounding
   boundary or of the 10^k scale cut; a gap predicate has no boundaries, it
   only asks whether the two values are close. *)
let rates_close ~abs_tol ~rel_tol a b =
  Float.abs (a -. b)
  <= abs_tol +. (rel_tol *. Float.max (Float.abs a) (Float.abs b))

(* Splitter-based partition refinement (Valmari & Franceschinis, "Simple
   O(m log n) Time Markov Chain Lumping"). We refine with respect to the
   generator Q (off-diagonal rates plus the -exit diagonal): for states s,
   s' of one block, ordinary lumpability demands equal rate sums into every
   OTHER block, and since each generator row sums to zero this is
   equivalent to equal Q-weight into EVERY block, own block included —
   which is exactly the stability the splitter loop maintains, with no
   own-block special case to break the "all but the largest sub-block"
   worklist rule.

   The partition lives in a refinable-partition structure: [elems] holds
   the states grouped by block, [loc] the position of each state in
   [elems], [first]/[past] the block boundaries. Splitting a block moves
   its marked states to the front of its segment and carves new blocks off
   that prefix. *)

type partition = {
  mutable n_blocks : int;
  elems : int array;
  loc : int array;
  block_of : int array;
  first : int array; (* indexed by block; capacity n *)
  past : int array;
}

let partition_of_initial initial n_blocks0 =
  let n = Array.length initial in
  let counts = Array.make n_blocks0 0 in
  Array.iter (fun b -> counts.(b) <- counts.(b) + 1) initial;
  let first = Array.make n 0 and past = Array.make n 0 in
  let offset = ref 0 in
  for b = 0 to n_blocks0 - 1 do
    first.(b) <- !offset;
    past.(b) <- !offset;
    offset := !offset + counts.(b)
  done;
  let elems = Array.make n 0 and loc = Array.make n 0 in
  Array.iteri
    (fun s b ->
      let p = past.(b) in
      elems.(p) <- s;
      loc.(s) <- p;
      past.(b) <- p + 1)
    initial;
  { n_blocks = n_blocks0; elems; loc; block_of = Array.copy initial; first; past }

let block_size p b = p.past.(b) - p.first.(b)

(* Swap state [s] into position [pos] of [elems]. *)
let swap_to p s pos =
  let cur = p.loc.(s) in
  if cur <> pos then begin
    let other = p.elems.(pos) in
    p.elems.(pos) <- s;
    p.elems.(cur) <- other;
    p.loc.(s) <- pos;
    p.loc.(other) <- cur
  end

let lump ?(rate_tolerance = 1e-9) ?(abs_tolerance = 1e-12) m ~initial =
  let n = Chain.states m in
  if Array.length initial <> n then invalid_arg "Lumping.lump: partition size";
  let n_blocks0 = Array.fold_left max (-1) initial + 1 in
  Array.iter
    (fun b ->
      if b < 0 || b >= n_blocks0 then
        invalid_arg "Lumping.lump: block ids not dense")
    initial;
  let seen = Array.make (max n_blocks0 1) false in
  Array.iter (fun b -> seen.(b) <- true) initial;
  Array.iter
    (fun present ->
      if not present then invalid_arg "Lumping.lump: block ids not dense")
    seen;
  if rate_tolerance < 0. || abs_tolerance < 0. then
    invalid_arg "Lumping.lump: negative tolerance";
  let close = rates_close ~abs_tol:abs_tolerance ~rel_tol:rate_tolerance in
  (* incoming generator edges: row j of Q^T lists (i, Q(i,j)) in
     increasing i. It is row j of R^T with -exit(j) merged in at i = j (R
     stores no diagonal, and Q none for a zero exit rate), so no generator
     is built. *)
  let rt = Sparse.transpose (Chain.rates m) in
  let exit = Chain.exit_rates m in
  let iter_q_col j f =
    let pending = ref (exit.(j) <> 0.) in
    Sparse.iter_row rt j (fun i q ->
        if !pending && i > j then (pending := false; f j (-.exit.(j)));
        f i q);
    if !pending then f j (-.exit.(j))
  in
  let p = partition_of_initial initial n_blocks0 in
  (* worklist of splitter blocks; on_worklist avoids duplicates *)
  let worklist = Queue.create () in
  let on_worklist = Array.make n false in
  let push b =
    if not on_worklist.(b) then begin
      on_worklist.(b) <- true;
      Queue.add b worklist
    end
  in
  for b = 0 to n_blocks0 - 1 do
    push b
  done;
  (* per-state accumulated weight into the current splitter *)
  let w = Array.make n 0. in
  let is_touched = Array.make n false in
  let touched = ref [] in
  (* scratch: touched blocks and their marked counts *)
  let marked = Array.make n 0 in
  let touched_blocks = ref [] in
  while not (Queue.is_empty worklist) do
    let sp = Queue.pop worklist in
    on_worklist.(sp) <- false;
    (* 1. accumulate Q-weights into the splitter *)
    for pos = p.first.(sp) to p.past.(sp) - 1 do
      let j = p.elems.(pos) in
      iter_q_col j (fun i q ->
          if not is_touched.(i) then begin
            is_touched.(i) <- true;
            w.(i) <- 0.;
            touched := i :: !touched
          end;
          w.(i) <- w.(i) +. q)
    done;
    (* 2. move touched states to the front of their blocks *)
    List.iter
      (fun s ->
        let b = p.block_of.(s) in
        if marked.(b) = 0 then touched_blocks := b :: !touched_blocks;
        swap_to p s (p.first.(b) + marked.(b));
        marked.(b) <- marked.(b) + 1)
      !touched;
    (* 3. split every touched block by weight *)
    List.iter
      (fun b ->
        let mfirst = p.first.(b) in
        let mcount = marked.(b) in
        marked.(b) <- 0;
        let has_rest = mfirst + mcount < p.past.(b) in
        (* group the marked prefix by weight: sort, then cut where the gap
           between neighbours exceeds the tolerance *)
        let ms = Array.sub p.elems mfirst mcount in
        Array.sort (fun a c -> Float.compare w.(a) w.(c)) ms;
        let groups = ref [] and cur = ref [ ms.(0) ] in
        for i = 1 to mcount - 1 do
          if close w.(ms.(i - 1)) w.(ms.(i)) then cur := ms.(i) :: !cur
          else begin
            groups := !cur :: !groups;
            cur := [ ms.(i) ]
          end
        done;
        groups := !cur :: !groups;
        (* a group indistinguishable from weight 0 stays with the unmarked
           remainder (which has weight 0 by construction) *)
        let zero_like g = close w.(List.hd g) 0. in
        let stay, split_off =
          if has_rest then List.partition zero_like !groups else ([], !groups)
        in
        (* lay the groups that split off back at the front, then carve *)
        let pos = ref mfirst in
        let place g =
          List.iter
            (fun s ->
              swap_to p s !pos;
              incr pos)
            g
        in
        List.iter place split_off;
        List.iter place stay;
        match split_off with
        | [] -> ()
        | _ ->
            let keep_first = not has_rest && stay = [] in
            (* when nothing remains of b beyond the groups, the first group
               keeps b's identity; otherwise the remainder does *)
            let carve_from = ref mfirst in
            let sizes = ref [] in
            List.iteri
              (fun gi g ->
                let len = List.length g in
                if gi = 0 && keep_first then begin
                  (* group 0 keeps block id b at [mfirst, mfirst+len) *)
                  carve_from := mfirst + len;
                  sizes := (b, len) :: !sizes
                end
                else begin
                  let nb = p.n_blocks in
                  p.n_blocks <- nb + 1;
                  p.first.(nb) <- !carve_from;
                  p.past.(nb) <- !carve_from + len;
                  List.iter (fun s -> p.block_of.(s) <- nb) g;
                  carve_from := !carve_from + len;
                  sizes := (nb, len) :: !sizes
                end)
              split_off;
            (* shrink b to the remainder (or to group 0 when keep_first) *)
            if keep_first then begin
              (* b's segment is [mfirst, mfirst + |group0|) *)
              p.past.(b) <- p.first.(b) + snd (List.hd (List.rev !sizes))
            end
            else begin
              p.first.(b) <- !carve_from;
              sizes := (b, block_size p b) :: !sizes
            end;
            (* worklist rule: if b is pending, all parts must be processed;
               otherwise all but one largest part *)
            if on_worklist.(b) then
              List.iter (fun (blk, _) -> push blk) !sizes
            else begin
              let largest, _ =
                List.fold_left
                  (fun (bl, sz) (blk, s) -> if s > sz then (blk, s) else (bl, sz))
                  (-1, -1) !sizes
              in
              List.iter (fun (blk, _) -> if blk <> largest then push blk) !sizes
            end)
      !touched_blocks;
    (* 4. reset scratch *)
    List.iter (fun s -> is_touched.(s) <- false) !touched;
    touched := [];
    touched_blocks := []
  done;
  (* renumber blocks densely in state order for a stable result *)
  let renumber = Array.make p.n_blocks (-1) in
  let n_blocks = ref 0 in
  let block_of =
    Array.init n (fun s ->
        let b = p.block_of.(s) in
        if renumber.(b) < 0 then begin
          renumber.(b) <- !n_blocks;
          incr n_blocks
        end;
        renumber.(b))
  in
  let n_blocks = !n_blocks in
  let blocks = block_members block_of n_blocks in
  (* quotient rates: any member serves as representative *)
  let b = Sparse.Builder.create ~rows:n_blocks ~cols:n_blocks in
  Array.iteri
    (fun blk members ->
      match members with
      | [] -> ()
      | rep :: _ ->
          let per_block = Hashtbl.create 8 in
          Sparse.iter_row (Chain.rates m) rep (fun j r ->
              let tb = block_of.(j) in
              if tb <> blk then begin
                let cur = try Hashtbl.find per_block tb with Not_found -> 0. in
                Hashtbl.replace per_block tb (cur +. r)
              end);
          Hashtbl.iter (fun tb r -> Sparse.Builder.add b blk tb r) per_block)
    blocks;
  let init = Vec.zeros n_blocks in
  Array.iteri
    (fun s pr -> init.(block_of.(s)) <- init.(block_of.(s)) +. pr)
    (Chain.initial m);
  let quotient = Chain.make ~init (Sparse.Builder.to_csr b) in
  { block_of; blocks; quotient }

let lift (r : result) v =
  let n = Array.length r.block_of in
  if Vec.dim v <> Array.length r.blocks then invalid_arg "Lumping.lift: dimension";
  Array.init n (fun s -> v.(r.block_of.(s)))

let project (r : result) v =
  let nb = Array.length r.blocks in
  if Vec.dim v <> Array.length r.block_of then invalid_arg "Lumping.project: dimension";
  let out = Vec.zeros nb in
  Array.iteri (fun s x -> out.(r.block_of.(s)) <- out.(r.block_of.(s)) +. x) v;
  out
