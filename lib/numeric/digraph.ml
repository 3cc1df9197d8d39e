let vertex_count g =
  let n = Sparse.rows g in
  if Sparse.cols g <> n then invalid_arg "Digraph: matrix not square";
  n

(* Iterative Tarjan over the CSR arrays. A DFS frame is a vertex and the
   position of the next entry of its row to try; positions run from the
   row's last entry down to its first, the successor order of the
   prepend-built adjacency lists this replaces, so component numbering
   (and with it every SCC-ordered solve) is unchanged. The vertex stack
   is an array: an SCC's members are the slice above its root, in
   discovery order. *)
let sccs g =
  let n = vertex_count g in
  let index = Array.make n (-1) and lowlink = Array.make n 0 in
  let on_stack = Array.make n false and comp = Array.make n (-1) in
  let stack = Array.make n 0 and sp = ref 0 in
  let frame_v = Array.make n 0 and frame_p = Array.make n 0 and fp = ref 0 in
  let next_index = ref 0 and members_rev = ref [] and comp_count = ref 0 in
  let push v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack.(!sp) <- v;
    incr sp;
    on_stack.(v) <- true;
    frame_v.(!fp) <- v;
    frame_p.(!fp) <- Sparse.row_start g (v + 1) - 1;
    incr fp
  in
  for root = 0 to n - 1 do
    if index.(root) = -1 then begin
      push root;
      while !fp > 0 do
        let top = !fp - 1 in
        let v = frame_v.(top) and p = frame_p.(top) in
        if p >= Sparse.row_start g v then begin
          frame_p.(top) <- p - 1;
          let w = Sparse.col_at g p in
          if index.(w) = -1 then push w
          else if on_stack.(w) then lowlink.(v) <- Int.min lowlink.(v) index.(w)
        end
        else begin
          fp := top;
          if lowlink.(v) = index.(v) then begin
            (* v is the root of an SCC: pop it off the vertex stack *)
            let hi = !sp in
            let rec pop () =
              decr sp;
              let w = stack.(!sp) in
              on_stack.(w) <- false;
              comp.(w) <- !comp_count;
              if w <> v then pop ()
            in
            pop ();
            members_rev := Array.sub stack !sp (hi - !sp) :: !members_rev;
            incr comp_count
          end;
          if top > 0 then begin
            let parent = frame_v.(top - 1) in
            lowlink.(parent) <- Int.min lowlink.(parent) lowlink.(v)
          end
        end
      done
    end
  done;
  (comp, Array.of_list (List.rev !members_rev))

let bottom_sccs g (comp, members) =
  let n = vertex_count g in
  if Array.length comp <> n then
    invalid_arg "Digraph.bottom_sccs: decomposition of another graph";
  let has_exit = Array.make (Array.length members) false in
  for u = 0 to n - 1 do
    let cu = comp.(u) in
    for p = Sparse.row_start g u to Sparse.row_start g (u + 1) - 1 do
      if comp.(Sparse.col_at g p) <> cu then has_exit.(cu) <- true
    done
  done;
  let out = ref [] in
  for c = Array.length members - 1 downto 0 do
    if not has_exit.(c) then out := members.(c) :: !out
  done;
  Array.of_list !out

let reachable ?(enter = fun _ -> true) g seeds =
  let seen = Array.make (vertex_count g) false and queue = Queue.create () in
  let mark v =
    seen.(v) <- true;
    Queue.add v queue
  in
  List.iter (fun s -> if not seen.(s) then mark s) seeds;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    for p = Sparse.row_start g u to Sparse.row_start g (u + 1) - 1 do
      let v = Sparse.col_at g p in
      if (not seen.(v)) && enter v then mark v
    done
  done;
  seen
