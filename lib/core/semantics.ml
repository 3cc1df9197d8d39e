module Vec = Numeric.Vec
module Sparse = Numeric.Sparse
module Intern = Numeric.Intern
module Chain = Ctmc.Chain

type state = {
  up : bool array;
  in_repair : int list array;
  queue : int list array;
  stage : int array;
      (* completed Erlang repair stages per component (0 when repair has not
         progressed); only ever non-zero for components with repair_stages
         greater than 1 *)
  failed_mode : int array;
      (* index of the active failure mode per component (0 = the primary
         mode; only meaningful while the component is down) *)
}

exception Build_error of string

let () =
  Printexc.register_printer (function
    | Build_error msg -> Some (Printf.sprintf "Core.Semantics.Build_error (%s)" msg)
    | _ -> None)

let error fmt = Printf.ksprintf (fun msg -> raise (Build_error msg)) fmt

(* A bit field of a packed state key: [(key.(word) lsr shift) land mask].
   Zero-width fields (mask 0) hold only 0. *)
type field = { word : int; shift : int; mask : int }

(* Static per-model data precomputed once per build: component names are
   resolved to index arrays, rates to per-mode tables, and the packed key
   layout is fixed.

   Packed layout: per component an up bit, a failure-mode field and a
   completed-stage field (each only as wide as the component needs); per
   repair unit [min crews members] in-repair slots and [members] queue
   slots, each holding the member's position in the unit plus one (0 =
   empty), the lists packed from slot 0. Fields never straddle words; the
   key is [width] words of 62 bits. *)
type ctx = {
  comps : Component.t array;
  modes : Component.failure_mode array array; (* per component *)
  index : (string, int) Hashtbl.t;
  rus : Repair.t array;
  ru_of : int array; (* repair-unit index per component, -1 when none *)
  rank : int array array;
      (* scheduling rank per component and failure mode (0 when no RU);
         under FRF/FFF the mode determines the repair/failure rate and
         hence the priority *)
  members : int array array; (* per unit, member components in unit order *)
  member_pos : int array; (* per component, its position in [members] *)
  fail_rate : float array array; (* per component and mode *)
  stage_rate : float array array; (* per component and mode *)
  spare_group : int array array;
      (* per component, the members of its spare unit ([||] when none) *)
  spare_needed : int array; (* per component, its spare unit's primary count *)
  dormancy : float array; (* per component, its spare unit's factor *)
  width : int;
  up_f : field array;
  mode_f : field array;
  stage_f : field array;
  rep_f : field array array; (* per unit, in-repair slots *)
  queue_f : field array array; (* per unit, queue slots *)
  groups : int array array;
      (* interchangeable components, ascending, by which a symmetric build
         reduces ([||] on a full build) *)
  merged : bool array;
      (* per group, whether its members' distinct Priority ranks were
         merged into one, so that the full chain queues them in rank order *)
  group_of : int array; (* per component, its group or -1 *)
  unit_groups : int array array; (* per unit, the groups of its members *)
  loose_groups : int array; (* the groups of components in no unit *)
}

let is_dedicated ru = ru.Repair.strategy = Repair.Dedicated

(* bits needed to store the values 0 .. v *)
let bits_for v =
  let rec go b = if v lsr b = 0 then b else go (b + 1) in
  go 0

let make_ctx model =
  let comps = Array.of_list model.Model.components in
  let index = Hashtbl.create (Array.length comps) in
  Array.iteri (fun i c -> Hashtbl.replace index c.Component.name i) comps;
  let find name = Hashtbl.find index name in
  let modes = Array.map (fun c -> Array.of_list (Component.modes c)) comps in
  let rus = Array.of_list model.Model.repair_units in
  let n = Array.length comps in
  let members =
    Array.map (fun ru -> Array.of_list (List.map find ru.Repair.components)) rus
  in
  let ru_of = Array.make n (-1) and member_pos = Array.make n (-1) in
  Array.iteri
    (fun u m ->
      Array.iteri
        (fun p i ->
          ru_of.(i) <- u;
          member_pos.(i) <- p)
        m)
    members;
  (* per-unit rank tables: distinct rate values across every (component,
     mode) pair of the unit, ascending *)
  let rank = Array.init n (fun i -> Array.make (Array.length modes.(i)) 0) in
  Array.iteri
    (fun u ru ->
      let value_of i m =
        match ru.Repair.strategy with
        | Repair.Dedicated | Repair.Fcfs -> 0.
        | Repair.Frf -> modes.(i).(m).Component.fm_mttr
        | Repair.Fff -> modes.(i).(m).Component.fm_mttf
        | Repair.Priority order ->
            let rec position p = function
              | [] -> 0.
              | c :: rest ->
                  if c = comps.(i).Component.name then float_of_int p
                  else position (p + 1) rest
            in
            position 0 order
      in
      let values =
        List.sort_uniq compare
          (List.concat_map
             (fun i ->
               List.init (Array.length modes.(i)) (fun m -> value_of i m))
             (Array.to_list members.(u)))
      in
      let rank_of v =
        let rec position p = function
          | [] -> 0
          | x :: rest -> if x = v then p else position (p + 1) rest
        in
        position 0 values
      in
      Array.iter
        (fun i ->
          Array.iteri (fun m _ -> rank.(i).(m) <- rank_of (value_of i m)) modes.(i))
        members.(u))
    rus;
  let spare_group = Array.make n [||]
  and spare_needed = Array.make n 0
  and dormancy = Array.make n 1. in
  Array.iteri
    (fun i c ->
      match Model.spare_unit_of model c.Component.name with
      | None -> ()
      | Some smu ->
          spare_group.(i) <- Array.of_list (List.map find (Spare.members smu));
          spare_needed.(i) <- List.length smu.Spare.primaries;
          dormancy.(i) <- Spare.dormancy_factor smu)
    comps;
  (* key layout *)
  let word = ref 0 and used = ref 0 in
  let field values =
    (* a field holding 0 .. values - 1 *)
    let bits = bits_for (values - 1) in
    if bits = 0 then { word = 0; shift = 0; mask = 0 }
    else begin
      if !used + bits > 62 then begin
        incr word;
        used := 0
      end;
      let f = { word = !word; shift = !used; mask = (1 lsl bits) - 1 } in
      used := !used + bits;
      f
    end
  in
  let up_f = Array.init n (fun _ -> field 2) in
  let mode_f = Array.init n (fun i -> field (Array.length modes.(i))) in
  let stage_f =
    Array.init n (fun i ->
        field
          (Array.fold_left
             (fun acc fm -> max acc fm.Component.fm_repair_stages)
             1 modes.(i)))
  in
  let slots u cap =
    Array.init cap (fun _ -> field (Array.length members.(u) + 1))
  in
  let rep_f =
    Array.mapi
      (fun u ru ->
        if is_dedicated ru || ru.Repair.preemptive then [||]
        else slots u (min ru.Repair.crews (Array.length members.(u))))
      rus
  in
  let queue_f =
    Array.mapi
      (fun u ru ->
        if is_dedicated ru then [||] else slots u (Array.length members.(u)))
      rus
  in
  {
    comps;
    modes;
    index;
    rus;
    ru_of;
    rank;
    members;
    member_pos;
    fail_rate = Array.map (Array.map Component.mode_failure_rate) modes;
    stage_rate = Array.map (Array.map Component.mode_stage_rate) modes;
    spare_group;
    spare_needed;
    dormancy;
    width = !word + 1;
    up_f;
    mode_f;
    stage_f;
    rep_f;
    queue_f;
    groups = [||];
    merged = [||];
    group_of = Array.make n (-1);
    unit_groups = Array.make (Array.length rus) [||];
    loose_groups = [||];
  }

let component_count ctx = Array.length ctx.comps

(* --- Packed keys ------------------------------------------------------ *)

let[@inline] get key off f = (key.(off + f.word) lsr f.shift) land f.mask

let[@inline] set key off f v =
  let p = off + f.word in
  key.(p) <- key.(p) land lnot (f.mask lsl f.shift) lor (v lsl f.shift)

(* Write a record state into [key]; false when it does not fit the layout
   (wrong dimensions, an unknown mode, a list entry that is not a member
   of its unit, a component listed twice, or a list longer than its
   slots). *)
let encode ctx st key =
  let n = component_count ctx and nu = Array.length ctx.rus in
  Array.fill key 0 ctx.width 0;
  let listed = Array.make n false in
  let write_list u slots l =
    List.length l <= Array.length slots
    && List.for_all
         (fun x ->
           let fresh = x >= 0 && x < n && ctx.ru_of.(x) = u && not listed.(x) in
           if fresh then listed.(x) <- true;
           fresh)
         l
    && begin
         List.iteri (fun k x -> set key 0 slots.(k) (ctx.member_pos.(x) + 1)) l;
         true
       end
  in
  Array.length st.up = n
  && Array.length st.stage = n
  && Array.length st.failed_mode = n
  && Array.length st.in_repair = nu
  && Array.length st.queue = nu
  && begin
       let ok = ref true in
       for i = 0 to n - 1 do
         let m = st.failed_mode.(i) and k = st.stage.(i) in
         if m >= 0 && m < Array.length ctx.modes.(i)
            && k >= 0 && k <= ctx.stage_f.(i).mask
         then begin
           set key 0 ctx.up_f.(i) (if st.up.(i) then 1 else 0);
           set key 0 ctx.mode_f.(i) m;
           set key 0 ctx.stage_f.(i) k
         end
         else ok := false
       done;
       for u = 0 to nu - 1 do
         if not (write_list u ctx.rep_f.(u) st.in_repair.(u)
                 && write_list u ctx.queue_f.(u) st.queue.(u))
         then ok := false
       done;
       !ok
     end

(* Unpack the list in [slots] of unit [u] into [dst] as component
   indices; returns its length. *)
let unpack_list ctx key off u slots dst =
  let len = ref 0 in
  while !len < Array.length slots && get key off slots.(!len) <> 0 do
    dst.(!len) <- ctx.members.(u).(get key off slots.(!len) - 1);
    incr len
  done;
  !len

let read_list ctx key off u slots =
  let dst = Array.make (Array.length slots) 0 in
  let len = unpack_list ctx key off u slots dst in
  Array.to_list (Array.sub dst 0 len)

let decode ctx key off =
  let n = component_count ctx in
  {
    up = Array.init n (fun i -> get key off ctx.up_f.(i) = 1);
    in_repair = Array.mapi (fun u slots -> read_list ctx key off u slots) ctx.rep_f;
    queue = Array.mapi (fun u slots -> read_list ctx key off u slots) ctx.queue_f;
    stage = Array.init n (fun i -> get key off ctx.stage_f.(i));
    failed_mode = Array.init n (fun i -> get key off ctx.mode_f.(i));
  }

(* The components unit [u] is currently repairing: dedicated units every
   failed member; preemptive units the head of the canonical queue (it is
   rank-sorted with FCFS inside each class, so the crews work on its
   prefix); other units their in-repair list. *)
let repairing ctx key off u =
  let ru = ctx.rus.(u) in
  if is_dedicated ru then
    List.filter
      (fun i -> get key off ctx.up_f.(i) = 0)
      (Array.to_list ctx.members.(u))
  else if ru.Repair.preemptive then
    List.filteri
      (fun k _ -> k < ru.Repair.crews)
      (read_list ctx key off u ctx.queue_f.(u))
  else read_list ctx key off u ctx.rep_f.(u)

(* --- Symmetry ----------------------------------------------------------- *)

(* Permuting the members of a group maps states to states with the same
   total rates into every orbit (the members share every parameter, the
   trees are invariant, and {!with_groups} admits spare and Priority units
   only where their order among the members does not matter), so a
   symmetric build keeps one canonical key per orbit. A member's
   sort key packs, in this order of significance: up bit, failure mode,
   completed stages, in-repair flag and queue position plus one (0 when not
   queued). Members with equal sort keys are interchangeable within the
   state, so the canonical key does not depend on how ties are broken.

   In a canonical key each group lists its members' states in ascending
   sort key and every in-repair list is sorted by component index. The
   members of a group share their repair unit, so a group's sort keys
   depend only on its members' fields and its unit's lists, and
   canonicalizing works on one unit's groups at a time. *)
type sym = {
  sort_key : int array; (* per component *)
  perm : int array;
      (* per component, its image under the canonical map; the identity
         outside [canonicalize_groups] *)
  order : int array; (* per group member, scratch *)
  saved : int array; (* three saved fields per group member, scratch *)
  live : bool array; (* per group, its sort keys are being filled *)
  touched : int array; (* the groups an event touched, scratch *)
  expanded : int array;
      (* per grouped component, its sort key in the key last passed to
         [orbit_size] *)
}

let make_sym ctx =
  let n = component_count ctx and ng = Array.length ctx.groups in
  let k = Array.fold_left (fun acc g -> max acc (Array.length g)) 0 ctx.groups in
  {
    sort_key = Array.make n 0;
    perm = Array.init n Fun.id;
    order = Array.make k 0;
    saved = Array.make (3 * k) 0;
    live = Array.make ng false;
    touched = Array.make ng 0;
    expanded = Array.make n 0;
  }

let[@inline] add_sort_key ctx sym x d =
  let g = ctx.group_of.(x) in
  if g >= 0 && sym.live.(g) then sym.sort_key.(x) <- sym.sort_key.(x) + d

(* Fill [sym.sort_key] for the members of the groups [gs.(0 .. ng-1)], all
   of unit [u] (of no unit when [u < 0]): mixed-radix digits up, mode,
   stage, then in-repair (radix 2) and queue position plus one (radix [q],
   more than any unit's member count). *)
let sort_keys ctx sym key off u gs ng =
  let q = component_count ctx + 1 in
  for t = 0 to ng - 1 do
    let g = ctx.groups.(gs.(t)) in
    sym.live.(gs.(t)) <- true;
    for j = 0 to Array.length g - 1 do
      let i = g.(j) in
      let mode = ctx.mode_f.(i) and stage = ctx.stage_f.(i) in
      sym.sort_key.(i) <-
        ((((get key off ctx.up_f.(i) * (mode.mask + 1)) + get key off mode)
          * (stage.mask + 1))
        + get key off stage)
        * 2 * q
    done
  done;
  if u >= 0 then begin
    let rep = ctx.rep_f.(u) and queue = ctx.queue_f.(u) in
    let p = ref 0 in
    while !p < Array.length rep && get key off rep.(!p) <> 0 do
      add_sort_key ctx sym ctx.members.(u).(get key off rep.(!p) - 1) q;
      incr p
    done;
    p := 0;
    while !p < Array.length queue && get key off queue.(!p) <> 0 do
      add_sort_key ctx sym ctx.members.(u).(get key off queue.(!p) - 1) (!p + 1);
      incr p
    done
  end;
  for t = 0 to ng - 1 do
    sym.live.(gs.(t)) <- false
  done

let is_sorted sym g =
  let j = ref 1 in
  while !j < Array.length g && sym.sort_key.(g.(!j - 1)) <= sym.sort_key.(g.(!j)) do
    incr j
  done;
  !j >= Array.length g

(* [sym.order.(0 .. k-1)]: the member positions of group [g] stably sorted
   by sort key *)
let sort_group sym g =
  let k = Array.length g in
  for j = 0 to k - 1 do
    let v = sym.sort_key.(g.(j)) in
    let q = ref (j - 1) in
    while !q >= 0 && sym.sort_key.(g.(sym.order.(!q))) > v do
      sym.order.(!q + 1) <- sym.order.(!q);
      decr q
    done;
    sym.order.(!q + 1) <- j
  done

(* Move the up, mode and stage fields of group [g]'s members into sort-key
   order, recording each member's image in [sym.perm]. *)
let permute_group ctx sym key off g =
  let k = Array.length g in
  sort_group sym g;
  for j = 0 to k - 1 do
    let src = g.(sym.order.(j)) in
    sym.perm.(src) <- g.(j);
    sym.saved.(3 * j) <- get key off ctx.up_f.(src);
    sym.saved.((3 * j) + 1) <- get key off ctx.mode_f.(src);
    sym.saved.((3 * j) + 2) <- get key off ctx.stage_f.(src)
  done;
  for j = 0 to k - 1 do
    set key off ctx.up_f.(g.(j)) sym.saved.(3 * j);
    set key off ctx.mode_f.(g.(j)) sym.saved.((3 * j) + 1);
    set key off ctx.stage_f.(g.(j)) sym.saved.((3 * j) + 2)
  done

(* Remap unit [u]'s in-repair and queue slots through [sym.perm]: the
   in-repair list re-sorted by component index, the queue in its order. *)
let remap_slots ctx sym key off u slots =
  let p = ref 0 in
  while !p < Array.length slots && get key off slots.(!p) <> 0 do
    let x = ctx.members.(u).(get key off slots.(!p) - 1) in
    set key off slots.(!p) (ctx.member_pos.(sym.perm.(x)) + 1);
    incr p
  done;
  !p

let remap_unit ctx sym key off u =
  let members = ctx.members.(u) and rslots = ctx.rep_f.(u) in
  let len = remap_slots ctx sym key off u rslots in
  for p = 1 to len - 1 do
    let v = get key off rslots.(p) in
    let q = ref (p - 1) in
    while !q >= 0 && members.(get key off rslots.(!q) - 1) > members.(v - 1) do
      set key off rslots.(!q + 1) (get key off rslots.(!q));
      decr q
    done;
    set key off rslots.(!q + 1) v
  done;
  ignore (remap_slots ctx sym key off u ctx.queue_f.(u))

(* Canonicalize the groups [gs.(0 .. ng-1)] of unit [u] in the key at
   [off]: a group whose sort keys are out of order is stably sorted (a
   sorted one would not move) and the unit's lists follow its members.
   [force] remaps and re-sorts the lists even when no group moved, for
   keys whose in-repair lists may be unsorted. *)
let canonicalize_groups ctx sym key off u gs ng ~force =
  sort_keys ctx sym key off u gs ng;
  let moved = ref false in
  for t = 0 to ng - 1 do
    let g = ctx.groups.(gs.(t)) in
    if not (is_sorted sym g) then begin
      permute_group ctx sym key off g;
      moved := true
    end
  done;
  if u >= 0 && (!moved || force) then remap_unit ctx sym key off u;
  if !moved then
    for t = 0 to ng - 1 do
      let g = ctx.groups.(gs.(t)) in
      for j = 0 to Array.length g - 1 do
        sym.perm.(g.(j)) <- g.(j)
      done
    done

(* Rewrite the key at [off], whatever its form, to its orbit's canonical
   key. *)
let canonicalize ctx sym key off =
  Array.iteri
    (fun u gs -> canonicalize_groups ctx sym key off u gs (Array.length gs) ~force:true)
    ctx.unit_groups;
  canonicalize_groups ctx sym key off (-1) ctx.loose_groups
    (Array.length ctx.loose_groups) ~force:true

(* The number of full states in the orbit of the canonical key at [off]:
   per group, the multinomial of its members' equal sort keys, which a
   canonical key lists in ascending order. The full chain queues the
   members of a merged group in rank order, so of the [q]! ways to give
   its [q] queued members their (distinct) positions, one is reachable.
   Keeps the sort keys in [sym.expanded]. *)
let orbit_size ctx sym key off =
  Array.iteri
    (fun u gs -> sort_keys ctx sym key off u gs (Array.length gs))
    ctx.unit_groups;
  sort_keys ctx sym key off (-1) ctx.loose_groups (Array.length ctx.loose_groups);
  Array.blit sym.sort_key 0 sym.expanded 0 (Array.length sym.sort_key);
  (* the radix of the queue digit: a queued member's sort key is not a
     multiple of it *)
  let radix = component_count ctx + 1 in
  let size = ref 1 in
  for t = 0 to Array.length ctx.groups - 1 do
    let g = ctx.groups.(t) in
    (* the multinomial k! / prod (run length)!, one exact factor
       (j + 1) / (position in its run) per member, over q! *)
    let m = ref 1 and run = ref 0 and queued = ref 0 in
    for j = 0 to Array.length g - 1 do
      if j > 0 && sym.sort_key.(g.(j)) = sym.sort_key.(g.(j - 1)) then incr run
      else run := 1;
      m := !m * (j + 1) / !run;
      if ctx.merged.(t) && sym.sort_key.(g.(j)) mod radix <> 0 then begin
        incr queued;
        m := !m / !queued
      end
    done;
    size := !size * !m
  done;
  !size

(* --- Successor generation --------------------------------------------- *)

(* The state being expanded, unpacked once: per-component fields and the
   units' lists as component indices. *)
type work = {
  w_up : bool array;
  w_mode : int array;
  w_stage : int array;
  w_rep : int array array;
  w_rep_len : int array;
  w_queue : int array array;
  w_queue_len : int array;
  w_tmp : int array;
  (* successors of the expanded state, [width] words each *)
  keys : int array;
  rates : float array;
  event : int array; (* per successor, the component that failed or progressed *)
  mode : int array; (* per successor, the failure mode, or -1 for a repair *)
  dispatched : int array;
      (* per successor, how many queue heads its repair dispatched *)
  mutable count : int;
  seen : int array; (* [out_degree]'s hash table, -1 = free *)
  nonzero : bool array; (* per successor, [out_degree] scratch *)
}

let make_work ctx =
  let n = component_count ctx in
  let sizes = Array.map Array.length ctx.members in
  (* one successor per failure mode of every component, plus at most one
     repair event per component *)
  let max_succ =
    Array.fold_left (fun acc m -> acc + Array.length m) n ctx.modes
  in
  {
    w_up = Array.make n true;
    w_mode = Array.make n 0;
    w_stage = Array.make n 0;
    w_rep = Array.map (fun k -> Array.make k 0) sizes;
    w_rep_len = Array.make (Array.length sizes) 0;
    w_queue = Array.map (fun k -> Array.make k 0) sizes;
    w_queue_len = Array.make (Array.length sizes) 0;
    w_tmp = Array.make (Array.fold_left max 0 sizes) 0;
    keys = Array.make (max_succ * ctx.width) 0;
    rates = Array.make max_succ 0.;
    event = Array.make max_succ 0;
    mode = Array.make max_succ 0;
    dispatched = Array.make max_succ 0;
    count = 0;
    seen = Array.make (1 lsl bits_for (2 * max_succ)) (-1);
    nonzero = Array.make max_succ false;
  }

let unpack ctx w key =
  for i = 0 to component_count ctx - 1 do
    w.w_up.(i) <- get key 0 ctx.up_f.(i) = 1;
    w.w_mode.(i) <- get key 0 ctx.mode_f.(i);
    w.w_stage.(i) <- get key 0 ctx.stage_f.(i)
  done;
  for u = 0 to Array.length ctx.rus - 1 do
    w.w_rep_len.(u) <- unpack_list ctx key 0 u ctx.rep_f.(u) w.w_rep.(u);
    w.w_queue_len.(u) <- unpack_list ctx key 0 u ctx.queue_f.(u) w.w_queue.(u)
  done

(* Start a successor as a copy of [cur], by the failure of component [i]
   in mode [m] or by its repair progressing ([m = -1]); returns its offset
   in [w.keys]. *)
let push ctx w cur i m rate =
  let k = w.count in
  let off = k * ctx.width in
  for f = 0 to ctx.width - 1 do
    w.keys.(off + f) <- cur.(f)
  done;
  w.rates.(k) <- rate;
  w.event.(k) <- i;
  w.mode.(k) <- m;
  w.dispatched.(k) <- 0;
  w.count <- k + 1;
  off

(* Write [slots] from the list [src.(0 .. len-1)] with [i] inserted before
   the first entry that sorts after it (the slots from [len + 1] on are
   already empty). Queues sort by scheduling rank ([by_rank], [i] having
   rank [rank]), FCFS within a rank class; in-repair lists sort by
   component index. *)
let write_inserted ctx w key off slots src len i ~by_rank ~rank =
  let o = ref 0 in
  for p = 0 to len - 1 do
    let x = src.(p) in
    if !o = p
       && (if by_rank then ctx.rank.(x).(w.w_mode.(x)) > rank else i < x)
    then begin
      set key off slots.(p) (ctx.member_pos.(i) + 1);
      incr o
    end;
    set key off slots.(!o) (ctx.member_pos.(x) + 1);
    incr o
  done;
  if !o = len then set key off slots.(len) (ctx.member_pos.(i) + 1)

(* Queues are kept in canonical form: stably sorted by scheduling rank.
   Dispatch only ever takes the queue head (minimal rank, earliest arrival
   within its rank class), so two states whose queues differ only in the
   interleaving of different rank classes are bisimilar; canonicalizing at
   insertion collapses them and shrinks the state space by orders of
   magnitude on models with many rate classes. *)
let enqueue ctx w key off u i rank =
  write_inserted ctx w key off ctx.queue_f.(u) w.w_queue.(u) w.w_queue_len.(u)
    i ~by_rank:true ~rank

let start_repair ctx w key off u i =
  write_inserted ctx w key off ctx.rep_f.(u) w.w_rep.(u) w.w_rep_len.(u) i
    ~by_rank:false ~rank:0

(* Failure-rate multiplier of component [i]: 1 unless it is a dormant
   member of a spare unit. Walking the unit's members in order, each
   operational one is active while fewer than [needed] are. *)
let failure_factor ctx w i =
  let group = ctx.spare_group.(i) in
  if Array.length group = 0 then 1.
  else begin
    let active = ref 0 and p = ref 0 in
    while group.(!p) <> i do
      if w.w_up.(group.(!p)) && !active < ctx.spare_needed.(i) then incr active;
      incr p
    done;
    if w.w_up.(i) && !active < ctx.spare_needed.(i) then 1. else ctx.dormancy.(i)
  end

let fail ctx w cur i m factor =
  let off = push ctx w cur i m (ctx.fail_rate.(i).(m) *. factor) in
  let key = w.keys in
  set key off ctx.up_f.(i) 0;
  set key off ctx.mode_f.(i) m;
  let u = ctx.ru_of.(i) in
  if u >= 0 then begin
    let ru = ctx.rus.(u) in
    if is_dedicated ru then ()
    else if ru.Repair.preemptive || w.w_rep_len.(u) >= ru.Repair.crews then
      enqueue ctx w key off u i ctx.rank.(i).(m)
    else start_repair ctx w key off u i
  end

(* Repairs are Erlang-[k] distributed: each of the [k] stages completes at
   rate [k / mttr]; the state tracks the completed-stage count, so an
   interrupted repair resumes where it stopped (preemptive-resume; for
   k = 1 this is the memoryless case). *)
let repair ctx w cur u i =
  let ru = ctx.rus.(u) in
  let m = w.w_mode.(i) in
  let off = push ctx w cur i (-1) ctx.stage_rate.(i).(m) in
  let key = w.keys in
  if w.w_stage.(i) < ctx.modes.(i).(m).Component.fm_repair_stages - 1 then
    (* an intermediate stage completes *)
    set key off ctx.stage_f.(i) (w.w_stage.(i) + 1)
  else begin
    (* the final stage completes: the component is repaired *)
    set key off ctx.up_f.(i) 1;
    set key off ctx.stage_f.(i) 0;
    set key off ctx.mode_f.(i) 0;
    let queue = w.w_queue.(u) and qlen = w.w_queue_len.(u) in
    let qslots = ctx.queue_f.(u) in
    if is_dedicated ru then ()
    else if ru.Repair.preemptive then begin
      let o = ref 0 in
      for p = 0 to qlen - 1 do
        if queue.(p) <> i then begin
          set key off qslots.(!o) (ctx.member_pos.(queue.(p)) + 1);
          incr o
        end
      done;
      for k = !o to qlen - 1 do
        set key off qslots.(k) 0
      done
    end
    else begin
      (* free the crew, then dispatch free crews to the queue head *)
      let busy = w.w_tmp and len = ref 0 in
      for p = 0 to w.w_rep_len.(u) - 1 do
        let x = w.w_rep.(u).(p) in
        if x <> i then begin
          busy.(!len) <- x;
          incr len
        end
      done;
      let head = ref 0 in
      while !len < ru.Repair.crews && !head < qlen do
        let chosen = queue.(!head) in
        let q = ref !len in
        while !q > 0 && busy.(!q - 1) > chosen do
          busy.(!q) <- busy.(!q - 1);
          decr q
        done;
        busy.(!q) <- chosen;
        incr len;
        incr head
      done;
      w.dispatched.(w.count - 1) <- !head;
      (* only the slots of the old lists can change *)
      let rslots = ctx.rep_f.(u) in
      for k = 0 to Int.max !len w.w_rep_len.(u) - 1 do
        set key off rslots.(k)
          (if k < !len then ctx.member_pos.(busy.(k)) + 1 else 0)
      done;
      for k = 0 to qlen - 1 do
        set key off qslots.(k)
          (if !head + k < qlen then ctx.member_pos.(queue.(!head + k)) + 1
           else 0)
      done
    end
  end

(* Fill [w.keys]/[w.rates] with the transitions out of [cur] (unpacked in
   [w]), in generation order: failures by component and mode, then repair
   progress and completions by unit. *)
let successors ctx w cur =
  w.count <- 0;
  for i = 0 to component_count ctx - 1 do
    if w.w_up.(i) then begin
      let factor = failure_factor ctx w i in
      if factor > 0. then
        for m = 0 to Array.length ctx.modes.(i) - 1 do
          fail ctx w cur i m factor
        done
    end
  done;
  for u = 0 to Array.length ctx.rus - 1 do
    let ru = ctx.rus.(u) in
    if is_dedicated ru then
      for p = 0 to Array.length ctx.members.(u) - 1 do
        let i = ctx.members.(u).(p) in
        if not w.w_up.(i) then repair ctx w cur u i
      done
    else if ru.Repair.preemptive then
      for p = 0 to Int.min ru.Repair.crews w.w_queue_len.(u) - 1 do
        repair ctx w cur u w.w_queue.(u).(p)
      done
    else
      for p = 0 to w.w_rep_len.(u) - 1 do
        repair ctx w cur u w.w_rep.(u).(p)
      done
  done

(* --- Observations ------------------------------------------------------ *)

(* A fault or service tree with its basic events resolved to (component,
   mode) pairs; mode -1 matches any failure mode. *)
type ctree =
  | Leaf of int * int
  | All of ctree list
  | Any of ctree list
  | Atleast of int * ctree list

type packed = {
  ctx : ctx;
  table : Intern.t;
  fault : ctree;
  service : ctree;
  levels : float array option Atomic.t;  (* per state, on first use *)
}

type built = {
  model : Model.t;
  chain : Chain.t;
  packed : packed;
  component_index : string -> int;
  state_index : state -> int option;
  full_size : int * int;
}

let resolve_component ctx name =
  match Hashtbl.find_opt ctx.index name with
  | Some i -> i
  | None -> error "unknown component %s" name

(* "c" is the component failed in any mode, "c:m" failed in mode m *)
let resolve_literal ctx literal =
  let name, mode_name = Model.split_literal literal in
  let i = resolve_component ctx name in
  match mode_name with
  | None -> (i, -1)
  | Some mn ->
      let rec position m =
        if m >= Array.length ctx.modes.(i) then
          error "unknown failure mode %s:%s" name mn
        else if ctx.modes.(i).(m).Component.fm_name = mn then m
        else position (m + 1)
      in
      (i, position 0)

let rec compile ctx = function
  | Fault_tree.Basic literal ->
      let i, m = resolve_literal ctx literal in
      Leaf (i, m)
  | Fault_tree.And inputs -> All (List.map (compile ctx) inputs)
  | Fault_tree.Or inputs -> Any (List.map (compile ctx) inputs)
  | Fault_tree.Kofn (k, inputs) -> Atleast (k, List.map (compile ctx) inputs)

(* --- Group detection ---------------------------------------------------- *)

(* [t] with components [a] and [b] exchanged, gate children in a fixed
   order: two trees are equal up to the order of gate children when their
   normal forms are. *)
let rec swapped a b = function
  | Leaf (i, m) -> Leaf ((if i = a then b else if i = b then a else i), m)
  | All gs -> All (List.sort compare (List.map (swapped a b) gs))
  | Any gs -> Any (List.sort compare (List.map (swapped a b) gs))
  | Atleast (k, gs) -> Atleast (k, List.sort compare (List.map (swapped a b) gs))

(* the position of [x] in [a] *)
let position a x =
  let rec go p = if a.(p) = x then p else go (p + 1) in
  go 0

(* [runs key joins xs]: [xs] sorted by [key], then component index, and
   cut before every member that does not [join] its predecessor's key *)
let runs key joins xs =
  let sorted = List.sort (fun i j -> compare (key i, i) (key j, j)) xs in
  List.rev_map List.rev
    (List.fold_left
       (fun acc i ->
         match acc with
         | (p :: _ as run) :: rest when joins (key p) (key i) -> (i :: run) :: rest
         | _ -> [ i ] :: acc)
       [] sorted)

(* [ctx] with its groups of interchangeable components, detected
   conservatively. Two components are alike when they share the repair
   unit and the spare unit, have equal failure modes (rates, stages,
   costs) and operational cost, and exchanging them leaves the fault and
   the service tree equal up to the order of gate children; alike is an
   equivalence. Each class of alike components is cut into pieces that
   are exact, and every piece of two or more is a group:
   - members of a cold spare unit form no group: a dormant member cannot
     fail, so some permutations of a reachable state are unreachable and
     the orbit count would exceed the full build's size;
   - in a warm spare unit, a group's members are contiguous in the unit's
     member order (a member's dormancy depends on how many members before
     it are up);
   - the members share the rank of every mode, or they are single-mode
     members of a Priority unit whose ranks fill an interval (no other
     member of the unit ranked between them) and the unit does not
     preempt Erlang repairs. Their ranks are then merged into the lowest:
     FCFS order among them stands for the full chain's rank order.
   The pieces depend on the class and the model only, not on the order in
   which the components are declared. The transpositions with one member
   generate every permutation of the group. *)
let with_groups ctx model =
  let n = component_count ctx in
  let fault = compile ctx model.Model.fault_tree
  and service = compile ctx (Model.service_tree model) in
  (* no component is numbered -1: this only sorts the gate children *)
  let normal t = swapped (-1) (-1) t in
  let fault_n = normal fault and service_n = normal service in
  let alike i j =
    ctx.ru_of.(i) = ctx.ru_of.(j)
    && ctx.modes.(i) = ctx.modes.(j)
    && ctx.comps.(i).Component.operational_cost = ctx.comps.(j).Component.operational_cost
    && ctx.spare_group.(i) = ctx.spare_group.(j)
    && swapped i j fault = fault_n
    && swapped i j service = service_n
  in
  (* [head.(i)]: the first member of [i]'s class *)
  let head = Array.make n (-1) in
  for i = 0 to n - 1 do
    let rec first h =
      if h = i then i else if head.(h) = h && alike h i then h else first (h + 1)
    in
    head.(i) <- first 0
  done;
  let same_rank g = List.for_all (fun i -> ctx.rank.(i) = ctx.rank.(List.hd g)) g in
  (* may distinct ranks of the alike members of [i]'s class be merged *)
  let mergeable i =
    let u = ctx.ru_of.(i) in
    u >= 0
    && (match ctx.rus.(u).Repair.strategy with Repair.Priority _ -> true | _ -> false)
    && Array.length ctx.modes.(i) = 1
    && not
         (ctx.rus.(u).Repair.preemptive
         && ctx.modes.(i).(0).Component.fm_repair_stages > 1)
  in
  let next a b = b <= a + 1 in
  (* cut [cls] until every piece is contiguous in its spare unit and its
     ranks are shared or fill an interval *)
  let rec pieces cls =
    let i = List.hd cls in
    let by_place =
      if ctx.dormancy.(i) = 1. then [ cls ]
      else runs (position ctx.spare_group.(i)) next cls
    in
    let by_rank =
      if same_rank cls then [ cls ]
      else if mergeable i then runs (fun i -> ctx.rank.(i).(0)) next cls
      else List.map (fun i -> [ i ]) cls
    in
    match (by_place, by_rank) with
    | [ _ ], [ _ ] -> [ cls ]
    | [ _ ], cut | cut, _ -> List.concat_map pieces cut
  in
  let groups =
    List.concat_map
      (fun h ->
        if head.(h) <> h || ctx.dormancy.(h) = 0. then []
        else
          List.filter_map
            (fun g ->
              if List.length g > 1 then Some (Array.of_list (List.sort compare g))
              else None)
            (pieces (List.filter (fun i -> head.(i) = h) (List.init n Fun.id))))
      (List.init n Fun.id)
  in
  (* listed by first member *)
  let groups = Array.of_list (List.sort (fun a b -> compare a.(0) b.(0)) groups) in
  let merged = Array.map (fun g -> not (same_rank (Array.to_list g))) groups in
  let rank = Array.copy ctx.rank in
  Array.iteri
    (fun k g ->
      if merged.(k) then begin
        let lo = Array.fold_left (fun r i -> min r ctx.rank.(i).(0)) max_int g in
        Array.iter (fun i -> rank.(i) <- [| lo |]) g
      end)
    groups;
  let group_of = Array.make n (-1) in
  Array.iteri (fun k g -> Array.iter (fun i -> group_of.(i) <- k) g) groups;
  (* a group's members share their unit *)
  let of_unit u =
    Array.of_list
      (List.filter (fun k -> ctx.ru_of.(groups.(k).(0)) = u)
         (List.init (Array.length groups) Fun.id))
  in
  {
    ctx with
    rank;
    groups;
    merged;
    group_of;
    unit_groups = Array.mapi (fun u _ -> of_unit u) ctx.rus;
    loose_groups = of_unit (-1);
  }

let field_at p s f = (Intern.get p.table s f.word lsr f.shift) land f.mask

let failed p s i m =
  field_at p s p.ctx.up_f.(i) = 0
  && (m < 0 || field_at p s p.ctx.mode_f.(i) = m)

let rec holds p s = function
  | Leaf (i, m) -> failed p s i m
  | All gs -> all_hold p s gs
  | Any gs -> any_holds p s gs
  | Atleast (k, gs) -> count_holding p s 0 gs >= k

and all_hold p s = function [] -> true | g :: gs -> holds p s g && all_hold p s gs

and any_holds p s = function [] -> false | g :: gs -> holds p s g || any_holds p s gs

and count_holding p s n = function
  | [] -> n
  | g :: gs -> count_holding p s (if holds p s g then n + 1 else n) gs

(* The quantitative service semantics of {!Fault_tree.eval_quantitative}
   (AND = min, OR = average, K-of-N = min 1 (sum / k)) with the same
   operation order, over operational literals. *)
let rec level p s = function
  | Leaf (i, m) -> if failed p s i m then 0. else 1.
  | All gs -> min_level p s infinity gs
  | Any gs -> sum_level p s 0. gs /. float_of_int (List.length gs)
  | Atleast (k, gs) -> Float.min 1. (sum_level p s 0. gs /. float_of_int k)

and min_level p s acc = function
  | [] -> acc
  | g :: gs -> min_level p s (Float.min acc (level p s g)) gs

and sum_level p s acc = function
  | [] -> acc
  | g :: gs -> sum_level p s (acc +. level p s g) gs

let all_up_state model =
  let n = List.length model.Model.components in
  let nru = List.length model.Model.repair_units in
  {
    up = Array.make n true;
    in_repair = Array.make nru [];
    queue = Array.make nru [];
    stage = Array.make n 0;
    failed_mode = Array.make n 0;
  }

(* the scheduling rank of a failed component in a given state *)
let current_rank ctx state i = ctx.rank.(i).(state.failed_mode.(i))

let disaster_state model ~failed =
  let ctx = make_ctx model in
  let n = component_count ctx in
  let state = all_up_state model in
  List.iter
    (fun literal ->
      let name, mode_name = Model.split_literal literal in
      match Hashtbl.find_opt ctx.index name with
      | Some i ->
          state.up.(i) <- false;
          (match mode_name with
          | None -> state.failed_mode.(i) <- 0
          | Some mn ->
              let rec position m = function
                | [] -> error "disaster_state: %s has no failure mode %s" name mn
                | fm :: rest ->
                    if fm.Component.fm_name = mn then m else position (m + 1) rest
              in
              state.failed_mode.(i) <- position 0 (Array.to_list ctx.modes.(i)))
      | None -> error "disaster_state: unknown component %s" name)
    failed;
  (* queue construction per unit: failed members ordered by (rank, model
     order); crews dispatched to the head *)
  Array.iteri
    (fun u ru ->
      if not (is_dedicated ru) then begin
        let failed_members = ref [] in
        for i = n - 1 downto 0 do
          if (not state.up.(i)) && ctx.ru_of.(i) = u then
            failed_members := i :: !failed_members
        done;
        let ordered =
          List.stable_sort
            (fun a b -> compare (current_rank ctx state a) (current_rank ctx state b))
            !failed_members
        in
        if ru.Repair.preemptive then state.queue.(u) <- ordered
        else begin
          let rec split k = function
            | [] -> ([], [])
            | x :: rest ->
                if k = 0 then ([], x :: rest)
                else
                  let taken, waiting = split (k - 1) rest in
                  (x :: taken, waiting)
          in
          let taken, waiting = split ru.Repair.crews ordered in
          state.in_repair.(u) <- List.sort compare taken;
          state.queue.(u) <- waiting
        end
      end)
    ctx.rus;
  state

(* The distinct successors of [cur] in [w] other than [cur] itself, with
   a non-zero total rate: the full chain's out-degree of [cur]. Equal
   successor keys meet in the open-addressing table [w.seen], which holds
   the first successor of each distinct key. *)
let same_key width a aoff b boff =
  let f = ref 0 in
  while !f < width && a.(aoff + !f) = b.(boff + !f) do
    incr f
  done;
  !f = width

let out_degree ctx w cur =
  let width = ctx.width and mask = Array.length w.seen - 1 in
  Array.fill w.seen 0 (mask + 1) (-1);
  let degree = ref 0 in
  for k = 0 to w.count - 1 do
    let off = k * width in
    if not (same_key width w.keys off cur 0) then begin
      let h = ref 0 in
      for f = 0 to width - 1 do
        h := (!h * 0x2545F491) lxor w.keys.(off + f)
      done;
      let slot = ref ((!h lxor (!h lsr 17)) land mask) in
      while
        w.seen.(!slot) >= 0 && not (same_key width w.keys (w.seen.(!slot) * width) w.keys off)
      do
        slot := (!slot + 1) land mask
      done;
      let first = w.seen.(!slot) in
      (* rates are non-negative: a key's total is zero only if every one is *)
      if first < 0 then begin
        w.seen.(!slot) <- k;
        w.nonzero.(k) <- w.rates.(k) <> 0.;
        if w.nonzero.(k) then incr degree
      end
      else if w.rates.(k) <> 0. && not w.nonzero.(first) then begin
        w.nonzero.(first) <- true;
        incr degree
      end
    end
  done;
  !degree

(* [x]'s group added to the [ng] groups in [sym.touched] (unless it is
   there or [x] has none); returns the new count. *)
let touch_group ctx sym ng x =
  let g = ctx.group_of.(x) in
  if g < 0 then ng
  else begin
    let t = ref 0 in
    while !t < ng && sym.touched.(!t) <> g do
      incr t
    done;
    if !t < ng then ng
    else begin
      sym.touched.(ng) <- g;
      ng + 1
    end
  end

(* The latest successor at or before [t] whose event is of successor [k]'s
   kind and on a member of the same group with the same sort key; -1 if
   none is. *)
let rec twin ctx sym w k t =
  if t < 0 then -1
  else
    let i = w.event.(k) and i' = w.event.(t) in
    if ctx.group_of.(i') = ctx.group_of.(i) && w.mode.(t) = w.mode.(k)
       && sym.expanded.(i') = sym.expanded.(i)
    then t
    else twin ctx sym w k (t - 1)

(* Canonicalize successor [k] of the canonical key being expanded, whose
   sort keys [orbit_size] left in [sym.expanded].

   Events of one kind on two members of a group with equal sort keys lead
   to one orbit (exchanging the members fixes the expanded key and maps
   one successor to the other), so when an earlier successor is such a
   twin its canonical key is copied. Otherwise only the groups of the
   components the event changed can be out of order: the event's own
   component and the queue heads a repair dispatched. The other members
   of the unit keep their fields and in-repair flags, and a queue
   insertion or removal shifts their positions without reordering them,
   so their groups stay sorted. *)
let canonicalize_successor ctx sym w k =
  let width = ctx.width and i = w.event.(k) in
  let t = if ctx.group_of.(i) < 0 then -1 else twin ctx sym w k (k - 1) in
  if t >= 0 then Array.blit w.keys (t * width) w.keys (k * width) width
  else begin
    let u = ctx.ru_of.(i) in
    let ng = ref (touch_group ctx sym 0 i) in
    for p = 0 to w.dispatched.(k) - 1 do
      ng := touch_group ctx sym !ng w.w_queue.(u).(p)
    done;
    if !ng > 0 then
      canonicalize_groups ctx sym w.keys (k * width) u sym.touched !ng ~force:false
  end

(* Breadth-first exploration over packed keys. States are numbered in
   discovery order, so the BFS queue is simply the id range: state [i] is
   expanded from its interned key, and its successors are interned in
   reverse generation order. Rows come out in state order, so each goes
   straight into the CSR buffers ({!Sparse.Rows}, the sparse builder's
   rules per row).

   A symmetric build canonicalizes every successor key before interning
   it, so each id stands for one orbit; the expansion of a representative
   adds its orbit size to the full state count and orbit size times its
   (pre-canonical) out-degree to the full transition count. *)
let build ?(max_states = 5_000_000) ?(symmetric = false) ?initial ?transitions model =
  let ctx = make_ctx model in
  let ctx = if symmetric then with_groups ctx model else ctx in
  let reduced = Array.length ctx.groups > 0 in
  let sym = make_sym ctx in
  let initial = match initial with Some s -> s | None -> all_up_state model in
  if Array.length initial.up <> component_count ctx then
    error "build: initial state has wrong component count";
  let width = ctx.width in
  let cur = Array.make width 0 in
  if not (encode ctx initial cur) then
    error "build: initial state does not fit the model";
  if reduced then canonicalize ctx sym cur 0;
  let table = Intern.create ~width () in
  let intern key off =
    let j = Intern.intern table key off in
    if Intern.count table > max_states then
      error "state space exceeds max_states = %d" max_states;
    j
  in
  ignore (intern cur 0);
  let w = make_work ctx in
  let rows = Sparse.Rows.create ?capacity:transitions () in
  let full_states = ref 0 and full_transitions = ref 0 in
  let i = ref 0 in
  while !i < Intern.count table do
    Intern.blit table !i cur 0;
    unpack ctx w cur;
    successors ctx w cur;
    if reduced then begin
      let orbit = orbit_size ctx sym cur 0 in
      full_states := !full_states + orbit;
      full_transitions := !full_transitions + (orbit * out_degree ctx w cur);
      for k = 0 to w.count - 1 do
        canonicalize_successor ctx sym w k
      done
    end;
    for k = w.count - 1 downto 0 do
      let j = intern w.keys (k * width) in
      if j <> !i then Sparse.Rows.add rows j w.rates.(k)
    done;
    Sparse.Rows.end_row rows;
    incr i
  done;
  let n = Intern.count table in
  let chain = Chain.make ~init:(Vec.unit n 0) (Sparse.Rows.to_csr rows ~cols:n) in
  let packed =
    {
      ctx;
      table;
      fault = compile ctx model.Model.fault_tree;
      service = compile ctx (Model.service_tree model);
      levels = Atomic.make None;
    }
  in
  {
    model;
    chain;
    packed;
    component_index = resolve_component ctx;
    state_index =
      (fun s ->
        let key = Array.make width 0 in
        if not (encode ctx s key) then None
        else begin
          if reduced then canonicalize ctx (make_sym ctx) key 0;
          let id = Intern.find table key 0 in
          if id < 0 then None else Some id
        end);
    full_size =
      (if reduced then (!full_states, !full_transitions)
       else (n, Chain.transition_count chain));
  }

let reduced built = Array.length built.packed.ctx.groups > 0

let group_names ctx =
  Array.to_list
    (Array.map
       (fun g -> Array.to_list (Array.map (fun i -> ctx.comps.(i).Component.name) g))
       ctx.groups)

let symmetry_groups built = group_names built.packed.ctx

let interchangeable model = group_names (with_groups (make_ctx model) model)

(* Observations that tell the members of a group apart have no value on a
   symmetry-reduced build. *)
let refuse who what =
  invalid_arg
    (Printf.sprintf "Semantics.%s: %s on a symmetry-reduced build" who what)

let check_ungrouped who built i =
  if built.packed.ctx.group_of.(i) >= 0 then
    refuse who
      (Printf.sprintf "component %s is interchangeable with others"
         built.packed.ctx.comps.(i).Component.name)

let state built s =
  if reduced built then refuse "state" "states are orbits";
  let p = built.packed in
  decode p.ctx (Intern.key p.table s) 0

let literal_pred built literal =
  let p = built.packed in
  let i, m = resolve_literal p.ctx literal in
  check_ungrouped "literal_pred" built i;
  fun s -> failed p s i m

let down_pred built s = holds built.packed s built.packed.fault

let operational_pred built s = not (down_pred built s)

let service_level built s = level built.packed s built.packed.service

(* One service-tree scan per state space, however many levels are asked
   for (a race between domains only computes it twice). *)
let levels p =
  match Atomic.get p.levels with
  | Some l -> l
  | None ->
      let l =
        Obs.Trace.with_span "semantics.levels" @@ fun _ ->
        Array.init (Intern.count p.table) (fun s -> level p s p.service)
      in
      Atomic.set p.levels (Some l);
      l

let service_at_least built x =
  let p = built.packed in
  fun s -> (levels p).(s) >= x -. 1e-9

(* Cost structures: one pass over the packed states. *)
let cost_structures built =
  let p = built.packed in
  let ctx = p.ctx in
  let n = Intern.count p.table in
  let comp_cost = Vec.zeros n and ru_cost = Vec.zeros n in
  let key = Array.make ctx.width 0 in
  for s = 0 to n - 1 do
    Intern.blit p.table s key 0;
    Array.iteri
      (fun i c ->
        comp_cost.(s) <-
          comp_cost.(s)
          +.
          if get key 0 ctx.up_f.(i) = 1 then c.Component.operational_cost
          else ctx.modes.(i).(get key 0 ctx.mode_f.(i)).Component.fm_failed_cost)
      ctx.comps;
    Array.iteri
      (fun u ru ->
        let busy = List.length (repairing ctx key 0 u) in
        let idle = Repair.crew_count ru - busy in
        ru_cost.(s) <-
          ru_cost.(s)
          +. (float_of_int busy *. ru.Repair.busy_cost)
          +. (float_of_int idle *. ru.Repair.idle_cost))
      ctx.rus
  done;
  (comp_cost, ru_cost)
