(* Keys live back to back in [arena] (key [id] at [id * width]). [slots]
   is a linear-probing table kept at most half full; slot [k] is the pair
   [slots.(2k)] = id (-1 = empty) and [slots.(2k+1)] = the key's full
   hash, so a probe touches the arena only when the hashes agree, and a
   resize never rehashes a key. *)
type t = {
  width : int;
  custom_hash : (int array -> int -> int) option;
  mutable arena : int array;
  mutable capacity : int; (* keys the arena can hold *)
  mutable count : int;
  mutable slots : int array;
  mutable mask : int; (* slot count - 1 *)
}

(* Multiply-xorshift mixing over the key's words; the final avalanche
   makes the low bits, which pick the slot, depend on every word. *)
let default_hash width key off =
  let h = ref width in
  for f = off to off + width - 1 do
    let x = (!h + Array.unsafe_get key f) * 0x1f58476d1ce4e5b9 in
    h := x lxor (x lsr 29)
  done;
  let x = !h * 0x14d049bb133111eb in
  x lxor (x lsr 32)

let create ?hash ~width () =
  if width < 0 then invalid_arg "Intern.create: negative width";
  let capacity = 1024 in
  let nslots = 2 * capacity in
  {
    width;
    custom_hash = hash;
    arena = Array.make (capacity * width) 0;
    capacity;
    count = 0;
    slots = Array.make (2 * nslots) (-1);
    mask = nslots - 1;
  }

let width t = t.width

let hash t key off =
  match t.custom_hash with
  | None -> default_hash t.width key off
  | Some h -> h key off

let count t = t.count

let same_key t id key off =
  let base = id * t.width in
  let rec go f =
    f >= t.width
    || Array.unsafe_get t.arena (base + f) = Array.unsafe_get key (off + f)
       && go (f + 1)
  in
  go 0

(* The slot holding [key] if present, else the empty slot where it goes. *)
let probe t key off h =
  let slot = ref (h land t.mask) in
  let found = ref false in
  while not !found do
    let id = Array.unsafe_get t.slots (2 * !slot) in
    if id < 0
       || (Array.unsafe_get t.slots ((2 * !slot) + 1) = h && same_key t id key off)
    then found := true
    else slot := (!slot + 1) land t.mask
  done;
  !slot

let check_key name t key off =
  if off < 0 || off + t.width > Array.length key then
    invalid_arg (Printf.sprintf "Intern.%s: key out of bounds" name)

let find t key off =
  check_key "find" t key off;
  t.slots.(2 * probe t key off (hash t key off))

let grow_slots t =
  let nslots = 2 * (t.mask + 1) in
  let slots = Array.make (2 * nslots) (-1) in
  let mask = nslots - 1 in
  for k = 0 to t.mask do
    let id = t.slots.(2 * k) in
    if id >= 0 then begin
      let h = t.slots.((2 * k) + 1) in
      let slot = ref (h land mask) in
      while slots.(2 * !slot) >= 0 do
        slot := (!slot + 1) land mask
      done;
      slots.(2 * !slot) <- id;
      slots.((2 * !slot) + 1) <- h
    end
  done;
  t.slots <- slots;
  t.mask <- mask

let grow_arena t =
  let capacity = 2 * t.capacity in
  let arena = Array.make (capacity * t.width) 0 in
  Array.blit t.arena 0 arena 0 (t.count * t.width);
  t.arena <- arena;
  t.capacity <- capacity

let intern t key off =
  check_key "intern" t key off;
  let h = hash t key off in
  let slot = probe t key off h in
  let id = t.slots.(2 * slot) in
  if id >= 0 then id
  else begin
    let id = t.count in
    if id = t.capacity then grow_arena t;
    for f = 0 to t.width - 1 do
      Array.unsafe_set t.arena ((id * t.width) + f) (Array.unsafe_get key (off + f))
    done;
    t.count <- id + 1;
    t.slots.(2 * slot) <- id;
    t.slots.((2 * slot) + 1) <- h;
    if 2 * t.count > t.mask + 1 then grow_slots t;
    id
  end

let check_id name t id =
  if id < 0 || id >= t.count then
    invalid_arg (Printf.sprintf "Intern.%s: id %d out of %d" name id t.count)

let get t id f =
  check_id "get" t id;
  if f < 0 || f >= t.width then
    invalid_arg (Printf.sprintf "Intern.get: word %d out of %d" f t.width);
  Array.unsafe_get t.arena ((id * t.width) + f)

let blit t id dst off =
  check_id "blit" t id;
  if off < 0 || off + t.width > Array.length dst then
    invalid_arg "Intern.blit: destination out of bounds";
  for f = 0 to t.width - 1 do
    Array.unsafe_set dst (off + f) (Array.unsafe_get t.arena ((id * t.width) + f))
  done

let key t id =
  let k = Array.make t.width 0 in
  blit t id k 0;
  k
