(* One fan-out mechanism over OCaml 5 domains: a persistent pool of
   worker domains behind a task queue ([Pool]), and [map], which hands
   its items to one process-wide pool created on first use.

   Nested calls run sequentially (a domain-local flag marks worker
   context): when an already-parallel caller reaches a parallel driver,
   the inner level must not multiply the domain count or wait on its own
   pool's queue. *)

(* Malformed env knobs fail loudly: a typo like PAR_DOMAINS=O2 used to
   silently fall back to the recommended domain count, changing a
   benchmark's parallelism with no signal at all. Every numeric knob in
   the tree (PAR_DOMAINS, the server's SERVER_* knobs) goes through
   [getenv_positive_int], which warns once per variable on stderr and
   then ignores the value. *)
let warned : (string, unit) Hashtbl.t = Hashtbl.create 4

let warned_mutex = Mutex.create ()

let getenv_positive_int name =
  match Sys.getenv_opt name with
  | None | Some "" -> None
  | Some v -> (
      match int_of_string_opt (String.trim v) with
      | Some n when n >= 1 -> Some n
      | Some _ | None ->
          let first =
            Mutex.protect warned_mutex (fun () ->
                if Hashtbl.mem warned name then false
                else begin
                  Hashtbl.add warned name ();
                  true
                end)
          in
          if first then
            Printf.eprintf
              "warning: ignoring %s=%S: expected a positive integer\n%!" name v;
          None)

let default_domains () =
  match getenv_positive_int "PAR_DOMAINS" with
  | Some n -> n
  | None -> Domain.recommended_domain_count ()

let in_worker = Domain.DLS.new_key (fun () -> false)

(* ------------------------------------------------------------------ *)
(* Persistent domain pool                                             *)

(* [Pool] keeps a fixed set of domains alive behind a mutex/condition
   task queue; completion is signalled per [map] call, and the mutex
   hand-offs establish the happens-before edges that make the result
   array reads safe. Workers mark themselves with [in_worker], so nested
   maps degrade to sequential execution instead of deadlocking on the
   pool's own queue. *)
module Pool = struct
  type t = {
    size : int;
    tasks : (unit -> unit) Queue.t;
    m : Mutex.t;
    nonempty : Condition.t;
    mutable closed : bool;
    mutable workers : unit Domain.t array;
  }

  let worker pool =
    Domain.DLS.set in_worker true;
    let rec loop () =
      let task =
        Mutex.protect pool.m (fun () ->
            let rec next () =
              if not (Queue.is_empty pool.tasks) then Some (Queue.pop pool.tasks)
              else if pool.closed then None
              else begin
                Condition.wait pool.nonempty pool.m;
                next ()
              end
            in
            next ())
      in
      match task with
      | None -> ()
      | Some f ->
          f ();
          loop ()
    in
    loop ()

  let create ?domains () =
    let size =
      match domains with Some d -> max 1 d | None -> default_domains ()
    in
    let pool =
      {
        size;
        tasks = Queue.create ();
        m = Mutex.create ();
        nonempty = Condition.create ();
        closed = false;
        workers = [||];
      }
    in
    pool.workers <- Array.init size (fun _ -> Domain.spawn (fun () -> worker pool));
    pool

  let size pool = pool.size

  let map pool f xs =
    if Mutex.protect pool.m (fun () -> pool.closed) then
      invalid_arg "Parallel.Pool.map: pool is shut down";
    match xs with
    | [] -> []
    | [ x ] -> [ f x ]
    | xs when Domain.DLS.get in_worker -> List.map f xs
    | xs ->
        let input = Array.of_list xs in
        let n = Array.length input in
        let results = Array.make n None in
        let failures = Array.make n None in
        let remaining = ref n in
        let dm = Mutex.create () in
        let all_done = Condition.create () in
        (* capture the submitting request's trace context at enqueue time
           and re-install it in whichever pool domain runs the task, so a
           sweep executed on a worker shows up inside the request's
           trace *)
        let ctx = Obs.Trace.current_context () in
        Mutex.protect pool.m (fun () ->
            if pool.closed then
              invalid_arg "Parallel.Pool.map: pool is shut down";
            Array.iteri
              (fun i x ->
                Queue.add
                  (fun () ->
                    (match Obs.Trace.with_context ctx (fun () -> f x) with
                    | y -> results.(i) <- Some y
                    | exception e -> failures.(i) <- Some e);
                    Mutex.protect dm (fun () ->
                        decr remaining;
                        if !remaining = 0 then Condition.signal all_done))
                  pool.tasks)
              input;
            Condition.broadcast pool.nonempty);
        Mutex.protect dm (fun () ->
            while !remaining > 0 do
              Condition.wait all_done dm
            done);
        Array.iter (function Some e -> raise e | None -> ()) failures;
        Array.to_list
          (Array.map (function Some y -> y | None -> assert false) results)

  let shutdown pool =
    let workers =
      Mutex.protect pool.m (fun () ->
          if pool.closed then [||]
          else begin
            pool.closed <- true;
            Condition.broadcast pool.nonempty;
            let w = pool.workers in
            pool.workers <- [||];
            w
          end)
    in
    Array.iter Domain.join workers
end

(* The pool behind [map], spawned by the first call that fans out and
   never shut down: its idle workers wait on a condition and do not hold
   up process exit. *)
let shared = ref None

let shared_mutex = Mutex.create ()

let shared_pool () =
  Mutex.protect shared_mutex (fun () ->
      match !shared with
      | Some pool -> pool
      | None ->
          let pool = Pool.create () in
          shared := Some pool;
          pool)

let map f xs =
  match xs with
  | [] | [ _ ] -> List.map f xs
  | _ when Domain.DLS.get in_worker || default_domains () = 1 -> List.map f xs
  | _ -> Pool.map (shared_pool ()) f xs
