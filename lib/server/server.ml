module Json = Json
module Http = Http
module Ast = Csl.Ast
module Parallel = Numeric.Parallel

(* ------------------------------------------------------------------ *)
(* Configuration                                                      *)

type config = {
  host : string;
  port : int;
  domains : int;
  max_sessions : int;
}

let default_config () =
  let geti name d = Option.value (Parallel.getenv_positive_int name) ~default:d in
  {
    host = Option.value (Sys.getenv_opt "SERVER_HOST") ~default:"127.0.0.1";
    port = geti "SERVER_PORT" 8641;
    domains = geti "SERVER_DOMAINS" (min 4 (Parallel.default_domains ()));
    max_sessions = geti "SERVER_MAX_SESSIONS" 256;
  }

(* ------------------------------------------------------------------ *)
(* Counters: handles into the process-wide Obs registry, which /stats
   and /metrics read ({!start} switches it on)                        *)

type counter = Obs.Metrics.counter

type counters = {
  requests : counter;  (** POST /analyze admitted past validation *)
  queries : counter;
  rejected : counter;  (** 4xx answers *)
  query_errors : counter;  (** per-query evaluation failures *)
  session_hits : counter;
  session_misses : counter;  (** session builds *)
  session_evictions : counter;
  answer_hits : counter;  (** queries answered from a session's memo *)
  lint_skips : counter;  (** admissions of bytes a live session accepted *)
  batch_groups : counter;  (** shared curve/batch sweeps executed *)
  batched_queries : counter;  (** queries answered by a shared sweep *)
}

let counters =
  let m name = Obs.Metrics.counter ("server." ^ name) in
  {
    requests = m "requests";
    queries = m "queries";
    rejected = m "rejected";
    query_errors = m "query_errors";
    session_hits = m "session_hits";
    session_misses = m "session_misses";
    session_evictions = m "session_evictions";
    answer_hits = m "answer_hits";
    lint_skips = m "lint_skips";
    batch_groups = m "batch_groups";
    batched_queries = m "batched_queries";
  }

(* ------------------------------------------------------------------ *)
(* Per-endpoint / per-query-kind telemetry                            *)

(* registration is idempotent and cheap, so these resolve per call *)
let h_endpoint_latency endpoint =
  Obs.Metrics.histogram
    ~buckets:Obs.Metrics.latency_ms_buckets
    ("server.latency_ms." ^ endpoint)

let h_query_latency kind =
  Obs.Metrics.histogram
    ~buckets:Obs.Metrics.latency_ms_buckets
    ("server.query_ms." ^ kind)

let c_query_kind kind = Obs.Metrics.counter ("server.queries." ^ kind)

let query_kind (ast : Ast.state_formula) =
  match ast with
  | Ast.P (_, Ast.Next _) -> "next"
  | Ast.P (_, (Ast.Until _ | Ast.Eventually _ | Ast.Globally _)) -> "until"
  | Ast.S _ -> "steady"
  | Ast.R (_, _, Ast.Instantaneous _) -> "reward_inst"
  | Ast.R (_, _, Ast.Cumulative _) -> "reward_cumul"
  | Ast.R (_, _, Ast.Steady) -> "reward_steady"
  | Ast.True | Ast.False | Ast.Label _ | Ast.Atomic _ | Ast.Not _ | Ast.And _
  | Ast.Or _ | Ast.Implies _ ->
      "boolean"

let endpoint_label ~meth ~path =
  match (meth, path) with
  | "GET", "/health" -> "health"
  | "GET", "/stats" -> "stats"
  | "GET", "/metrics" -> "metrics"
  | "POST", "/shutdown" -> "shutdown"
  | "POST", "/analyze" -> "analyze"
  | _ -> "other"

(* What the access log and the root span want to know about a request;
   filled in as handling progresses. *)
type req_meta = {
  mutable m_status : int;
  mutable m_hash : string option;
  mutable m_session : string option;
  mutable m_queries : int;
  mutable m_kinds : string list;
  mutable m_chains : string option;
}

let fresh_meta () =
  {
    m_status = 0;
    m_hash = None;
    m_session = None;
    m_queries = 0;
    m_kinds = [];
    m_chains = None;
  }

(* ------------------------------------------------------------------ *)
(* Sessions                                                           *)

module Session = Core.Measures.Session

(* A daemon session is a library session over the parsed model, which
   builds each chain the first time a query routed to it arrives, and
   the answers it gave. Only the scheduler touches a session's chains
   and answer memo, one job at a time (the groups of a batch hold
   distinct models, and batches run one after another), so those fields
   need no lock. *)
type session = {
  s_src : string;
  s_chains : Session.t;
  s_answers : (string, Csl.Checker.result) Hashtbl.t;
      (** successful answers by raw query text. Not by the printed AST:
          [Ast.to_string] prints time bounds with [%g], so [C<=1000] and
          [C<=1000.0001] print alike *)
  mutable s_answer_bytes : int;  (** total length of [s_answers]' keys *)
  mutable last_used : int;  (** logical clock for LRU eviction *)
}

(* A session's memo bound: an answer past either is computed but not
   stored, so a request body of up to [Http.max_body_bytes] cannot grow
   a session without limit. *)
let memo_max_entries = 256

let memo_max_key_bytes = 65536

type job = {
  j_src : string;
  j_model : Core.Model.t;
      (** the model as admission's lint built it, or the live session's
          when admission skipped lint; a session miss keeps it *)
  j_levels : float list option;  (** the service levels lint enumerated *)
  j_hash : int64;
  j_queries : (string * Ast.state_formula) list;
  j_ctx : Obs.Trace.context option;
      (** the submitting request's trace context; the scheduler re-installs
          it around the job's evaluation, so its spans join that request's
          trace *)
  jm : Mutex.t;
  jc : Condition.t;
  mutable j_result : (int * Json.t) option;
  mutable j_session : string;  (** "hit" / "miss" / "rejected"; set before
                                   [finish_job], read after [await_job] *)
  mutable j_chains : string;  (** "symmetric" / "full" / "both", likewise *)
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  bound_port : int;
  pool : Parallel.Pool.t;
  queue : job Queue.t;
  qm : Mutex.t;
  qc : Condition.t;
  mutable running : bool;  (** guarded by [qm] *)
  cache : (int64, session list) Hashtbl.t;
  mutable cache_count : int;
  mutable clock : int;
  cm : Mutex.t;
  access_log : (out_channel * bool) option;
      (** [(channel, close_at_stop)], from [OBS_ACCESS_LOG] *)
  al_mutex : Mutex.t;
  mutable accept_thread : Thread.t option;
  mutable sched_thread : Thread.t option;
  mutable house_thread : Thread.t option;
}

let port t = t.bound_port

let model_hash src = Ctmc.Analysis.fnv1a64 src

let build_session ~src ~model ~levels =
  {
    s_src = src;
    s_chains = Session.create ?levels model;
    s_answers = Hashtbl.create 8;
    s_answer_bytes = 0;
    last_used = 0;
  }

let touch srv s =
  srv.clock <- srv.clock + 1;
  s.last_used <- srv.clock

(* LRU eviction under [cm]: the cache is capacity-bounded, a portfolio
   larger than [max_sessions] keeps its hottest models resident. *)
let evict_over_capacity srv =
  while srv.cache_count > srv.cfg.max_sessions do
    let victim =
      Hashtbl.fold
        (fun key sessions acc ->
          List.fold_left
            (fun acc s ->
              match acc with
              | Some (_, best) when best.last_used <= s.last_used -> acc
              | _ -> Some (key, s))
            acc sessions)
        srv.cache None
    in
    match victim with
    | None -> srv.cache_count <- 0
    | Some (key, s) ->
        let rest =
          List.filter (fun s' -> s' != s) (Hashtbl.find srv.cache key)
        in
        if rest = [] then Hashtbl.remove srv.cache key
        else Hashtbl.replace srv.cache key rest;
        srv.cache_count <- srv.cache_count - 1;
        Obs.Metrics.incr counters.session_evictions
  done

(* Under [cm]: the live session built from exactly [src], whose hash is
   [h]. *)
let find_session srv h src =
  Option.bind (Hashtbl.find_opt srv.cache h)
    (List.find_opt (fun s -> String.equal s.s_src src))

(* [job]'s session: returns [(session, was_cached)]. Building happens
   outside the cache lock: the scheduler processes batches sequentially
   and groups within a batch have distinct model sources, so no two
   builders race on one session. *)
let get_session srv job =
  let h = job.j_hash in
  let lookup () =
    Mutex.protect srv.cm (fun () ->
        let found = find_session srv h job.j_src in
        Option.iter (touch srv) found;
        found)
  in
  match lookup () with
  | Some s -> (s, true)
  | None ->
      let s =
        build_session ~src:job.j_src ~model:job.j_model ~levels:job.j_levels
      in
      Mutex.protect srv.cm (fun () ->
          let bucket =
            match Hashtbl.find_opt srv.cache h with Some l -> l | None -> []
          in
          Hashtbl.replace srv.cache h (s :: bucket);
          srv.cache_count <- srv.cache_count + 1;
          touch srv s;
          evict_over_capacity srv);
      (s, false)

(* ------------------------------------------------------------------ *)
(* Query evaluation with same-model batching                          *)

(* One query's answer, or why it has none. *)
type answer = (Csl.Checker.result, string) result

(* a query slot: where one query's answer goes (job-order preserving) *)
type slot = {
  answers : answer option array;
  idx : int;
  text : string;
  ast : Ast.state_formula;
}

let answer_json text = function
  | Ok (Csl.Checker.Value v) -> Json.Obj [ ("query", Str text); ("value", Json.num v) ]
  | Ok (Csl.Checker.Satisfied b) ->
      Json.Obj [ ("query", Str text); ("satisfied", Bool b) ]
  | Error msg -> Json.Obj [ ("query", Str text); ("error", Str msg) ]

let set_value slot v = slot.answers.(slot.idx) <- Some (Ok (Csl.Checker.Value v))

let set_error answers idx msg =
  Obs.Metrics.incr counters.query_errors;
  answers.(idx) <- Some (Error msg)

let error_message = function
  | Csl.Checker.Unsupported msg -> msg
  | Invalid_argument msg | Failure msg -> msg
  | e -> Printexc.to_string e

(* A state formula evaluable per-state without touching P/S/R — exactly
   the operand shape [Checker.satisfaction] resolves cheaply and the
   batch curves can absorb. *)
let rec pure_formula = function
  | Ast.True | Ast.False | Ast.Label _ | Ast.Atomic _ -> true
  | Ast.Not f -> pure_formula f
  | Ast.And (a, b) | Ast.Or (a, b) | Ast.Implies (a, b) ->
      pure_formula a && pure_formula b
  | Ast.P _ | Ast.S _ | Ast.R _ -> false

type plan_key =
  | K_until of string  (** [to_string phi ^ " U " ^ to_string psi] *)
  | K_reward of string option  (** reward-structure name *)

type reward_kind = Inst | Cumul

(* What a slot contributes to its batch group. *)
type contribution =
  | C_until of Ast.state_formula * Ast.state_formula * float
  | C_reward of reward_kind * float

let classify ast =
  match ast with
  | Ast.P (Ast.Query, Ast.Until (phi, Ast.Upto t, psi))
    when pure_formula phi && pure_formula psi ->
      Some (K_until (Ast.to_string phi ^ " U " ^ Ast.to_string psi),
            C_until (phi, psi, t))
  | Ast.P (Ast.Query, Ast.Eventually (Ast.Upto t, psi)) when pure_formula psi
    ->
      Some (K_until ("true U " ^ Ast.to_string psi),
            C_until (Ast.True, psi, t))
  | Ast.R (name, Ast.Query, Ast.Instantaneous t) ->
      Some (K_reward name, C_reward (Inst, t))
  | Ast.R (name, Ast.Query, Ast.Cumulative t) ->
      Some (K_reward name, C_reward (Cumul, t))
  | _ -> None

let pred_of csl f =
  let sat = Csl.Checker.satisfaction csl f in
  fun s -> sat.(s)

(* One group of batchable slots -> one uniformization sweep. *)
let eval_group (m : Core.Measures.t) key (slots : (slot * contribution) list) =
  let analysis = Core.Measures.analysis m in
  let csl = Core.Measures.to_csl_model m in
  let chain = (Core.Measures.built m).Core.Semantics.chain in
  let fill_errors msg =
    List.iter (fun (slot, _) -> set_error slot.answers slot.idx msg) slots
  in
  match key with
  | K_until _ -> (
      match
        let phi, psi =
          match slots with
          | (_, C_until (phi, psi, _)) :: _ -> (phi, psi)
          | _ -> assert false
        in
        let bounds =
          List.map
            (function _, C_until (_, _, t) -> t | _ -> assert false)
            slots
        in
        let phi_p = pred_of csl phi and psi_p = pred_of csl psi in
        Ctmc.Reachability.bounded_until_curve ~analysis chain ~phi:phi_p
          ~psi:psi_p ~bounds
      with
      | points ->
          List.iter2 (fun (slot, _) (_, v) -> set_value slot v) slots points
      | exception e -> fill_errors (error_message e))
  | K_reward name -> (
      match (csl.Csl.Checker.reward name : Numeric.Vec.t option) with
      | None ->
          fill_errors
            (Printf.sprintf "unknown reward structure %s"
               (match name with Some n -> "\"" ^ n ^ "\"" | None -> "(default)"))
      | Some reward -> (
          let inst, cumul =
            List.partition
              (function _, C_reward (Inst, _) -> true | _ -> false)
              slots
          in
          let time_of = function
            | _, C_reward (_, t) -> t
            | _ -> assert false
          in
          let inst_ts = List.map time_of inst
          and cumul_ts = List.map time_of cumul in
          match
            (* both operators on one reward ride a single blocked sweep;
               a single-kind group still shares one pass over its times *)
            if inst <> [] && cumul <> [] then
              let ic, cc =
                Ctmc.Rewards.both_curves ~analysis chain ~reward
                  ~times:(inst_ts @ cumul_ts)
              in
              let take n l = List.filteri (fun i _ -> i < n) l in
              let drop n l = List.filteri (fun i _ -> i >= n) l in
              (take (List.length inst) ic, drop (List.length inst) cc)
            else if inst <> [] then
              ( Ctmc.Rewards.instantaneous_curve ~analysis chain ~reward
                  ~times:inst_ts,
                [] )
            else
              ( [],
                Ctmc.Rewards.accumulated_curve ~analysis chain ~reward
                  ~times:cumul_ts )
          with
          | inst_points, cumul_points ->
              List.iter2 (fun (slot, _) (_, v) -> set_value slot v) inst inst_points;
              List.iter2 (fun (slot, _) (_, v) -> set_value slot v) cumul cumul_points
          | exception e -> fill_errors (error_message e)))

let eval_single m slot =
  let csl = Core.Measures.to_csl_model m in
  match Csl.Checker.check csl slot.ast with
  | r -> slot.answers.(slot.idx) <- Some (Ok r)
  | exception e -> set_error slot.answers slot.idx (error_message e)

let ns_to_ms ns = Int64.to_float ns /. 1e6

(* Evaluate the slots routed to one chain [m]: batchable queries are
   grouped by plan key and each group costs one sweep. *)
let eval_slots m slots =
  let groups : (plan_key, (slot * contribution) list) Hashtbl.t =
    Hashtbl.create 8
  in
  let group_order = ref [] in
  let singles = ref [] in
  List.iter
    (fun slot ->
      match classify slot.ast with
      | Some (key, contrib) ->
          (match Hashtbl.find_opt groups key with
          | Some existing -> Hashtbl.replace groups key ((slot, contrib) :: existing)
          | None ->
              Hashtbl.add groups key [ (slot, contrib) ];
              group_order := key :: !group_order)
      | None -> singles := slot :: !singles)
    slots;
  List.iter
    (fun key ->
      let group = List.rev (Hashtbl.find groups key) in
      Obs.Metrics.incr counters.batch_groups;
      Obs.Metrics.add counters.batched_queries (List.length group);
      let kind = match key with K_until _ -> "until" | K_reward _ -> "reward" in
      let t0 = Obs.monotonic_ns () in
      eval_group m key group;
      Obs.Metrics.observe (h_query_latency kind)
        (ns_to_ms (Int64.sub (Obs.monotonic_ns ()) t0)))
    (List.rev !group_order);
  List.iter
    (fun slot ->
      let t0 = Obs.monotonic_ns () in
      eval_single m slot;
      Obs.Metrics.observe
        (h_query_latency (query_kind slot.ast))
        (ns_to_ms (Int64.sub (Obs.monotonic_ns ()) t0)))
    (List.rev !singles)

(* ------------------------------------------------------------------ *)
(* Jobs and the scheduler                                             *)

let finish_job job status body =
  Mutex.protect job.jm (fun () ->
      job.j_result <- Some (status, body);
      Condition.signal job.jc)

let await_job job =
  Mutex.protect job.jm (fun () ->
      while Option.is_none job.j_result do
        Condition.wait job.jc job.jm
      done;
      Option.get job.j_result)

let hash_hex h = Printf.sprintf "%016Lx" h

(* Stores a successful answer in the session's memo while the memo is
   within its bounds. *)
let remember s text r =
  if
    Hashtbl.length s.s_answers < memo_max_entries
    && s.s_answer_bytes + String.length text <= memo_max_key_bytes
    && not (Hashtbl.mem s.s_answers text)
  then begin
    Hashtbl.add s.s_answers text r;
    s.s_answer_bytes <- s.s_answer_bytes + String.length text
  end

(* One job, under its request's trace context, so its spans (which may
   run on a pool domain) join that request's trace. Each query goes to
   the chain {!Session.route} picks, built on first use. A query the
   session has answered before is answered from its memo, and only the
   rest is evaluated. *)
let process_job srv job =
  Obs.Trace.with_context job.j_ctx @@ fun () ->
  Obs.Trace.with_span "server.process_group"
    ~attrs:[ ("model_hash", Obs.Str (hash_hex job.j_hash)) ]
  @@ fun pg_span ->
  let answers = Array.make (List.length job.j_queries) None in
  match
    let session, was_cached =
      Obs.Trace.with_span "server.session" @@ fun s_span ->
      let (_, was_cached) as r = get_session srv job in
      if Obs.Trace.recording s_span then
        Obs.Trace.add_attr s_span "cached" (Obs.Bool was_cached);
      r
    in
    Obs.Metrics.incr
      (if was_cached then counters.session_hits else counters.session_misses);
    let slots =
      List.mapi
        (fun idx (text, ast) ->
          (Session.route session.s_chains ast, { answers; idx; text; ast }))
        job.j_queries
    in
    (* a request without queries warms the session's cheaper chain *)
    let kinds =
      match List.sort_uniq compare (List.map fst slots) with
      | [] -> [ Session.Symmetric ]
      | kinds -> kinds
    in
    ( was_cached,
      session,
      slots,
      List.map (fun k -> (k, Session.chain session.s_chains k)) kinds )
  with
  | exception e ->
      let msg =
        match e with
        | Invalid_argument m | Failure m -> m
        | e -> Printexc.to_string e
      in
      Obs.Metrics.incr counters.rejected;
      job.j_session <- "rejected";
      finish_job job 422
        (Json.Obj
           [
             ("error", Str ("model rejected: " ^ msg));
             ("model_hash", Str (hash_hex job.j_hash));
           ])
  | was_cached, session, slots, chains ->
      (* a memo hit routes to a chain that answered it before, so the
         chains above are all built already on an all-hit job *)
      let fresh =
        List.filter
          (fun (_, slot) ->
            match Hashtbl.find_opt session.s_answers slot.text with
            | Some r ->
                answers.(slot.idx) <- Some (Ok r);
                false
            | None -> true)
          slots
      in
      let answer_hits = List.length slots - List.length fresh in
      Obs.Metrics.add counters.answer_hits answer_hits;
      (try
         List.iter
           (fun (kind, m) ->
             eval_slots m
               (List.filter_map
                  (fun (k, slot) -> if k = kind then Some slot else None)
                  fresh))
           chains
       with e ->
         (* defensive: eval paths catch per-group, but never drop a job *)
         let msg = error_message e in
         Array.iteri
           (fun i a -> if Option.is_none a then set_error answers i msg)
           answers);
      (* errors are never stored: budgets and deadlines may make them
         depend on time *)
      List.iter
        (fun (_, slot) ->
          match answers.(slot.idx) with
          | Some (Ok r) -> remember session slot.text r
          | Some (Error _) | None -> ())
        fresh;
      let states = Session.full_size session.s_chains in
      let chains_tag =
        match chains with [ (kind, _) ] -> Session.kind_name kind | _ -> "both"
      in
      let session_tag = if was_cached then "hit" else "miss" in
      if Obs.Trace.recording pg_span then begin
        Obs.Trace.add_attr pg_span "session" (Obs.Str session_tag);
        Obs.Trace.add_attr pg_span "states" (Obs.Int states);
        Obs.Trace.add_attr pg_span "answer_hits" (Obs.Int answer_hits);
        (* which chain answered, and its size: "chain" is "symmetric",
           "full" or "both", with "<kind>_states" per chain used *)
        Obs.Trace.add_attr pg_span "chain" (Obs.Str chains_tag);
        List.iter
          (fun (kind, m) ->
            Obs.Trace.add_attr pg_span
              (Session.kind_name kind ^ "_states")
              (Obs.Int
                 (Ctmc.Chain.states (Core.Measures.built m).Core.Semantics.chain)))
          chains;
        (* accuracy attrs: worst Fox–Glynn truncation error and last
           solver residual observed by the work this job just ran *)
        Obs.Trace.add_attr pg_span "fg_mass_deficit"
          (Obs.Float
             (Obs.Metrics.gauge_value
                (Obs.Metrics.gauge "analysis.fg_mass_deficit")));
        Obs.Trace.add_attr pg_span "solver_residual"
          (Obs.Float
             (Obs.Metrics.gauge_value (Obs.Metrics.gauge "solver.last_residual")))
      end;
      job.j_session <- session_tag;
      job.j_chains <- chains_tag;
      let results =
        List.mapi
          (fun i (text, _) ->
            match answers.(i) with
            | Some a -> answer_json text a
            | None -> Json.Obj [ ("error", Json.Str "internal: unanswered query") ])
          job.j_queries
      in
      finish_job job 200
        (Json.Obj
           [
             ("model_hash", Str (hash_hex job.j_hash));
             ("session", Str session_tag);
             ("states", Json.num (float_of_int states));
             ("results", List results);
           ])

(* group by model content, preserving arrival order of groups and of jobs
   within a group, so that one session has one owner at a time *)
let group_jobs jobs =
  let tbl : (string, job list ref) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun j ->
      let k = j.j_src in
      match Hashtbl.find_opt tbl k with
      | Some l -> l := j :: !l
      | None ->
          let l = ref [ j ] in
          Hashtbl.add tbl k l;
          order := k :: !order)
    jobs;
  List.rev_map (fun k -> List.rev !(Hashtbl.find tbl k)) !order

(* Waits for a non-empty queue and drains it. A group's jobs run one
   after another, so a later one finds the session and memo an earlier
   one filled. *)
let scheduler srv =
  let rec loop () =
    let batch =
      Mutex.protect srv.qm (fun () ->
          while Queue.is_empty srv.queue && srv.running do
            Condition.wait srv.qc srv.qm
          done;
          let batch = List.of_seq (Queue.to_seq srv.queue) in
          Queue.clear srv.queue;
          batch)
    in
    match group_jobs batch with
    | [] -> (* stopped and drained *) ()
    | groups ->
        (* distinct models fan out across the fixed domain pool *)
        ignore
          (Parallel.Pool.map srv.pool (List.iter (process_job srv)) groups
            : unit list);
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Request handling                                                   *)

let json_response ?(keep_alive = true) fd ~status json =
  Http.write_response ~keep_alive fd ~status ~body:(Json.to_string json)

let diagnostics_json diags =
  Json.List
    (List.map
       (fun (d : Lint.Diagnostic.t) ->
         Json.Obj
           (List.concat
              [
                [
                  ("code", Json.Str d.code);
                  ( "severity",
                    Json.Str (Lint.Diagnostic.severity_to_string d.severity) );
                  ("subject", Json.Str d.subject);
                  ("message", Json.Str d.message);
                ];
                (match d.hint with
                | Some h -> [ ("hint", Json.Str h) ]
                | None -> []);
                (match (d.line, d.column) with
                | Some l, Some c ->
                    [ ("line", Json.num (float_of_int l));
                      ("column", Json.num (float_of_int c)) ]
                | _ -> []);
              ]))
       diags)

let stats_json srv =
  let sc name k = (name, Json.num (float_of_int (Obs.Metrics.counter_value k))) in
  let a name = sc name (Obs.Metrics.counter ("analysis." ^ name)) in
  let hits = Obs.Metrics.counter_value counters.session_hits
  and misses = Obs.Metrics.counter_value counters.session_misses in
  let live = Mutex.protect srv.cm (fun () -> srv.cache_count) in
  Json.Obj
    [
      ( "server",
        Json.Obj
          [
            sc "requests" counters.requests;
            sc "queries" counters.queries;
            sc "rejected" counters.rejected;
            sc "query_errors" counters.query_errors;
            sc "batch_groups" counters.batch_groups;
            sc "batched_queries" counters.batched_queries;
            sc "answer_hits" counters.answer_hits;
            sc "lint_skips" counters.lint_skips;
          ] );
      ( "sessions",
        Json.Obj
          [
            ("live", Json.num (float_of_int live));
            ("capacity", Json.num (float_of_int srv.cfg.max_sessions));
            sc "hits" counters.session_hits;
            sc "misses" counters.session_misses;
            sc "evictions" counters.session_evictions;
            ( "hit_rate",
              Json.num
                (if hits + misses = 0 then 0.
                 else float_of_int hits /. float_of_int (hits + misses)) );
          ] );
      ( "analysis",
        Json.Obj
          [
            a "mixture_passes";
            a "mixture_steps";
            a "batch_columns";
            a "weight_computes";
            a "weight_hits";
            a "steady_solves";
            a "steady_hits";
          ] );
    ]

(* Admission: JSON decode, lint pre-flight, query parse — all before any
   state-space work; failures answer 4xx with positioned diagnostics.
   Bytes a live session was built from passed lint before, so they skip
   it and take that session's model; a rejected model has no session and
   is linted every time. Runs inside the request's root span, so the
   admission/lint/parse spans and the enqueued job all carry the
   request's trace context. *)
let handle_analyze srv req ~(respond_json : status:int -> Json.t -> unit)
    ~(meta : req_meta) =
  let reject status json =
    Obs.Metrics.incr counters.rejected;
    respond_json ~status json
  in
  match
    Obs.Trace.with_span "server.decode" @@ fun _ -> Json.parse req.Http.body
  with
  | exception Json.Parse_error msg ->
      reject 400 (Json.Obj [ ("error", Str ("invalid JSON: " ^ msg)) ])
  | body -> (
      let model = Json.string_field "model" body in
      let queries =
        match Json.list_field "queries" body with
        | Some items ->
            List.fold_right
              (fun item acc ->
                match (item, acc) with
                | Json.Str q, Some qs -> Some (q :: qs)
                | _ -> None)
              items (Some [])
        | None -> (
            match Json.member "queries" body with
            | None -> Some []  (* omitted: just warm the session *)
            | Some _ -> None)
      in
      match (model, queries) with
      | None, _ ->
          reject 400
            (Json.Obj [ ("error", Str "missing string field \"model\"") ])
      | _, None ->
          reject 400
            (Json.Obj
               [ ("error", Str "\"queries\" must be an array of strings") ])
      | Some src, Some queries -> (
          let hash = model_hash src in
          meta.m_hash <- Some (hash_hex hash);
          let accepted = Mutex.protect srv.cm (fun () -> find_session srv hash src) in
          let diags, model =
            match accepted with
            | Some s ->
                Obs.Metrics.incr counters.lint_skips;
                ( [],
                  Some
                    (Session.model s.s_chains, Some (Session.levels s.s_chains))
                )
            | None ->
                Obs.Trace.with_span "server.lint" @@ fun l_span ->
                let (diags, _) as linted = Lint.lint_source src in
                if Obs.Trace.recording l_span then
                  Obs.Trace.add_attr l_span "diagnostics"
                    (Obs.Int (List.length diags));
                linted
          in
          match model with
          | Some (model, levels) when not (Lint.has_errors diags) -> (
              let parsed =
                Obs.Trace.with_span "server.parse_queries" @@ fun _ ->
                List.mapi
                  (fun i q ->
                    match Csl.Parser.parse q with
                    | ast -> Ok (q, ast)
                    | exception Csl.Parser.Syntax_error
                        { line; column; message; _ } ->
                        Error (i, q, line, column, message))
                  queries
              in
              match
                List.find_opt (function Error _ -> true | Ok _ -> false) parsed
              with
              | Some (Error (i, q, line, column, message)) ->
                  reject 400
                    (Json.Obj
                       [
                         ("error", Str "query syntax error");
                         ("query_index", Json.num (float_of_int i));
                         ("query", Str q);
                         ("line", Json.num (float_of_int line));
                         ("column", Json.num (float_of_int column));
                         ("message", Str message);
                       ])
              | _ -> (
                  let j_queries =
                    List.map (function Ok qa -> qa | Error _ -> assert false) parsed
                  in
                  let kinds = List.map (fun (_, ast) -> query_kind ast) j_queries in
                  List.iter (fun k -> Obs.Metrics.incr (c_query_kind k)) kinds;
                  meta.m_queries <- List.length j_queries;
                  meta.m_kinds <- List.sort_uniq compare kinds;
                  let job =
                    {
                      j_src = src;
                      j_model = model;
                      j_levels = levels;
                      j_hash = hash;
                      j_queries;
                      j_ctx = Obs.Trace.current_context ();
                      jm = Mutex.create ();
                      jc = Condition.create ();
                      j_result = None;
                      j_session = "";
                      j_chains = "";
                    }
                  in
                  let admitted =
                    Mutex.protect srv.qm (fun () ->
                        if srv.running then begin
                          Queue.add job srv.queue;
                          Condition.signal srv.qc;
                          true
                        end
                        else false)
                  in
                  if not admitted then
                    respond_json ~status:503
                      (Json.Obj [ ("error", Str "server is shutting down") ])
                  else begin
                    Obs.Metrics.incr counters.requests;
                    Obs.Metrics.add counters.queries (List.length j_queries);
                    let status, body = await_job job in
                    if job.j_session <> "" then meta.m_session <- Some job.j_session;
                    if job.j_chains <> "" then meta.m_chains <- Some job.j_chains;
                    respond_json ~status body
                  end))
          | _ ->
              reject 422
                (Json.Obj
                   [
                     ("error", Str "lint rejected the model");
                     ("diagnostics", diagnostics_json diags);
                   ])))

let rec initiate_stop srv =
  let was_running =
    Mutex.protect srv.qm (fun () ->
        if srv.running then begin
          srv.running <- false;
          Condition.broadcast srv.qc;
          true
        end
        else false)
  in
  if was_running then
    (* wake the accept loop with a throw-away connection; it re-checks
       [running] after every accept and exits *)
    try
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try
         Unix.connect fd
           (Unix.ADDR_INET (Unix.inet_addr_loopback, srv.bound_port))
       with Unix.Unix_error _ -> ());
      try Unix.close fd with Unix.Unix_error _ -> ()
    with Unix.Unix_error _ -> ()

and contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* One-line structured JSON access log, behind OBS_ACCESS_LOG. *)
and write_access_log srv ~(req : Http.request) ~(meta : req_meta) ~trace_id
    ~latency_ms =
  match srv.access_log with
  | None -> ()
  | Some (oc, _) ->
      let line =
        Json.to_string
          (Json.Obj
             (List.concat
                [
                  [
                    ("ts", Json.num (Unix.gettimeofday ()));
                    ("method", Json.Str req.Http.meth);
                    ("path", Json.Str req.Http.path);
                    ("status", Json.num (float_of_int meta.m_status));
                    ("latency_ms", Json.num latency_ms);
                    ("trace_id", Json.Str trace_id);
                  ];
                  (match meta.m_hash with
                  | Some h -> [ ("model_hash", Json.Str h) ]
                  | None -> []);
                  (match meta.m_session with
                  | Some s -> [ ("session", Json.Str s) ]
                  | None -> []);
                  (match meta.m_chains with
                  | Some c -> [ ("chain", Json.Str c) ]
                  | None -> []);
                  (if meta.m_queries > 0 then
                     [
                       ("queries", Json.num (float_of_int meta.m_queries));
                       ( "query_kinds",
                         Json.List (List.map (fun k -> Json.Str k) meta.m_kinds)
                       );
                     ]
                   else []);
                ]))
      in
      Mutex.protect srv.al_mutex (fun () ->
          try
            output_string oc (line ^ "\n");
            flush oc
          with Sys_error _ -> ())

and handle_request srv fd req =
  let keep_alive = not (Http.wants_close req) in
  let t_start = Obs.monotonic_ns () in
  let path_only =
    match String.index_opt req.Http.path '?' with
    | Some i -> String.sub req.Http.path 0 i
    | None -> req.Http.path
  in
  let endpoint = endpoint_label ~meth:req.Http.meth ~path:path_only in
  (* accept the client's traceparent (malformed values are ignored per
     the W3C spec), root this request as a child of it, and echo the
     request's own identity back in the response header *)
  let client_ctx =
    Option.bind (Http.header req "traceparent") Obs.Trace.parse_traceparent
  in
  let ctx =
    match client_ctx with
    | Some c -> Obs.Trace.child_context c
    | None -> Obs.Trace.new_context ()
  in
  let tp = ("traceparent", Obs.Trace.format_traceparent ctx) in
  let meta = fresh_meta () in
  (* the latency clock stops when the reply is handed to the socket: it
     never covers the span and log bookkeeping that follows the reply, and
     (unlike a stamp taken after the write returns, which a client thread
     in the same process can delay) it can never exceed the latency the
     client sees *)
  let t_replied = ref None in
  let respond ?(keep_alive = keep_alive) ?content_type ~status body =
    meta.m_status <- status;
    t_replied := Some (Obs.monotonic_ns ());
    Http.write_response ?content_type ~keep_alive ~headers:[ tp ] fd ~status
      ~body
  in
  let respond_json ?keep_alive ~status json =
    respond ?keep_alive ~status (Json.to_string json)
  in
  let keep =
    Obs.Trace.with_context client_ctx @@ fun () ->
    Obs.Trace.with_span ~ctx "server.request"
      ~attrs:
        [
          ("method", Obs.Str req.Http.meth);
          ("path", Obs.Str req.Http.path);
          ("endpoint", Obs.Str endpoint);
        ]
    @@ fun span ->
    let keep =
      try
        match (req.Http.meth, path_only) with
        | "GET", "/health" ->
            respond_json ~status:200 (Json.Obj [ ("status", Str "ok") ]);
            keep_alive
        | "GET", "/stats" ->
            respond_json ~status:200 (stats_json srv);
            keep_alive
        | "GET", "/metrics" ->
            let accept = Option.value (Http.header req "accept") ~default:"" in
            let want_prometheus =
              contains_substring accept "text/plain"
              || contains_substring req.Http.path "format=prometheus"
            in
            let snap = Obs.Metrics.snapshot () in
            if want_prometheus then
              respond
                ~content_type:"text/plain; version=0.0.4; charset=utf-8"
                ~status:200
                (Obs.Metrics.to_prometheus snap)
            else respond_json ~status:200 (Obs.Metrics.to_json snap);
            keep_alive
        | "POST", "/shutdown" ->
            respond_json ~keep_alive:false ~status:200
              (Json.Obj [ ("status", Str "shutting down") ]);
            initiate_stop srv;
            false
        | "POST", "/analyze" ->
            handle_analyze srv req ~respond_json:(respond_json ?keep_alive:None)
              ~meta;
            keep_alive
        | _, path ->
            Obs.Metrics.incr counters.rejected;
            respond_json ~status:404
              (Json.Obj [ ("error", Str ("no such endpoint: " ^ path)) ]);
            keep_alive
      with
      | (Unix.Unix_error _ | Sys_error _ | End_of_file) as e ->
          (* transport failure: nothing sensible left to write *)
          raise e
      | e ->
          (* unexpected handler failure: answer 500 instead of dropping
             the connection; the flight dump below preserves the spans *)
          (try
             respond_json ~keep_alive:false ~status:500
               (Json.Obj
                  [ ("error", Str ("internal error: " ^ Printexc.to_string e)) ])
           with Unix.Unix_error _ | Sys_error _ -> ());
          false
    in
    if Obs.Trace.recording span then begin
      Obs.Trace.add_attr span "status" (Obs.Int meta.m_status);
      (match meta.m_session with
      | Some s -> Obs.Trace.add_attr span "session" (Obs.Str s)
      | None -> ());
      if meta.m_queries > 0 then
        Obs.Trace.add_attr span "queries" (Obs.Int meta.m_queries)
    end;
    keep
  in
  let t_end =
    match !t_replied with Some t -> t | None -> Obs.monotonic_ns ()
  in
  let latency_ms = ns_to_ms (Int64.sub t_end t_start) in
  Obs.Metrics.observe (h_endpoint_latency endpoint) latency_ms;
  write_access_log srv ~req ~meta ~trace_id:ctx.Obs.Trace.trace_id ~latency_ms;
  (* post-mortem evidence for failed requests: 5xx always, and 422 —
     a model rejected mid-load is exactly the "what was the daemon doing"
     case the flight recorder exists for *)
  if (meta.m_status >= 500 || meta.m_status = 422) && Obs.Flight.enabled ()
  then
    Obs.Flight.dump
      ~reason:(Printf.sprintf "http_%d %s" meta.m_status req.Http.path)
      ();
  keep

let handle_conn srv fd =
  let c = Http.conn fd in
  (try
     let rec serve () =
       match Http.read_request c with
       | None -> ()
       | Some req -> if handle_request srv fd req then serve ()
     in
     serve ()
   with
  | Http.Bad_request msg -> (
      Obs.Metrics.incr counters.rejected;
      try
        json_response ~keep_alive:false fd ~status:400
          (Json.Obj [ ("error", Str msg) ])
      with Unix.Unix_error _ | Sys_error _ -> ())
  | Unix.Unix_error _ | End_of_file | Sys_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let accept_loop srv =
  let rec loop () =
    match Unix.accept srv.listen_fd with
    | fd, _ ->
        if Mutex.protect srv.qm (fun () -> srv.running) then begin
          ignore (Thread.create (handle_conn srv) fd : Thread.t);
          loop ()
        end
        else begin
          try Unix.close fd with Unix.Unix_error _ -> ()
        end
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception Unix.Unix_error ((Unix.ECONNABORTED | Unix.EAGAIN), _, _) ->
        loop ()
    | exception Unix.Unix_error _ -> ()
  in
  loop ();
  try Unix.close srv.listen_fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                          *)

(* Low-duty-cycle background thread: services SIGUSR1 flight-dump
   requests (the handler only sets a flag — dumping from a signal
   handler is unsafe) and periodically flushes the trace so a crash
   loses at most a few seconds of spans. *)
let housekeeping srv =
  let tick = ref 0 in
  let rec loop () =
    let keep_going = Mutex.protect srv.qm (fun () -> srv.running) in
    if keep_going then begin
      Thread.delay 0.25;
      Obs.Flight.poll ();
      incr tick;
      if !tick mod 8 = 0 && Obs.Trace.enabled () then Obs.Trace.flush ();
      loop ()
    end
  in
  loop ()

let start ?(config = default_config ()) () =
  (* a client hanging up mid-response must surface as EPIPE on the
     handler thread, not kill the process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Obs.Metrics.set_enabled true;
  (* the flight recorder is always on in the daemon: a bounded ring per
     domain, dumped on 5xx/422, solver non-convergence, or SIGUSR1 *)
  Obs.Flight.set_enabled true;
  let access_log =
    match Sys.getenv_opt "OBS_ACCESS_LOG" with
    | None | Some "" | Some "0" -> None
    | Some "-" | Some "stderr" -> Some (stderr, false)
    | Some path -> (
        match open_out_gen [ Open_append; Open_creat ] 0o644 path with
        | oc -> Some (oc, true)
        | exception Sys_error msg ->
            Printf.eprintf "warning: OBS_ACCESS_LOG: %s\n%!" msg;
            None)
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd
       (Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port));
     Unix.listen fd 128
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  let bound_port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> config.port
  in
  let srv =
    {
      cfg = config;
      listen_fd = fd;
      bound_port;
      pool = Parallel.Pool.create ~domains:config.domains ();
      queue = Queue.create ();
      qm = Mutex.create ();
      qc = Condition.create ();
      running = true;
      cache = Hashtbl.create 64;
      cache_count = 0;
      clock = 0;
      cm = Mutex.create ();
      access_log;
      al_mutex = Mutex.create ();
      accept_thread = None;
      sched_thread = None;
      house_thread = None;
    }
  in
  srv.sched_thread <- Some (Thread.create scheduler srv);
  srv.accept_thread <- Some (Thread.create accept_loop srv);
  srv.house_thread <- Some (Thread.create housekeeping srv);
  srv

let wait srv =
  Option.iter Thread.join srv.sched_thread;
  Option.iter Thread.join srv.accept_thread;
  Option.iter Thread.join srv.house_thread;
  Parallel.Pool.shutdown srv.pool;
  match srv.access_log with
  | Some (oc, close_at_stop) ->
      Mutex.protect srv.al_mutex (fun () ->
          (try flush oc with Sys_error _ -> ());
          if close_at_stop then try close_out oc with Sys_error _ -> ())
  | None -> ()

let stop srv =
  initiate_stop srv;
  wait srv
