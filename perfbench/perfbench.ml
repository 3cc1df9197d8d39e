(* The in-process half of the benchmark (perfbench/run.py drives it; see
   perfbench/README.md).

     perfbench.exe paper  [--points N] [--passes N] [--artifacts a,b]
                          [--trace FILE] [--setup-only] [--perturb]
     perfbench.exe client --workload hit|sweep --port P --seed S
                          --requests N [--replay N] [--setup-only]
                          [--perturb]

   [paper] regenerates the paper's artifacts through
   Watertreatment.Experiments and checks them; [client] generates seeded
   request bodies, drives a running arcade_serve daemon over two
   keep-alive connections, checks every answer against an in-process
   Csl.Checker reference and, with [--replay], times the admission
   layers on the same bodies. Every stdout line is one JSON object.
   [--perturb] shifts every value before it is checked, so the smoke test
   can prove that the checks reject wrong answers. *)

module E = Watertreatment.Experiments
module Json = Server.Json
module Http = Server.Http

let args = List.tl (Array.to_list Sys.argv)

let flag name = List.mem ("--" ^ name) args

let opt name conv ~default =
  let rec go = function
    | k :: v :: _ when k = "--" ^ name -> conv v
    | _ :: rest -> go rest
    | [] -> default
  in
  go args

let emit fields =
  print_endline (Json.to_string (Json.Obj fields));
  flush stdout

let num_i i = Json.num (float_of_int i)

(* monotonic timestamps travel as strings so no digit is lost; run.py
   reads them against its own CLOCK_MONOTONIC *)
let stamp () = Json.Str (Int64.to_string (Obs.monotonic_ns ()))

let elapsed_s t0 = Int64.to_float (Int64.sub (Obs.monotonic_ns ()) t0) /. 1e9

let timed f =
  let t0 = Obs.monotonic_ns () in
  let r = f () in
  (r, elapsed_s t0)

let median = function
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" @@ fun ic ->
  let rec go () =
    match In_channel.input_line ic with
    | Some line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | Some _ -> go ()
    | None -> 0.
  in
  go ()

let first n l = List.filteri (fun i _ -> i < n) l

(* ------------------------------------------------------------------ *)
(* paper_seq                                                          *)

(* Table 1 (states, transitions for Line 1 then Line 2) and the Table 2
   DED availabilities, as EXPERIMENTS.md records them *)
let table1_pins =
  [
    ("DED", [ 2048; 22528; 512; 4608 ]);
    ("FRF-1", [ 111809; 469007; 8129; 32029 ]);
    ("FRF-2", [ 178606; 895331; 11956; 56013 ]);
    ("FFF-1", [ 111809; 469007; 8129; 32029 ]);
    ("FFF-2", [ 178606; 895331; 11956; 56013 ]);
  ]

let table2_ded = [ "0.7442018"; "0.8186317" ]

let check_artifact ~perturb artifact =
  let v x = x +. perturb in
  let row rows strategy = List.find_opt (fun r -> List.hd r = strategy) rows in
  match artifact with
  | E.Table { table_id = "table1"; rows; _ } ->
      List.filter_map
        (fun (strategy, pins) ->
          match row rows strategy with
          | None -> Some ("table1: no row " ^ strategy)
          | Some cells ->
              let got = List.map (fun c -> v (float_of_string c)) (List.tl cells) in
              if got = List.map float_of_int pins then None
              else Some ("table1: wrong counts for " ^ strategy))
        table1_pins
  | E.Table { table_id = "table2"; rows; _ } ->
      let bounds =
        List.concat_map
          (fun cells ->
            List.filter_map
              (fun c ->
                let a = v (float_of_string c) in
                if a >= 0. && a <= 1. then None
                else Some (Printf.sprintf "table2: %s %g outside [0, 1]" (List.hd cells) a))
              (List.tl cells))
          rows
      in
      let pins =
        match row rows "DED" with
        | Some (_ :: l1 :: l2 :: _) ->
            List.filter_map
              (fun (cell, pin) ->
                let got = Printf.sprintf "%.7f" (v (float_of_string cell)) in
                if got = pin then None
                else Some (Printf.sprintf "table2: DED %s, expected %s" got pin))
              (List.combine [ l1; l2 ] table2_ded)
        | _ -> [ "table2: no DED row" ]
      in
      bounds @ pins
  | E.Table { table_id; _ } -> [ table_id ^ ": unexpected table" ]
  | E.Figure f ->
      let probability = f.ylabel = "Probability" in
      List.concat_map
        (fun (s : E.series) ->
          List.filter_map
            (fun (x, y) ->
              let y = v y in
              if not (Float.is_finite x && Float.is_finite y) then
                Some (Printf.sprintf "%s/%s: non-finite value at t=%g" f.fig_id s.label x)
              else if probability && (y < 0. || y > 1.) then
                Some (Printf.sprintf "%s/%s: probability %g at t=%g" f.fig_id s.label y x)
              else None)
            s.points)
        f.series

(* (states, stored entries of the uniformized matrix) per Table 1 chain —
   the sizes run.py needs to compute the kernel's bytes per step *)
let table1_chains = function
  | E.Table { table_id = "table1"; rows; _ } ->
      List.concat_map
        (fun cells ->
          match List.map int_of_string_opt (List.tl cells) with
          | [ Some s1; Some t1; Some s2; Some t2 ] -> [ (s1, t1 + s1); (s2, t2 + s2) ]
          | _ -> [])
        rows
  | _ -> []

let chains_json chains =
  Json.List
    (List.map (fun (n, nnz) -> Json.List [ num_i n; num_i nnz ])
       (List.sort_uniq compare chains))

let paper () =
  emit [ ("ready_ns", stamp ()) ];
  if flag "setup-only" then exit 0;
  let points = opt "points" int_of_string ~default:10 in
  let passes = opt "passes" int_of_string ~default:1 in
  let perturb = if flag "perturb" then 2. else 0. in
  let ids = opt "artifacts" (String.split_on_char ',') ~default:E.ids in
  let gens =
    List.map
      (fun id ->
        match E.by_id id with
        | Some gen -> (id, gen)
        | None -> failwith ("unknown artifact " ^ id))
      ids
  in
  let trace = opt "trace" Option.some ~default:None in
  Option.iter
    (fun path ->
      Obs.Trace.set_output (Some path);
      Obs.Metrics.set_enabled true)
    trace;
  let attempted = ref 0 and failed = ref 0 and failures = ref [] in
  let artifact_s = ref [] and chains = ref [] in
  let pass_s =
    List.init passes (fun pass ->
        (* cold caches: every pass pays for its state-space builds *)
        E.clear_cache ();
        let artifacts, dt =
          timed (fun () ->
              List.map
                (fun (id, gen) ->
                  let a, dt = timed (fun () -> gen ?points:(Some points) ()) in
                  if pass = 0 then artifact_s := (id, Json.num dt) :: !artifact_s;
                  (id, a))
                gens)
        in
        List.iter
          (fun (id, a) ->
            incr attempted;
            if id = "table1" then chains := table1_chains a;
            match check_artifact ~perturb a with
            | [] -> ()
            | errs ->
                incr failed;
                failures := !failures @ errs)
          artifacts;
        dt)
  in
  if trace <> None then Obs.Trace.flush ();
  let gc = Gc.quick_stat () in
  let snap = Obs.Metrics.snapshot () in
  emit
    [
      ("pass_s", Json.List (List.map Json.num pass_s));
      ("artifact_s", Json.Obj (List.rev !artifact_s));
      ("attempted", num_i !attempted);
      ("failed", num_i !failed);
      ("failures", Json.List (List.map (fun s -> Json.Str s) (first 10 !failures)));
      ("peak_rss_mb", Json.num (peak_rss_mb ()));
      ( "gc",
        Json.Obj
          [
            ("major_collections", num_i gc.Gc.major_collections);
            ( "top_heap_mb",
              Json.num
                (float_of_int (gc.Gc.top_heap_words * (Sys.word_size / 8))
                /. 1048576.) );
          ] );
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, num_i v)) snap.Obs.Metrics.counters) );
      ("chains", chains_json !chains);
    ]

(* ------------------------------------------------------------------ *)
(* Serve workloads: request generation                                *)

(* arcade_load's five-query measure suite: two steady-state queries, one
   time-bounded until, both reward operators *)
let hit_queries =
  [
    "S=? [ \"full_service\" ]";
    "S=? [ \"operational\" ]";
    "P=? [ true U<=1000 !\"full_service\" ]";
    "R{\"cost\"}=? [ C<=1000 ]";
    "R{\"cost\"}=? [ I=1000 ]";
  ]

let sweep_queries = first 2 hit_queries

let sweep_bases =
  [
    "models/line2_ded.xml";
    "models/line2_fff-1.xml";
    "models/line2_fff-2.xml";
    "models/line2_frf-1.xml";
    "models/line2_frf-2.xml";
    "models/line1_ded.xml";
  ]

let hit_portfolio = 4

let scale_mttf factor xml =
  let rec go = function
    | Xml_kit.Element (name, attrs, children) ->
        let attrs =
          List.map
            (fun (k, v) ->
              match (k, float_of_string_opt v) with
              | "mttf", Some x -> (k, Printf.sprintf "%.9g" (x *. factor))
              | _ -> (k, v))
            attrs
        in
        Xml_kit.Element (name, attrs, List.map go children)
    | Xml_kit.Text _ as t -> t
  in
  go xml

type plan = {
  queries : string list;
  warmup : string list;  (** model sources sent before the timed phase *)
  timed : string array;  (** model source of timed request [i] *)
  pairs : bool;
      (** in round [r] both clients send, requests [2r] and [2r + 1], so
          they land in one batch window; otherwise only client [r mod 2]
          sends, request [r], and one request is in flight at a time *)
}

(* Variants are mttf scale factors in [0.8, 1.25) drawn from the seed;
   [fresh] redraws until the source is one no earlier request used. *)
let make_plan ~workload ~seed ~requests =
  let rng = Random.State.make [| seed; Hashtbl.hash workload |] in
  let seen = Hashtbl.create 256 in
  let rec fresh path =
    let factor = 0.8 +. Random.State.float rng 0.45 in
    let src = Xml_kit.to_string (scale_mttf factor (Xml_kit.parse_file path)) in
    if Hashtbl.mem seen src then fresh path
    else begin
      Hashtbl.add seen src ();
      src
    end
  in
  match workload with
  | "hit" ->
      let portfolio =
        Array.init hit_portfolio (fun _ -> fresh "models/line2_ded.xml")
      in
      let rounds = max 1 (requests / 2) in
      let picks = Array.init rounds (fun _ -> Random.State.int rng hit_portfolio) in
      {
        queries = hit_queries;
        warmup = Array.to_list portfolio;
        timed = Array.init (2 * rounds) (fun i -> portfolio.(picks.(i / 2)));
        pairs = true;
      }
  | "sweep" ->
      let warmup = List.map fresh sweep_bases in
      (* the blocks walk the bases in a fixed order, so the mix of chain
         sizes, and which sessions the LRU holds together, is the same for
         every seed *)
      let size = List.length sweep_bases in
      let blocks = max 1 ((requests + size - 1) / size) in
      let timed = List.concat (List.init blocks (fun _ -> List.map fresh sweep_bases)) in
      { queries = sweep_queries; warmup; timed = Array.of_list timed; pairs = false }
  | w -> failwith ("unknown workload " ^ w)

let body_of ~queries src =
  Json.to_string
    (Json.Obj
       [
         ("model", Json.Str src);
         ("queries", Json.List (List.map (fun q -> Json.Str q) queries));
         ("lump", Json.Bool false);
       ])

(* ------------------------------------------------------------------ *)
(* Serve workloads: the load client                                   *)

(* timed requests carry this trace-id prefix, so run.py can pick their
   spans out of the daemon's trace (warm-up requests get random ids) *)
let timed_trace_prefix = "7e57be7c"

let traceparent i =
  Printf.sprintf "00-%s%024x-%016x-01" timed_trace_prefix i (i + 1)

let port () = opt "port" int_of_string ~default:0

let get path =
  match Http.request ~host:"127.0.0.1" ~port:(port ()) ~meth:"GET" ~path () with
  | 200, body -> Json.parse body
  | status, _ -> failwith (Printf.sprintf "GET %s answered %d" path status)

let wait_ready () =
  let rec go attempts =
    match get "/health" with
    | _ -> ()
    | exception (Unix.Unix_error _ | End_of_file | Http.Bad_request _ | Failure _)
      when attempts > 0 ->
        Thread.delay 0.01;
        go (attempts - 1)
  in
  go 3000

let rec num_at path json =
  match (path, json) with
  | [], Json.Num x -> x
  | key :: rest, _ -> (
      match Json.member key json with Some j -> num_at rest j | None -> 0.)
  | _ -> 0.

type barrier = {
  bm : Mutex.t;
  bc : Condition.t;
  mutable arrived : int;
  mutable generation : int;
}

let await b =
  Mutex.protect b.bm (fun () ->
      let g = b.generation in
      b.arrived <- b.arrived + 1;
      if b.arrived = 2 then begin
        b.arrived <- 0;
        b.generation <- g + 1;
        Condition.broadcast b.bc
      end
      else
        while b.generation = g do
          Condition.wait b.bc b.bm
        done)

type reply = { status : int; body : string; latency_ms : float }

(* Closed loop over two keep-alive connections in lockstep rounds: no
   client sends before every reply of the previous round is in. *)
let run_timed plan bodies =
  let n = Array.length bodies in
  let replies = Array.make n { status = 0; body = ""; latency_ms = 0. } in
  let barrier =
    { bm = Mutex.create (); bc = Condition.create (); arrived = 0; generation = 0 }
  in
  let client c =
    let conn = ref None in
    let send i =
      let cl =
        match !conn with
        | Some cl -> cl
        | None ->
            let cl = Http.connect ~host:"127.0.0.1" ~port:(port ()) in
            conn := Some cl;
            cl
      in
      let headers = [ ("traceparent", traceparent i) ] in
      let t0 = Obs.monotonic_ns () in
      let status, body =
        match Http.call cl ~headers ~meth:"POST" ~path:"/analyze" ~body:bodies.(i) () with
        | r -> r
        | exception ((Unix.Unix_error _ | End_of_file | Http.Bad_request _) as e) ->
            Option.iter Http.close !conn;
            conn := None;
            (0, Printexc.to_string e)
      in
      replies.(i) <- { status; body; latency_ms = elapsed_s t0 *. 1e3 }
    in
    if plan.pairs then
      for r = 0 to (n / 2) - 1 do
        await barrier;
        send ((2 * r) + c)
      done
    else
      for r = 0 to n - 1 do
        await barrier;
        if r mod 2 = c then send r
      done;
    Option.iter Http.close !conn
  in
  let (), batch_s =
    timed (fun () ->
        let threads = List.init 2 (Thread.create client) in
        List.iter Thread.join threads)
  in
  (replies, batch_s)

(* In-process reference: the same XML through Measures + Csl.Checker. *)
let reference ~queries src =
  let xml, pos = Xml_kit.parse_string_located src in
  let model, _ = Core.Xml_io.of_xml ~pos xml in
  let m = Core.Measures.analyze model in
  let csl = Core.Measures.to_csl_model m in
  let chain = (Core.Measures.built m).Core.Semantics.chain in
  let n = Ctmc.Chain.states chain in
  ( List.map
      (fun q ->
        match Csl.Checker.check csl (Csl.Parser.parse q) with
        | Csl.Checker.Value v -> v
        | Csl.Checker.Satisfied b -> if b then 1. else 0.)
      queries,
    (n, Ctmc.Chain.transition_count chain + n) )

let check_reply ~perturb expected reply =
  if reply.status <> 200 then
    Some (Printf.sprintf "status %d: %s" reply.status reply.body)
  else
    match Json.list_field "results" (Json.parse reply.body) with
    | Some results when List.length results = List.length expected ->
        List.find_map
          (fun (r, want) ->
            match Json.member "value" r with
            | Some (Json.Num got) ->
                let got = got +. perturb in
                if Float.abs (got -. want) <= 1e-9 *. Float.max 1. (Float.abs want)
                then None
                else Some (Printf.sprintf "value %.17g, reference %.17g" got want)
            | _ -> Some ("no value in " ^ Json.to_string r))
          (List.combine results expected)
    | _ -> Some ("malformed reply " ^ reply.body)

(* The admission layers the daemon runs per request, timed around the
   same public calls on the same bodies (per-request medians, ms). *)
let replay bodies replies count =
  let rows =
    List.init (min count (Array.length bodies)) (fun i ->
        let body, decode = timed (fun () -> Json.parse bodies.(i)) in
        let src = Option.get (Json.string_field "model" body) in
        let queries =
          List.filter_map
            (function Json.Str q -> Some q | _ -> None)
            (Option.value (Json.list_field "queries" body) ~default:[])
        in
        let _, xml =
          timed (fun () ->
              let x, pos = Xml_kit.parse_string_located src in
              Core.Xml_io.of_xml ~pos x)
        in
        let _, lint = timed (fun () -> Lint.lint_string src) in
        let _, parse = timed (fun () -> List.map Csl.Parser.parse queries) in
        let response = Json.parse replies.(i).body in
        let _, encode = timed (fun () -> Json.to_string response) in
        [ decode; xml; lint; parse; encode ])
  in
  let col k = median (List.map (fun r -> List.nth r k *. 1e3) rows) in
  Json.Obj
    [
      ("json.decode_ms", Json.num (col 0));
      ("xml.parse_ms", Json.num (col 1));
      ("lint.ms", Json.num (col 2));
      ("csl.parse_ms", Json.num (col 3));
      ("json.encode_ms", Json.num (col 4));
    ]

(* Sum of [field] over the /metrics instruments of one [kind] whose names
   start with [prefix] and end with [suffix]. *)
let metric_sum ~kind ~prefix ?(suffix = "") ?field metrics =
  match Json.member kind metrics with
  | Some (Json.Obj kvs) ->
      List.fold_left
        (fun acc (k, v) ->
          if String.starts_with ~prefix k && String.ends_with ~suffix k then
            acc +. num_at (Option.to_list field) v
          else acc)
        0. kvs
  | _ -> 0.

let client () =
  let workload = opt "workload" Fun.id ~default:"hit" in
  let seed = opt "seed" int_of_string ~default:1 in
  let requests = opt "requests" int_of_string ~default:100 in
  let perturb = if flag "perturb" then 2. else 0. in
  let plan = make_plan ~workload ~seed ~requests in
  let body = body_of ~queries:plan.queries in
  wait_ready ();
  List.iter
    (fun src ->
      match
        Http.request ~host:"127.0.0.1" ~port:(port ()) ~meth:"POST" ~path:"/analyze"
          ~body:(body src) ()
      with
      | 200, _ -> ()
      | status, resp -> failwith (Printf.sprintf "warm-up answered %d: %s" status resp))
    plan.warmup;
  emit [ ("setup_done_ns", stamp ()) ];
  if flag "setup-only" then exit 0;
  let bodies = Array.map body plan.timed in
  let stats0 = get "/stats" and metrics0 = get "/metrics" in
  let replies, batch_s = run_timed plan bodies in
  let stats1 = get "/stats" and metrics1 = get "/metrics" in
  let d path = num_at path stats1 -. num_at path stats0 in
  let handle key = num_at [ "histograms"; "server.latency_ms.analyze"; key ] in
  let handle_ms =
    (handle "sum" metrics1 -. handle "sum" metrics0)
    /. Float.max 1. (handle "total" metrics1 -. handle "total" metrics0)
  in
  let delta f = f metrics1 -. f metrics0 in
  let iterations =
    delta (metric_sum ~kind:"counters" ~prefix:"solver." ~suffix:".iterations")
  in
  (* the daemon times every query evaluation (checker or shared sweep)
     into server.query_ms.<kind> *)
  let query_s =
    delta (metric_sum ~kind:"histograms" ~prefix:"server.query_ms." ~field:"sum")
    /. 1e3
  in
  (* references for every distinct variant, outside the timed phase *)
  let refs = Hashtbl.create 64 in
  Array.iter
    (fun src ->
      if not (Hashtbl.mem refs src) then
        Hashtbl.add refs src (reference ~queries:plan.queries src))
    plan.timed;
  let failures =
    List.filter_map Fun.id
      (Array.to_list
         (Array.mapi
            (fun i reply ->
              let expected, _ = Hashtbl.find refs plan.timed.(i) in
              Option.map (Printf.sprintf "request %d: %s" i)
                (check_reply ~perturb expected reply))
            replies))
  in
  let replayed =
    match opt "replay" int_of_string ~default:0 with
    | 0 -> []
    | count -> [ ("replay", replay bodies replies count) ]
  in
  emit
    ([
       ("batch_s", Json.num batch_s);
       ( "latencies_ms",
         Json.List (Array.to_list (Array.map (fun r -> Json.num r.latency_ms) replies)) );
       ("attempted", num_i (Array.length replies));
       ("failed", num_i (List.length failures));
       ("failures", Json.List (List.map (fun s -> Json.Str s) (first 10 failures)));
       ( "stats",
         Json.Obj
           (List.map
              (fun (name, path) -> (name, Json.num (d path)))
              [
                ("requests", [ "server"; "requests" ]);
                ("coalesced", [ "server"; "coalesced" ]);
                ("session_hits", [ "sessions"; "hits" ]);
                ("session_misses", [ "sessions"; "misses" ]);
                ("session_evictions", [ "sessions"; "evictions" ]);
                ("mixture_passes", [ "analysis"; "mixture_passes" ]);
                ("mixture_steps", [ "analysis"; "mixture_steps" ]);
                ("batch_columns", [ "analysis"; "batch_columns" ]);
                ("weight_hits", [ "analysis"; "weight_hits" ]);
                ("weight_computes", [ "analysis"; "weight_computes" ]);
              ]) );
       ("handle_ms", Json.num handle_ms);
       ("solver_iterations", Json.num iterations);
       ("query_s", Json.num query_s);
       ( "chains",
         chains_json (Hashtbl.fold (fun _ (_, c) acc -> c :: acc) refs []) );
     ]
    @ replayed)

let () =
  match args with
  | "paper" :: _ -> paper ()
  | "client" :: _ -> client ()
  | _ ->
      prerr_endline "usage: perfbench.exe (paper|client) [options]";
      exit 2
