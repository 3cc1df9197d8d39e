(* Load generator for the analysis daemon: replay a portfolio of model
   variants x the paper's measure queries against arcade_serve and report
   throughput, latency percentiles and amortization (session cache hits,
   answers from the sessions' memos, uniformization sweeps vs the
   one-query-per-request baseline). *)

open Cmdliner
module Http = Server.Http

(* The measure suite of the paper's evaluation, per request: two
   steady-state queries, one time-bounded until, both reward operators.
   Evaluated one query at a time these cost 3 uniformization sweeps per
   request (the S queries are steady-state solves); the daemon's batching
   answers them in at most 2 sweeps per session, and a session's memo
   answers a repeat without one. *)
let queries =
  [
    "S=? [ \"full_service\" ]";
    "S=? [ \"operational\" ]";
    "P=? [ true U<=1000 !\"full_service\" ]";
    "R{\"cost\"}=? [ C<=1000 ]";
    "R{\"cost\"}=? [ I=1000 ]";
  ]

let naive_sweeps_per_request = 3

(* ------------------------------------------------------------------ *)
(* Portfolio: variant i scales every mttf by (1 + 0.05 i), giving
   distinct state spaces that hash to distinct sessions               *)

let scale_mttf factor xml =
  let rec go = function
    | Xml_kit.Element (name, attrs, children) ->
        let attrs =
          List.map
            (fun (k, v) ->
              if k = "mttf" then
                match float_of_string_opt v with
                | Some x -> (k, Printf.sprintf "%g" (x *. factor))
                | None -> (k, v)
              else (k, v))
            attrs
        in
        Xml_kit.Element (name, attrs, List.map go children)
    | Xml_kit.Text _ as t -> t
  in
  go xml

let portfolio_of_file file ~variants =
  let xml = Xml_kit.parse_file file in
  Array.init variants (fun i ->
      Xml_kit.to_string (scale_mttf (1.0 +. (0.05 *. float_of_int i)) xml))

(* ------------------------------------------------------------------ *)
(* Wire helpers                                                       *)

let num_field key json =
  match Json.member key json with Some (Json.Num x) -> Some x | _ -> None

let analyze_body model =
  Json.to_string
    (Json.Obj
       [
         ("model", Json.Str model);
         ("queries", Json.List (List.map (fun q -> Json.Str q) queries));
       ])

let wait_ready ~host ~port =
  let rec go attempts =
    match Http.request ~host ~port ~meth:"GET" ~path:"/health" () with
    | 200, _ -> ()
    | _ -> retry attempts
    | exception (Unix.Unix_error _ | End_of_file | Http.Bad_request _) ->
        retry attempts
  and retry attempts =
    if attempts <= 0 then failwith "server did not become ready"
    else begin
      Thread.delay 0.1;
      go (attempts - 1)
    end
  in
  go 100

let fetch_stats ~host ~port =
  match Http.request ~host ~port ~meth:"GET" ~path:"/stats" () with
  | 200, body -> Json.parse body
  | status, _ -> failwith (Printf.sprintf "/stats answered %d" status)

let fetch_metrics ~host ~port =
  match Http.request ~host ~port ~meth:"GET" ~path:"/metrics" () with
  | 200, body -> ( try Some (Json.parse body) with Json.Parse_error _ -> None)
  | _ -> None
  | exception (Unix.Unix_error _ | End_of_file | Http.Bad_request _) -> None

let stat path stats =
  let rec go json = function
    | [] -> num_field "" json
    | [ key ] -> num_field key json
    | key :: rest -> (
        match Json.member key json with Some j -> go j rest | None -> None)
  in
  Option.value (go stats path) ~default:0.

(* ------------------------------------------------------------------ *)
(* Worker threads                                                     *)

type tally = {
  mutable latencies_ms : float list;
  mutable ok : int;
  mutable errors : int;
  mutable hits : int;
  mutable misses : int;
  mutable slowest_ms : float;
  mutable slowest_trace : string;
      (** trace id of the slowest request — join it against the server's
          trace / access log / flight dump *)
  mutable error_traces : string list;  (** most recent first, bounded *)
}

let new_tally () =
  {
    latencies_ms = [];
    ok = 0;
    errors = 0;
    hits = 0;
    misses = 0;
    slowest_ms = -1.;
    slowest_trace = "";
    error_traces = [];
  }

let max_error_traces = 8

let worker ~host ~port ~bodies ~next ~total tally =
  let client = ref None in
  let get_client () =
    match !client with
    | Some cl -> cl
    | None ->
        let cl = Http.connect ~host ~port in
        client := Some cl;
        cl
  in
  let drop_client () =
    Option.iter Http.close !client;
    client := None
  in
  let rec loop () =
    let i = Atomic.fetch_and_add next 1 in
    if i < total then begin
      let body = bodies.(i mod Array.length bodies) in
      (* every request carries its own W3C trace identity, so a slow or
         failed request here can be looked up in the server's trace *)
      let ctx = Obs.Trace.new_context () in
      let headers = [ ("traceparent", Obs.Trace.format_traceparent ctx) ] in
      let record_error () =
        tally.errors <- tally.errors + 1;
        if List.length tally.error_traces < max_error_traces then
          tally.error_traces <- ctx.Obs.Trace.trace_id :: tally.error_traces
      in
      let t0 = Obs.monotonic_ns () in
      (match
         Http.call (get_client ()) ~headers ~meth:"POST" ~path:"/analyze" ~body
           ()
       with
      | 200, resp ->
          let dt =
            Int64.to_float (Int64.sub (Obs.monotonic_ns ()) t0) /. 1e6
          in
          tally.latencies_ms <- dt :: tally.latencies_ms;
          tally.ok <- tally.ok + 1;
          if dt > tally.slowest_ms then begin
            tally.slowest_ms <- dt;
            tally.slowest_trace <- ctx.Obs.Trace.trace_id
          end;
          (match Json.string_field "session" (Json.parse resp) with
          | Some "hit" -> tally.hits <- tally.hits + 1
          | Some "miss" -> tally.misses <- tally.misses + 1
          | _ -> ()
          | exception Json.Parse_error _ -> ())
      | _, _ -> record_error ()
      | exception (Unix.Unix_error _ | End_of_file | Http.Bad_request _) ->
          record_error ();
          drop_client ());
      loop ()
    end
  in
  loop ();
  drop_client ()

(* The client-side view of latency, in the exact histogram schema the
   server's /metrics JSON uses ({bounds; counts; total; sum} on the
   latency grid) — comparing the two sides of the same run is then a
   field-by-field diff. *)
let client_histogram latencies =
  let bounds = Obs.Metrics.latency_ms_buckets in
  let counts = Array.make (Array.length bounds + 1) 0 in
  let sum = ref 0. in
  Array.iter
    (fun x ->
      sum := !sum +. x;
      let rec slot i =
        if i >= Array.length bounds || x <= bounds.(i) then i else slot (i + 1)
      in
      let i = slot 0 in
      counts.(i) <- counts.(i) + 1)
    latencies;
  Json.Obj
    [
      ( "bounds",
        Json.List (Array.to_list (Array.map (fun b -> Json.num b) bounds)) );
      ( "counts",
        Json.List
          (Array.to_list (Array.map (fun c -> Json.num (float_of_int c)) counts))
      );
      ("total", Json.num (float_of_int (Array.length latencies)));
      ("sum", Json.num !sum);
    ]

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (ceil (p /. 100. *. float_of_int n)) - 1))

(* ------------------------------------------------------------------ *)

let load host port model variants requests clients out shutdown =
  Obs.init ();
  let dft = Server.default_config () in
  let host = Option.value host ~default:dft.Server.host in
  let port = Option.value port ~default:dft.Server.port in
  let bodies = Array.map analyze_body (portfolio_of_file model ~variants) in
  wait_ready ~host ~port;
  let before = fetch_stats ~host ~port in
  let next = Atomic.make 0 in
  let tallies = Array.init clients (fun _ -> new_tally ()) in
  let t0 = Obs.monotonic_ns () in
  let threads =
    Array.map
      (fun tally ->
        Thread.create
          (fun () -> worker ~host ~port ~bodies ~next ~total:requests tally)
          ())
      tallies
  in
  Array.iter Thread.join threads;
  let seconds = Int64.to_float (Int64.sub (Obs.monotonic_ns ()) t0) /. 1e9 in
  let after = fetch_stats ~host ~port in
  (* the server's end-of-run metrics snapshot rides along in the report,
     so one file holds both sides of the run *)
  let server_metrics = fetch_metrics ~host ~port in
  let sum f = Array.fold_left (fun acc t -> acc + f t) 0 tallies in
  let ok = sum (fun t -> t.ok)
  and errors = sum (fun t -> t.errors)
  and hits = sum (fun t -> t.hits)
  and misses = sum (fun t -> t.misses) in
  let latencies =
    Array.of_list (Array.fold_left (fun acc t -> t.latencies_ms @ acc) [] tallies)
  in
  Array.sort compare latencies;
  let mean =
    if latencies = [||] then 0.
    else Array.fold_left ( +. ) 0. latencies /. float_of_int (Array.length latencies)
  in
  let delta path = stat path after -. stat path before in
  let mixture_passes = delta [ "analysis"; "mixture_passes" ] in
  let naive_passes = float_of_int (naive_sweeps_per_request * ok) in
  let answer_hits = delta [ "server"; "answer_hits" ] in
  let shits = delta [ "sessions"; "hits" ]
  and smisses = delta [ "sessions"; "misses" ] in
  let hit_rate =
    if shits +. smisses = 0. then 0. else shits /. (shits +. smisses)
  in
  let slowest =
    Array.fold_left
      (fun acc t ->
        match acc with
        | Some (ms, _) when ms >= t.slowest_ms -> acc
        | _ when t.slowest_ms < 0. -> acc
        | _ -> Some (t.slowest_ms, t.slowest_trace))
      None tallies
  in
  let error_traces =
    Array.fold_left (fun acc t -> t.error_traces @ acc) [] tallies
  in
  let report =
    Json.Obj
      [
        ( "portfolio",
          Json.Obj
            [
              ("model", Json.Str model);
              ("variants", Json.num (float_of_int variants));
              ( "queries_per_request",
                Json.num (float_of_int (List.length queries)) );
            ] );
        ("requests", Json.num (float_of_int requests));
        ("clients", Json.num (float_of_int clients));
        ("seconds", Json.num seconds);
        ( "throughput_qps",
          Json.num
            (if seconds > 0. then
               float_of_int (ok * List.length queries) /. seconds
             else 0.) );
        ( "latency_ms",
          Json.Obj
            [
              ("mean", Json.num mean);
              ("p50", Json.num (percentile latencies 50.));
              ("p90", Json.num (percentile latencies 90.));
              ("p95", Json.num (percentile latencies 95.));
              ("p99", Json.num (percentile latencies 99.));
              ( "max",
                Json.num
                  (if latencies = [||] then 0.
                   else latencies.(Array.length latencies - 1)) );
            ] );
        ("latency_histogram_ms", client_histogram latencies);
        ( "traces",
          Json.Obj
            (List.concat
               [
                 (match slowest with
                 | Some (ms, id) ->
                     [
                       ("slowest_trace_id", Json.Str id);
                       ("slowest_ms", Json.num ms);
                     ]
                 | None -> []);
                 [
                   ( "errors",
                     Json.List
                       (List.map (fun id -> Json.Str id) error_traces) );
                 ];
               ]) );
        ("ok", Json.num (float_of_int ok));
        ("errors", Json.num (float_of_int errors));
        ( "responses",
          Json.Obj
            [
              ("hit", Json.num (float_of_int hits));
              ("miss", Json.num (float_of_int misses));
            ] );
        ( "amortization",
          Json.Obj
            [
              ("session_hit_rate", Json.num hit_rate);
              ("mixture_passes", Json.num mixture_passes);
              ("naive_mixture_passes", Json.num naive_passes);
              ("answer_hits", Json.num answer_hits);
            ] );
        ("server", after);
        ( "server_metrics",
          Option.value server_metrics ~default:(Json.Obj []) );
      ]
  in
  Printf.printf
    "%d ok, %d errors in %.2fs: %.1f queries/s; p50 %.2fms p95 %.2fms p99 %.2fms\n"
    ok errors seconds
    (if seconds > 0. then float_of_int (ok * List.length queries) /. seconds
     else 0.)
    (percentile latencies 50.) (percentile latencies 95.)
    (percentile latencies 99.);
  Printf.printf
    "sessions: %.0f%% hit rate (%g hits / %g misses); sweeps: %g vs %g naive; \
     answer hits: %g\n%!"
    (100. *. hit_rate) shits smisses mixture_passes naive_passes answer_hits;
  (match out with
  | Some path ->
      Obs.write_file_atomic path (Json.to_string report);
      Printf.printf "wrote report to %s\n%!" path
  | None -> ());
  if shutdown then
    ignore (Http.request ~host ~port ~meth:"POST" ~path:"/shutdown" ());
  if errors > 0 then exit 1

let host =
  Arg.(value & opt (some string) None & info [ "host" ] ~docv:"ADDR"
         ~doc:"Server address (default $(b,SERVER_HOST) or 127.0.0.1).")

let port =
  Arg.(value & opt (some int) None & info [ "p"; "port" ] ~docv:"PORT"
         ~doc:"Server port (default $(b,SERVER_PORT) or 8641).")

let model =
  Arg.(value & opt file "models/line1_ded.xml" & info [ "model" ] ~docv:"FILE"
         ~doc:"Base Arcade XML model for the portfolio.")

let variants =
  Arg.(value & opt int 8 & info [ "variants" ] ~docv:"N"
         ~doc:"Portfolio size: distinct mttf-scaled model variants.")

let requests =
  Arg.(value & opt int 200 & info [ "n"; "requests" ] ~docv:"N"
         ~doc:"Total /analyze requests across all clients.")

let clients =
  Arg.(value & opt int 4 & info [ "c"; "clients" ] ~docv:"N"
         ~doc:"Concurrent client connections.")

let out =
  Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE"
         ~doc:"Write the JSON report here (atomically).")

let shutdown =
  Arg.(value & flag & info [ "shutdown" ]
         ~doc:"POST /shutdown to the server when done.")

let cmd =
  let doc = "load generator for the Arcade analysis daemon" in
  Cmd.v
    (Cmd.info "arcade_load" ~doc)
    Term.(
      const load $ host $ port $ model $ variants $ requests $ clients $ out
      $ shutdown)

let () = exit (Cmd.eval cmd)
