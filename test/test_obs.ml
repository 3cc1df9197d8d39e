(* Tests for the Obs observability layer: Chrome-trace span export
   (parsed back with the shared Json codec), the metrics registry and its
   cross-domain merging, solver-convergence telemetry, the Analysis
   stats/registry agreement, and the guarantee that enabling
   observability does not perturb analysis results. *)

module Solver = Numeric.Solver
module Sparse = Numeric.Sparse
module Chain = Ctmc.Chain
module Analysis = Ctmc.Analysis
module Experiments = Watertreatment.Experiments

let get_num key ev =
  match Json.member key ev with
  | Some (Json.Num x) -> x
  | _ -> Alcotest.fail (Printf.sprintf "missing numeric member %S" key)

let get_str key ev =
  match Json.member key ev with
  | Some (Json.Str x) -> x
  | _ -> Alcotest.fail (Printf.sprintf "missing string member %S" key)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains needle hay =
  let nn = String.length needle and nh = String.length hay in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* burn a little time so nested spans get distinguishable timestamps *)
let spin () =
  let acc = ref 0. in
  for i = 1 to 20_000 do
    acc := !acc +. Float.sqrt (float_of_int i)
  done;
  ignore (Sys.opaque_identity !acc)

(* [traced_events f] runs [f] with tracing on and parses the trace back *)
let traced_events f =
  let path = Filename.temp_file "arcade_obs_trace" ".json" in
  Obs.Trace.set_output (Some path);
  f ();
  Obs.Trace.flush ();
  Obs.Trace.set_output None;
  let text = read_file path in
  Sys.remove path;
  match Json.parse text with
  | Json.List evs -> evs
  | _ -> Alcotest.fail "trace is not a JSON array"

let named name ev = Json.member "name" ev = Some (Json.Str name)

(* a two-domain pool, whatever PAR_DOMAINS says *)
let with_pool f =
  let pool = Numeric.Parallel.Pool.create ~domains:2 () in
  Fun.protect ~finally:(fun () -> Numeric.Parallel.Pool.shutdown pool) (fun () -> f pool)

let count_named name events = List.length (List.filter (named name) events)

let arg key ev = Option.bind (Json.member "args" ev) (Json.member key)

(* ------------------------------------------------------------------ *)
(* Trace *)

let test_trace_disabled () =
  Obs.Trace.set_output None;
  Alcotest.(check bool) "disabled" false (Obs.Trace.enabled ());
  let r =
    Obs.Trace.with_span "off" (fun sp ->
        Alcotest.(check bool) "dummy span" false (Obs.Trace.recording sp);
        Obs.Trace.add_attr sp "k" (Obs.Int 1);
        Obs.Trace.instant "nope";
        3)
  in
  Alcotest.(check int) "body still runs" 3 r

let test_trace_roundtrip () =
  let events =
    traced_events (fun () ->
        Alcotest.(check bool) "enabled" true (Obs.Trace.enabled ());
        let result =
          Obs.Trace.with_span "outer"
            ~attrs:[ ("kind", Obs.Str "test") ]
            (fun outer ->
              Alcotest.(check bool)
                "span is live" true (Obs.Trace.recording outer);
              Obs.Trace.add_attr outer "answer" (Obs.Int 42);
              spin ();
              Obs.Trace.instant "tick";
              let v = Obs.Trace.with_span "inner" (fun _ -> spin (); 17) in
              spin ();
              v)
        in
        Alcotest.(check int) "body result" 17 result)
  in
  Alcotest.(check bool) "trace has events" true (events <> []);
  List.iter
    (fun ev ->
      List.iter
        (fun k ->
          Alcotest.(check bool)
            (k ^ " present") true
            (Json.member k ev <> None))
        [ "name"; "ph"; "ts"; "pid"; "tid" ])
    events;
  let ts = List.map (get_num "ts") events in
  let rec sorted = function
    | a :: (b :: _ as rest) -> a <= b && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "events ordered by timestamp" true (sorted ts);
  let find name =
    match List.find_opt (named name) events with
    | Some ev -> ev
    | None -> Alcotest.fail (Printf.sprintf "no event named %S" name)
  in
  let outer = find "outer" and inner = find "inner" and tick = find "tick" in
  Alcotest.(check string) "outer is a complete event" "X" (get_str "ph" outer);
  Alcotest.(check string) "tick is an instant" "i" (get_str "ph" tick);
  let o0 = get_num "ts" outer and odur = get_num "dur" outer in
  let i0 = get_num "ts" inner and idur = get_num "dur" inner in
  let slack = 1e-3 (* microsecond rounding *) in
  Alcotest.(check bool) "inner starts inside outer" true (i0 +. slack >= o0);
  Alcotest.(check bool)
    "inner ends inside outer" true
    (i0 +. idur <= o0 +. odur +. slack);
  let t0 = get_num "ts" tick in
  Alcotest.(check bool) "instant inside outer" true
    (t0 +. slack >= o0 && t0 <= o0 +. odur +. slack);
  match Json.member "args" outer with
  | Some (Json.Obj args) ->
      Alcotest.(check bool)
        "creation attribute kept" true
        (List.assoc_opt "kind" args = Some (Json.Str "test"));
      Alcotest.(check bool)
        "added attribute kept" true
        (List.assoc_opt "answer" args = Some (Json.Num 42.))
  | _ -> Alcotest.fail "outer span lost its args"

(* strings with quotes, backslashes and control characters come back byte
   for byte; integers up to 2^53 come back exactly *)
let test_trace_attrs_exact () =
  let nasty = "q\"b\\n\nt\tc\x01 end" and big = 1 lsl 53 in
  let events =
    traced_events (fun () ->
        Obs.Trace.with_span nasty
          ~attrs:
            [ ("text", Obs.Str nasty); ("big", Obs.Int big);
              ("neg", Obs.Int (-big)) ]
          ignore)
  in
  match List.filter (named nasty) events with
  | [ ev ] ->
      Alcotest.(check bool)
        "string attribute" true
        (arg "text" ev = Some (Json.Str nasty));
      List.iter
        (fun (key, want) ->
          match arg key ev with
          | Some (Json.Num x) -> Alcotest.(check int) key want (Float.to_int x)
          | _ -> Alcotest.fail (key ^ " is not a number"))
        [ ("big", big); ("neg", -big) ]
  | _ -> Alcotest.fail "span name did not parse back byte for byte"

(* ------------------------------------------------------------------ *)
(* W3C trace-context *)

let valid_trace_id = "4bf92f3577b34da6a3ce929d0e0e4736"

let valid_span_id = "00f067aa0ba902b7"

let test_traceparent_parse () =
  let tid = valid_trace_id and sid = valid_span_id in
  (match
     Obs.Trace.parse_traceparent (Printf.sprintf "00-%s-%s-01" tid sid)
   with
  | Some c ->
      Alcotest.(check string) "trace id" tid c.Obs.Trace.trace_id;
      Alcotest.(check string) "span id" sid c.Obs.Trace.span_id
  | None -> Alcotest.fail "valid traceparent rejected");
  Alcotest.(check bool)
    "surrounding whitespace tolerated" true
    (Obs.Trace.parse_traceparent (Printf.sprintf " 00-%s-%s-00\r\n" tid sid)
    <> None);
  Alcotest.(check bool)
    "later version may append fields" true
    (Obs.Trace.parse_traceparent (Printf.sprintf "cc-%s-%s-01-extra" tid sid)
    <> None);
  List.iter
    (fun (label, s) ->
      Alcotest.(check bool)
        (label ^ " rejected") true
        (Obs.Trace.parse_traceparent s = None))
    [
      ("empty", "");
      ("too few fields", Printf.sprintf "00-%s-%s" tid sid);
      ("short trace id", Printf.sprintf "00-%s-%s-01" (String.sub tid 0 31) sid);
      ("long span id", Printf.sprintf "00-%s-%s0-01" tid sid);
      ( "non-hex trace id",
        Printf.sprintf "00-%s-%s-01" ("g" ^ String.sub tid 1 31) sid );
      ( "uppercase hex",
        Printf.sprintf "00-%s-%s-01" (String.uppercase_ascii tid) sid );
      ("all-zero trace id", Printf.sprintf "00-%s-%s-01" (String.make 32 '0') sid);
      ("all-zero span id", Printf.sprintf "00-%s-%s-01" tid (String.make 16 '0'));
      ("version ff", Printf.sprintf "ff-%s-%s-01" tid sid);
      ("one-digit version", Printf.sprintf "0-%s-%s-01" tid sid);
      ("non-hex flags", Printf.sprintf "00-%s-%s-0g" tid sid);
      ("version 00 trailing fields", Printf.sprintf "00-%s-%s-01-x" tid sid);
    ]

let test_traceparent_format_roundtrip () =
  let c = Obs.Trace.new_context () in
  Alcotest.(check int) "trace id length" 32 (String.length c.Obs.Trace.trace_id);
  Alcotest.(check int) "span id length" 16 (String.length c.Obs.Trace.span_id);
  let child = Obs.Trace.child_context c in
  Alcotest.(check string)
    "child keeps trace id" c.Obs.Trace.trace_id child.Obs.Trace.trace_id;
  Alcotest.(check bool)
    "child gets a fresh span id" true
    (child.Obs.Trace.span_id <> c.Obs.Trace.span_id);
  Alcotest.(check bool)
    "fresh contexts differ" true
    ((Obs.Trace.new_context ()).Obs.Trace.trace_id <> c.Obs.Trace.trace_id);
  match Obs.Trace.parse_traceparent (Obs.Trace.format_traceparent c) with
  | Some c' ->
      Alcotest.(check string)
        "roundtrip trace id" c.Obs.Trace.trace_id c'.Obs.Trace.trace_id;
      Alcotest.(check string)
        "roundtrip span id" c.Obs.Trace.span_id c'.Obs.Trace.span_id
  | None -> Alcotest.fail "formatted traceparent does not parse back"

let test_trace_context_propagation () =
  let ctx = Obs.Trace.new_context () in
  let events =
    traced_events (fun () ->
        Obs.Trace.with_context (Some ctx) (fun () ->
            Alcotest.(check bool)
              "ambient context installed" true
              (Obs.Trace.current_context () = Some ctx);
            Obs.Trace.with_span "ctx_root" ~ctx (fun _ ->
                (* pool workers must re-install the submitter's context *)
                with_pool (fun pool ->
                    ignore
                      (Numeric.Parallel.Pool.map pool
                         (fun i ->
                           Obs.Trace.with_span "ctx_worker" (fun _ -> spin ());
                           i)
                         [ 1; 2; 3; 4 ])))))
  in
  (match List.find_opt (named "ctx_root") events with
  | Some ev ->
      Alcotest.(check bool)
        "root carries the caller-minted ids" true
        (arg "trace_id" ev = Some (Json.Str ctx.Obs.Trace.trace_id)
        && arg "span_id" ev = Some (Json.Str ctx.Obs.Trace.span_id))
  | None -> Alcotest.fail "no ctx_root span");
  let workers = List.filter (named "ctx_worker") events in
  Alcotest.(check bool) "worker spans recorded" true (workers <> []);
  List.iter
    (fun ev ->
      Alcotest.(check bool)
        "worker span joins the submitting trace" true
        (arg "trace_id" ev = Some (Json.Str ctx.Obs.Trace.trace_id)))
    workers

(* ------------------------------------------------------------------ *)
(* Self-time ledger *)

(* Self time is a span's duration minus its direct children's on its own
   track: the parent's self and the children's totals add up to the
   parent's total exactly, a grandchild counts only against its parent,
   and a span a pool worker runs for the parent subtracts nothing. *)
let test_trace_self_times () =
  let rows = ref [] and events = ref [] in
  events :=
    traced_events (fun () ->
        Obs.Trace.clear ();
        with_pool (fun pool ->
            Obs.Trace.with_span "ledger_outer" (fun _ ->
                spin ();
                Obs.Trace.with_span "ledger_inner" (fun _ ->
                    spin ();
                    Obs.Trace.with_span "ledger_leaf" (fun _ -> spin ()));
                Obs.Trace.with_span "ledger_inner" (fun _ -> spin ());
                ignore
                  (Numeric.Parallel.Pool.map pool
                     (fun () -> Obs.Trace.with_span "ledger_worker" (fun _ -> spin ()))
                     [ (); () ]
                    : unit list)));
        rows := Obs.Trace.self_times ());
  let row name =
    match List.find_opt (fun r -> r.Obs.Trace.name = name) !rows with
    | Some r -> r
    | None -> Alcotest.failf "no ledger row for %s" name
  in
  let outer = row "ledger_outer" and inner = row "ledger_inner" in
  let leaf = row "ledger_leaf" and worker = row "ledger_worker" in
  Alcotest.(check int) "inner count" 2 inner.Obs.Trace.count;
  Alcotest.(check int) "worker count" 2 worker.Obs.Trace.count;
  Alcotest.(check int64) "a leaf's self is its total" leaf.Obs.Trace.total_ns
    leaf.Obs.Trace.self_ns;
  Alcotest.(check int64)
    "inner self = inner total - leaf total"
    (Int64.sub inner.Obs.Trace.total_ns leaf.Obs.Trace.total_ns)
    inner.Obs.Trace.self_ns;
  let same_track =
    Int64.sub outer.Obs.Trace.total_ns inner.Obs.Trace.total_ns
  in
  Alcotest.(check int64)
    "outer self = outer total - inner totals (workers run elsewhere)"
    same_track outer.Obs.Trace.self_ns;
  Alcotest.(check int)
    "ledger counts agree with the trace" (count_named "ledger_inner" !events)
    inner.Obs.Trace.count;
  let sorted = List.map (fun r -> r.Obs.Trace.self_ns) !rows in
  Alcotest.(check bool)
    "largest self time first" true
    (sorted = List.sort (fun a b -> Int64.compare b a) sorted)

(* ------------------------------------------------------------------ *)
(* Bounded buffers, output cycling, incremental flush *)

let registry_count name = Obs.Metrics.counter_value (Obs.Metrics.counter name)

let test_trace_bounded_buffers () =
  Obs.Metrics.set_enabled true;
  let dropped0 = registry_count "trace.dropped_events" in
  let events =
    traced_events (fun () ->
        Obs.Trace.clear ();
        Obs.Trace.set_buffer_capacity (Some 4);
        Alcotest.(check bool)
          "capacity readable" true
          (Obs.Trace.buffer_capacity () = Some 4);
        for i = 1 to 10 do
          Obs.Trace.instant (Printf.sprintf "bounded_ev%d" i)
        done;
        Alcotest.(check int)
          "oldest six dropped" 6
          (registry_count "trace.dropped_events" - dropped0))
  in
  Obs.Metrics.set_enabled false;
  Obs.Trace.set_buffer_capacity None;
  Alcotest.(check int) "only the capacity survives" 4 (List.length events);
  List.iter
    (fun i ->
      Alcotest.(check int)
        (Printf.sprintf "newest kept (ev%d)" i)
        1
        (count_named (Printf.sprintf "bounded_ev%d" i) events))
    [ 7; 8; 9; 10 ];
  Alcotest.(check int) "oldest dropped (ev1)" 0
    (count_named "bounded_ev1" events);
  Obs.Trace.clear ()

let test_trace_output_cycling () =
  (* cycling None -> Some must start a fresh recording: the second file
     holds only events recorded after the second set_output, never a
     superset rewrite of the first session *)
  let p1 = Filename.temp_file "arcade_obs_cycle1" ".json" in
  let p2 = Filename.temp_file "arcade_obs_cycle2" ".json" in
  Obs.Trace.set_output (Some p1);
  Obs.Trace.instant "first_session";
  Obs.Trace.flush ();
  Obs.Trace.set_output None;
  Obs.Trace.set_output (Some p2);
  Obs.Trace.instant "second_session";
  Obs.Trace.flush ();
  Obs.Trace.set_output None;
  let parse path =
    match Json.parse (read_file path) with
    | Json.List evs -> evs
    | _ -> Alcotest.fail (path ^ " is not a JSON array")
  in
  let e1 = parse p1 and e2 = parse p2 in
  Sys.remove p1;
  Sys.remove p2;
  Alcotest.(check int) "first file has its event" 1
    (count_named "first_session" e1);
  Alcotest.(check int) "second file has its event" 1
    (count_named "second_session" e2);
  Alcotest.(check int) "second file is not a superset" 0
    (count_named "first_session" e2)

let test_trace_incremental_flush () =
  let path = Filename.temp_file "arcade_obs_inc" ".json" in
  Obs.Trace.set_output (Some path);
  Obs.Trace.set_incremental true;
  Obs.Trace.instant "inc_a";
  Obs.Trace.flush ();
  Obs.Trace.instant "inc_b";
  Obs.Trace.flush ();
  (* buffers were drained: an idle flush must not duplicate anything *)
  Obs.Trace.flush ();
  Obs.Trace.set_incremental false;
  Obs.Trace.set_output None;
  let raw = read_file path in
  Sys.remove path;
  Alcotest.(check bool) "file starts an array" true (raw.[0] = '[');
  let trimmed = String.trim raw in
  Alcotest.(check bool)
    "incremental file stays open-ended" true
    (trimmed.[String.length trimmed - 1] <> ']');
  (* Perfetto loads the bracket-less form; strict parsers close it first *)
  let closed =
    let t =
      if trimmed.[String.length trimmed - 1] = ',' then
        String.sub trimmed 0 (String.length trimmed - 1)
      else trimmed
    in
    t ^ "]"
  in
  let events =
    match Json.parse closed with
    | Json.List evs -> evs
    | _ -> Alcotest.fail "closed incremental trace is not a JSON array"
  in
  Alcotest.(check int) "first flush appended once" 1 (count_named "inc_a" events);
  Alcotest.(check int) "second flush appended once" 1
    (count_named "inc_b" events)

(* ------------------------------------------------------------------ *)
(* Prometheus exposition *)

let starts_with prefix l =
  String.length l >= String.length prefix
  && String.sub l 0 (String.length prefix) = prefix

let test_prometheus_exposition () =
  Obs.Metrics.set_enabled true;
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter "test.prom/requests" in
  Obs.Metrics.add c 3;
  (* sanitizes to the same family as the counter above; sorted-first wins *)
  ignore (Obs.Metrics.counter "test.prom_requests");
  let g = Obs.Metrics.gauge "test.prom.gauge" in
  Obs.Metrics.set_gauge g 2.5;
  let h = Obs.Metrics.histogram ~buckets:[| 1.; 10.; 100. |] "test.prom.hist" in
  List.iter (Obs.Metrics.observe h) [ 0.5; 5.; 50.; 500. ];
  Obs.Metrics.set_enabled false;
  let text = Obs.Metrics.to_prometheus (Obs.Metrics.snapshot ()) in
  let lines = String.split_on_char '\n' text in
  let sample prefix =
    List.find_opt (fun l -> starts_with (prefix ^ " ") l) lines
  in
  Alcotest.(check bool)
    "counter sanitized, _total suffixed" true
    (sample "arcade_test_prom_requests_total" = Some "arcade_test_prom_requests_total 3");
  Alcotest.(check bool)
    "gauge emitted" true
    (sample "arcade_test_prom_gauge" <> None);
  let typed =
    List.filter (fun l -> starts_with "# TYPE arcade_test_prom_" l) lines
  in
  Alcotest.(check int)
    "one # TYPE per family, collision skipped" 3 (List.length typed);
  Alcotest.(check int)
    "no duplicate # TYPE lines"
    (List.length typed)
    (List.length (List.sort_uniq compare typed));
  let bucket le =
    match sample (Printf.sprintf "arcade_test_prom_hist_bucket{le=\"%s\"}" le) with
    | Some l ->
        int_of_string
          (String.trim
             (String.sub l
                (String.rindex l ' ')
                (String.length l - String.rindex l ' ')))
    | None -> Alcotest.fail (Printf.sprintf "missing bucket le=%s" le)
  in
  Alcotest.(check int) "bucket le=1 cumulative" 1 (bucket "1");
  Alcotest.(check int) "bucket le=10 cumulative" 2 (bucket "10");
  Alcotest.(check int) "bucket le=100 cumulative" 3 (bucket "100");
  Alcotest.(check int) "bucket le=+Inf is the total" 4 (bucket "+Inf");
  Alcotest.(check bool)
    "_count equals +Inf bucket" true
    (sample "arcade_test_prom_hist_count" = Some "arcade_test_prom_hist_count 4");
  Alcotest.(check bool)
    "_sum present" true
    (sample "arcade_test_prom_hist_sum" <> None)

(* ------------------------------------------------------------------ *)
(* Flight recorder *)

let test_flight_ring_dump () =
  Obs.Trace.set_output None;
  (* flight-only mode: spans land in the rings even with tracing off *)
  Obs.Flight.clear ();
  Obs.Flight.set_enabled true;
  let path = Filename.temp_file "arcade_obs_flight" ".json" in
  Obs.Flight.set_path path;
  Alcotest.(check string) "path readable" path (Obs.Flight.path ());
  Obs.Metrics.set_enabled true;
  let dumps () = registry_count "flight.dumps" in
  let n0 = dumps () in
  ignore (Obs.Trace.with_span "flight_span" (fun _ -> spin (); 9));
  Obs.Trace.instant "flight_tick";
  Obs.Flight.dump ~reason:"unit_test" ();
  Alcotest.(check int) "dump counted" (n0 + 1) (dumps ());
  let events =
    match Json.parse (read_file path) with
    | Json.List evs -> evs
    | _ -> Alcotest.fail "flight dump is not a JSON array"
  in
  Alcotest.(check int) "ring kept the span" 1 (count_named "flight_span" events);
  Alcotest.(check int) "ring kept the instant" 1
    (count_named "flight_tick" events);
  (match
     List.find_opt
       (named "flight.dump")
       events
   with
  | Some marker -> (
      match Json.member "args" marker with
      | Some (Json.Obj kvs) ->
          Alcotest.(check bool)
            "marker carries the reason" true
            (List.assoc_opt "reason" kvs = Some (Json.Str "unit_test"))
      | _ -> Alcotest.fail "flight.dump marker has no args")
  | None -> Alcotest.fail "no flight.dump marker");
  (* async-signal path: request only sets a flag, poll performs the dump *)
  Obs.Flight.request_dump ();
  Obs.Flight.poll ();
  Alcotest.(check int) "polled dump" (n0 + 2) (dumps ());
  Obs.Flight.poll ();
  Alcotest.(check int) "poll without a request is a no-op" (n0 + 2) (dumps ());
  Obs.Metrics.set_enabled false;
  Sys.remove path;
  Obs.Flight.clear ();
  Obs.Flight.set_enabled false

let test_flight_nonconvergence_dump () =
  Obs.Flight.clear ();
  Obs.Flight.set_enabled true;
  let path = Filename.temp_file "arcade_obs_flightnc" ".json" in
  Obs.Flight.set_path path;
  let n0 = registry_count "flight.dumps" in
  Obs.Metrics.set_enabled true;
  Obs.Metrics.record_solve ~solver:"unit_fail" ~size:2 ~iterations:1
    ~residual:1.0 ~converged:false;
  Obs.Metrics.set_enabled false;
  Alcotest.(check int) "non-convergence dumped" (n0 + 1)
    (registry_count "flight.dumps");
  Alcotest.(check bool)
    "dump names the trigger" true
    (contains "solver_nonconvergence" (read_file path));
  Sys.remove path;
  Obs.Flight.clear ();
  Obs.Flight.set_enabled false

(* The trace and the flight recorder read one ring per domain: an
   incremental flush moves the trace's cursor past its spans, and a dump
   still shows them *)
let test_flight_shows_flushed_spans () =
  let trace = Filename.temp_file "arcade_obs_shared" ".json" in
  let path = Filename.temp_file "arcade_obs_shared_dump" ".json" in
  Obs.Flight.clear ();
  Obs.Flight.set_enabled true;
  Obs.Flight.set_path path;
  Obs.Trace.set_output (Some trace);
  Obs.Trace.set_incremental true;
  Obs.Trace.with_span "shared_span" (fun _ -> spin ());
  Obs.Trace.flush ();
  Obs.Flight.dump ~reason:"after_flush" ();
  Obs.Trace.set_incremental false;
  Obs.Trace.set_output None;
  let flushed = read_file trace and dumped = read_file path in
  Sys.remove trace;
  Sys.remove path;
  Alcotest.(check bool) "the trace got the span" true (contains "shared_span" flushed);
  (match Json.parse dumped with
  | Json.List evs ->
      Alcotest.(check int) "the dump still shows it" 1 (count_named "shared_span" evs)
  | _ -> Alcotest.fail "flight dump is not a JSON array");
  Obs.Flight.clear ();
  Obs.Flight.set_enabled false

(* a capped trace drops its oldest unflushed events; the flight tail
   keeps them *)
let test_capped_trace_full_flight_tail () =
  let path = Filename.temp_file "arcade_obs_tail" ".json" in
  Obs.Flight.clear ();
  Obs.Flight.set_enabled true;
  Obs.Flight.set_path path;
  Obs.Metrics.set_enabled true;
  let dropped0 = registry_count "trace.dropped_events" in
  let events =
    traced_events (fun () ->
        Obs.Trace.clear ();
        Obs.Trace.set_buffer_capacity (Some 4);
        for i = 1 to 10 do
          Obs.Trace.instant (Printf.sprintf "tail_ev%d" i)
        done;
        Obs.Flight.dump ~reason:"capped" ())
  in
  Obs.Trace.set_buffer_capacity None;
  Alcotest.(check int) "the trace keeps the capacity" 4 (List.length events);
  Alcotest.(check int) "six dropped" 6
    (registry_count "trace.dropped_events" - dropped0);
  Obs.Metrics.set_enabled false;
  let dumped =
    match Json.parse (read_file path) with
    | Json.List evs -> evs
    | _ -> Alcotest.fail "flight dump is not a JSON array"
  in
  Sys.remove path;
  for i = 1 to 10 do
    Alcotest.(check int)
      (Printf.sprintf "the dump holds tail_ev%d" i)
      1
      (count_named (Printf.sprintf "tail_ev%d" i) dumped)
  done;
  Obs.Flight.clear ();
  Obs.Flight.set_enabled false

(* a dump or a flush into a missing directory is reported, never raised:
   neither a non-converged solve nor the caller of [flush] fails, and an
   incremental trace whose first write failed still opens its array *)
let test_unwritable_outputs () =
  let dir = Filename.temp_file "arcade_obs_missing" "" in
  Sys.remove dir;
  Obs.Flight.clear ();
  Obs.Flight.set_enabled true;
  Obs.Flight.set_path (Filename.concat dir "dump.json");
  Obs.Metrics.set_enabled true;
  let n0 = registry_count "flight.dumps" in
  Obs.Trace.instant "unwritten";
  Obs.Flight.dump ~reason:"unwritable" ();
  Obs.Metrics.record_solve ~solver:"unit_unwritable" ~size:2 ~iterations:1
    ~residual:1.0 ~converged:false;
  Obs.Trace.set_output (Some (Filename.concat dir "trace.json"));
  Obs.Trace.instant "unflushed";
  Obs.Trace.flush ();
  Obs.Trace.set_incremental true;
  Obs.Trace.flush ();
  Alcotest.(check bool) "nothing was written" false (Sys.file_exists dir);
  Unix.mkdir dir 0o755;
  Obs.Trace.instant "after_mkdir";
  Obs.Trace.flush ();
  Obs.Trace.set_incremental false;
  Obs.Trace.set_output None;
  Obs.Metrics.set_enabled false;
  Alcotest.(check int) "a failed dump is not counted" n0 (registry_count "flight.dumps");
  let trace = read_file (Filename.concat dir "trace.json") in
  Sys.remove (Filename.concat dir "trace.json");
  Unix.rmdir dir;
  Alcotest.(check bool) "the trace opens its array" true (trace.[0] = '[');
  Alcotest.(check bool) "and holds the later event" true (contains "after_mkdir" trace);
  Obs.Flight.clear ();
  Obs.Flight.set_enabled false

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_metrics_counters_domains () =
  Obs.Metrics.set_enabled true;
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter "test.parallel_total" in
  let xs = List.init 100 (fun i -> i + 1) in
  let ys =
    with_pool (fun pool ->
        Numeric.Parallel.Pool.map pool
          (fun i ->
            Obs.Metrics.add c i;
            i * 2)
          xs)
  in
  Alcotest.(check (list int))
    "map result deterministic"
    (List.map (fun i -> i * 2) xs)
    ys;
  Alcotest.(check int) "adds merged across domains" 5050
    (Obs.Metrics.counter_value c);
  Obs.Metrics.set_enabled false;
  Obs.Metrics.incr c;
  Alcotest.(check int) "disabled incr is a no-op" 5050
    (Obs.Metrics.counter_value c)

let test_metrics_histogram () =
  Obs.Metrics.set_enabled true;
  Obs.Metrics.reset ();
  let h = Obs.Metrics.histogram ~buckets:[| 1.; 10.; 100. |] "test.hist" in
  List.iter (Obs.Metrics.observe h) [ 0.5; 5.; 50.; 500. ];
  let snap = Obs.Metrics.snapshot () in
  (match List.assoc_opt "test.hist" snap.Obs.Metrics.histograms with
  | None -> Alcotest.fail "histogram missing from snapshot"
  | Some v ->
      Alcotest.(check (array (float 0.)))
        "bounds kept" [| 1.; 10.; 100. |] v.Obs.Metrics.bounds;
      Alcotest.(check (array int))
        "one observation per bucket" [| 1; 1; 1; 1 |] v.Obs.Metrics.counts;
      Alcotest.(check int) "total" 4 v.Obs.Metrics.total;
      Alcotest.(check (float 1e-9)) "sum" 555.5 v.Obs.Metrics.sum);
  (try
     ignore (Obs.Metrics.gauge "test.hist");
     Alcotest.fail "re-registering as a different kind must fail"
   with Invalid_argument _ -> ());
  Obs.Metrics.set_enabled false

let test_metrics_json () =
  Obs.Metrics.set_enabled true;
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter "test.json_counter" in
  Obs.Metrics.add c 7;
  Obs.Metrics.add (Obs.Metrics.counter "test.json_big") (1 lsl 53);
  Obs.Metrics.record_solve ~solver:"unit_test" ~size:3 ~iterations:12
    ~residual:1e-13 ~converged:true;
  Obs.Metrics.set_enabled false;
  let snap = Obs.Metrics.snapshot () in
  (match List.find_opt (fun s -> s.Obs.Metrics.solver = "unit_test") snap.Obs.Metrics.solves with
  | Some solve ->
      Alcotest.(check int) "ring keeps iterations" 12
        solve.Obs.Metrics.iterations;
      Alcotest.(check bool) "ring keeps convergence" true
        solve.Obs.Metrics.converged
  | None -> Alcotest.fail "recorded solve missing from ring");
  match Json.parse (Json.to_string (Obs.Metrics.to_json snap)) with
  | Json.Obj members ->
      List.iter
        (fun k ->
          Alcotest.(check bool) (k ^ " member") true (List.mem_assoc k members))
        [ "counters"; "gauges"; "histograms"; "solves" ];
      (match List.assoc "counters" members with
      | Json.Obj cs ->
          Alcotest.(check bool)
            "counter serialized" true
            (List.assoc_opt "test.json_counter" cs = Some (Json.Num 7.));
          Alcotest.(check bool)
            "2^53 counter exact" true
            (List.assoc_opt "test.json_big" cs = Some (Json.Num 0x1p53))
      | _ -> Alcotest.fail "counters member is not an object");
      (match List.assoc "solves" members with
      | Json.List (_ :: _) -> ()
      | _ -> Alcotest.fail "solves member is not a non-empty array")
  | _ -> Alcotest.fail "snapshot JSON is not an object"

let test_metrics_json_nonfinite () =
  Obs.Metrics.set_enabled true;
  Obs.Metrics.reset ();
  List.iter
    (fun (name, x) -> Obs.Metrics.set_gauge (Obs.Metrics.gauge name) x)
    [ ("test.nan", Float.nan); ("test.inf", Float.infinity);
      ("test.neg_inf", Float.neg_infinity) ];
  Obs.Metrics.observe (Obs.Metrics.histogram "test.nan_hist") Float.nan;
  Obs.Metrics.observe (Obs.Metrics.histogram "test.inf_hist") Float.infinity;
  Obs.Metrics.set_enabled false;
  let json =
    Json.parse (Json.to_string (Obs.Metrics.to_json (Obs.Metrics.snapshot ())))
  in
  List.iter
    (fun path ->
      Alcotest.(check bool)
        (String.concat " " path ^ " is null")
        true
        (List.fold_left
           (fun j key -> Option.bind j (Json.member key))
           (Some json) path
        = Some Json.Null))
    [
      [ "gauges"; "test.nan" ];
      [ "gauges"; "test.inf" ];
      [ "gauges"; "test.neg_inf" ];
      [ "histograms"; "test.nan_hist"; "sum" ];
      [ "histograms"; "test.inf_hist"; "sum" ];
    ]

(* ------------------------------------------------------------------ *)
(* Solver telemetry *)

(* 4x + y = 1, x + 3y = 2: diagonally dominant, solution (1/11, 7/11) *)
let small_system () =
  let b = Sparse.Builder.create ~rows:2 ~cols:2 in
  Sparse.Builder.add b 0 0 4.;
  Sparse.Builder.add b 0 1 1.;
  Sparse.Builder.add b 1 0 1.;
  Sparse.Builder.add b 1 1 3.;
  (Sparse.Builder.to_csr b, [| 1.; 2. |])

let test_solver_obs_hook () =
  let a, rhs = small_system () in
  let calls = ref 0 in
  let x, info =
    Solver.solve_gauss_seidel
      ~obs:(fun c ->
        incr calls;
        Alcotest.(check bool) "hook sees convergence" true c.Solver.converged)
      a rhs
  in
  Alcotest.(check int) "hook called exactly once" 1 !calls;
  Alcotest.(check bool) "converged" true info.Solver.converged;
  Alcotest.(check bool) "iterations counted" true (info.Solver.iterations > 0);
  Alcotest.(check bool) "residual under tolerance" true
    (info.Solver.residual <= 1e-12);
  Alcotest.(check (float 1e-9)) "x.(0)" (1. /. 11.) x.(0);
  Alcotest.(check (float 1e-9)) "x.(1)" (7. /. 11.) x.(1)

(* Every solver reports through the one sweep loop: at [~max_iter:1] on
   a system that needs more sweeps, each calls its hook once, leaves a
   ring entry under its own name and raises naming itself; the column
   histogram counts one observation per iterating solve column. *)
let test_solver_nonconvergence () =
  let a, rhs = small_system () in
  let m = Chain.of_transitions ~states:3 [ (0, 1, 1.); (1, 2, 2.); (2, 0, 3.) ] in
  let rt = Sparse.transpose (Chain.rates m) and exit = Chain.exit_rates m in
  let _, p = Chain.uniformized m in
  let uniform = Array.make 3 (1. /. 3.) in
  let solvers =
    [
      ("gauss_seidel", fun obs -> Solver.solve_gauss_seidel ~max_iter:1 ~obs a rhs);
      ( "steady_gauss_seidel",
        fun obs -> Solver.steady_state_gauss_seidel ~max_iter:1 ~obs ~exit rt );
      ("power_iteration", fun obs -> Solver.power_iteration ~max_iter:1 ~obs p uniform);
    ]
  in
  Obs.Metrics.set_enabled true;
  Obs.Metrics.reset ();
  List.iter
    (fun (name, solve) ->
      let calls = ref 0 in
      (try
         ignore
           (solve (fun c ->
                incr calls;
                Alcotest.(check bool) (name ^ ": hook sees failure") false
                  c.Solver.converged));
         Alcotest.fail (name ^ ": expected Did_not_converge")
       with
      | Solver.Did_not_converge { solver; max_iter; info } as exn ->
          Alcotest.(check string) "solver named" name solver;
          Alcotest.(check int) (name ^ ": iteration limit recorded") 1 max_iter;
          Alcotest.(check bool) (name ^ ": not converged") false
            info.Solver.converged;
          let msg = Printexc.to_string exn in
          Alcotest.(check bool)
            ("message names the solver: " ^ msg)
            true (contains name msg);
          Alcotest.(check bool)
            ("message names the limit: " ^ msg)
            true
            (contains "within 1 iteration" msg));
      Alcotest.(check int) (name ^ ": hook called exactly once") 1 !calls)
    solvers;
  (* the one-state steady shortcut reports a solve but never iterates *)
  ignore (Solver.steady_state_gauss_seidel ~exit:[| 0. |] (Sparse.of_dense [| [| 0. |] |]));
  Obs.Metrics.set_enabled false;
  let snap = Obs.Metrics.snapshot () in
  List.iter
    (fun (name, _) ->
      Alcotest.(check bool)
        (name ^ ": unconverged entry in the solve ring")
        true
        (List.exists
           (fun s -> s.Obs.Metrics.solver = name && not s.Obs.Metrics.converged)
           snap.Obs.Metrics.solves))
    solvers;
  Alcotest.(check int) "every solve in the ring" 4 (List.length snap.Obs.Metrics.solves);
  match List.assoc_opt "solver.column_iterations" snap.Obs.Metrics.histograms with
  | Some h ->
      Alcotest.(check int) "one column observation per iterating solve"
        (List.length solvers) h.Obs.Metrics.total
  | None -> Alcotest.fail "solver.column_iterations missing from snapshot"

let test_solver_ring () =
  Obs.Metrics.set_enabled true;
  Obs.Metrics.reset ();
  let m =
    Chain.of_transitions ~states:3 [ (0, 1, 1.); (1, 2, 2.); (2, 0, 3.) ]
  in
  ignore (Ctmc.Steady_state.solve m);
  Obs.Metrics.set_enabled false;
  let snap = Obs.Metrics.snapshot () in
  match
    List.find_opt
      (fun s -> s.Obs.Metrics.solver = "steady_gauss_seidel")
      snap.Obs.Metrics.solves
  with
  | Some solve ->
      Alcotest.(check int) "solve size" 3 solve.Obs.Metrics.size;
      Alcotest.(check bool) "solve converged" true solve.Obs.Metrics.converged;
      Alcotest.(check bool) "final residual reported" true
        (Float.is_finite solve.Obs.Metrics.residual)
  | None -> Alcotest.fail "steady-state solve missing from ring"

(* ------------------------------------------------------------------ *)
(* Analysis: the registry counts a session's work, one event once *)

let analysis_chain () =
  Chain.of_transitions ~states:4
    [ (0, 1, 1.); (1, 2, 2.); (2, 3, 3.); (3, 0, 4.) ]

let test_registry_counts_session_work () =
  Obs.Metrics.set_enabled true;
  Obs.Metrics.reset ();
  let m = analysis_chain () in
  let a = Analysis.create m in
  ignore (Ctmc.Steady_state.solve ~analysis:a m);
  ignore (Ctmc.Steady_state.solve ~analysis:a m);
  ignore (Ctmc.Transient.distribution ~analysis:a m 2.);
  ignore (Ctmc.Transient.distribution ~analysis:a m 2.);
  Obs.Metrics.set_enabled false;
  let snap = Obs.Metrics.snapshot () in
  let registry name =
    Option.value ~default:0 (List.assoc_opt name snap.Obs.Metrics.counters)
  in
  List.iter
    (fun (name, expected) -> Alcotest.(check int) name expected (registry name))
    [
      ("analysis.steady_solves", 1);
      ("analysis.steady_hits", 1);
      ("analysis.weight_computes", 1);
      ("analysis.weight_hits", 1);
      ("analysis.mixture_passes", 2);
      ("analysis.batch_columns", 2);
    ];
  Alcotest.(check bool) "the two sweeps stepped" true
    (registry "analysis.mixture_steps" > 0)

(* ------------------------------------------------------------------ *)
(* Observability must not change analysis results *)

(* ------------------------------------------------------------------ *)
(* Atomic file writing *)

let test_atomic_write_basic () =
  let path = Filename.temp_file "arcade_obs_atomic" ".json" in
  Obs.write_file_atomic path "first";
  Obs.write_file_atomic path "second";
  let ic = open_in_bin path in
  let content =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Alcotest.(check string) "last write wins" "second" content;
  Sys.remove path

let test_atomic_write_concurrent () =
  (* concurrent writers (distinct domains, same destination) must never
     leave a torn file: every observable content is one writer's full
     payload, and no temp droppings survive *)
  let dir = Filename.temp_file "arcade_obs_atomicdir" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "out.json" in
  let payload tag = String.concat "" (List.init 2048 (fun _ -> tag)) in
  let writers = [ "a"; "b"; "c"; "d" ] in
  let domains =
    List.map
      (fun tag ->
        Domain.spawn (fun () ->
            for _ = 1 to 25 do
              Obs.write_file_atomic path (payload tag)
            done))
      writers
  in
  List.iter Domain.join domains;
  let ic = open_in_bin path in
  let content =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Alcotest.(check bool)
    "content is one writer's full payload" true
    (List.exists (fun tag -> content = payload tag) writers);
  Alcotest.(check (list string))
    "no temp files left" [ "out.json" ]
    (List.sort compare (Array.to_list (Sys.readdir dir)));
  Sys.remove path;
  Unix.rmdir dir

let test_atomic_write_failure_cleanup () =
  (* when the rename cannot land (destination is a directory), the
     exception propagates and the temp file is unlinked *)
  let dir = Filename.temp_file "arcade_obs_atomicfail" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let target = Filename.concat dir "clash" in
  Unix.mkdir target 0o755;
  (match Obs.write_file_atomic target "doomed" with
  | () -> Alcotest.fail "expected the rename to fail"
  | exception Sys_error _ -> ());
  Alcotest.(check (list string))
    "temp file unlinked" [ "clash" ]
    (List.sort compare (Array.to_list (Sys.readdir dir)));
  Unix.rmdir target;
  Unix.rmdir dir

let figure_values fig =
  List.concat_map
    (fun s -> List.map snd s.Experiments.points)
    fig.Experiments.series

let test_obs_invariance () =
  let run () =
    Experiments.clear_cache ();
    ( figure_values (Experiments.fig3 ~points:3 ()),
      figure_values (Experiments.fig4 ~points:3 ()) )
  in
  let base3, base4 = run () in
  let observed = ref ([], []) in
  Obs.Metrics.set_enabled true;
  let events = traced_events (fun () -> observed := run ()) in
  Obs.Metrics.set_enabled false;
  let obs3, obs4 = !observed in
  let check_same label xs ys =
    Alcotest.(check int) (label ^ " same size") (List.length xs)
      (List.length ys);
    List.iter2
      (fun x y -> Alcotest.(check (float 1e-12)) (label ^ " point") x y)
      xs ys
  in
  check_same "fig3" base3 obs3;
  check_same "fig4" base4 obs4;
  let has name = List.exists (named name) events in
  Alcotest.(check bool) "fig3 artifact span" true (has "experiment.fig3");
  Alcotest.(check bool) "fig4 artifact span" true (has "experiment.fig4");
  Alcotest.(check bool) "mixture span" true (has "analysis.mixture");
  (* every sweep reports its chain and the operator it gathers over *)
  List.iter
    (fun ev ->
      let args = Option.get (Json.member "args" ev) in
      let states = get_num "states" args and nnz = get_num "nnz" args in
      Alcotest.(check bool)
        (Printf.sprintf "mixture states %g, nnz %g" states nnz)
        true
        (states > 0. && nnz > 0. && get_num "batch_width" args >= 1.))
    (List.filter (named "analysis.mixture") events);
  Alcotest.(check bool) "fox-glynn span" true (has "fox_glynn.compute");
  let metrics = Obs.Metrics.snapshot () in
  Alcotest.(check bool) "mixture passes counted" true
    (Option.value ~default:0
       (List.assoc_opt "analysis.mixture_passes" metrics.Obs.Metrics.counters)
    > 0)

(* Tables 1 and 2 build only symmetry-reduced chains, each once (five
   strategies, two lines) however many domains the rows fan out over,
   and their measure-level spans have children: [measures.wrap] inside
   the [table1/<config>] span that built the chain, [semantics.levels]
   inside the [measures.availability] that first asked for a service
   level. *)
let test_table_spans () =
  Experiments.clear_cache ();
  let events =
    traced_events (fun () ->
        ignore (Experiments.table1 ());
        ignore (Experiments.table2 ()))
  in
  Experiments.clear_cache ();
  let builds = List.filter (named "measures.build") events in
  Alcotest.(check int) "builds" 10 (List.length builds);
  List.iter
    (fun ev ->
      Alcotest.(check bool) "symmetric" true (arg "symmetric" ev = Some (Json.Bool true));
      Alcotest.(check bool) "at most 727 states" true (get_num "states" (Option.get (Json.member "args" ev)) <= 727.))
    builds;
  let within parent child =
    get_num "tid" parent = get_num "tid" child
    && get_num "ts" parent <= get_num "ts" child
    && get_num "ts" child +. get_num "dur" child
       <= get_num "ts" parent +. get_num "dur" parent
  in
  let nested ~parent child =
    let parents = List.filter parent events in
    let children = List.filter (named child) events in
    Alcotest.(check bool) (child ^ " spans") true (children <> []);
    List.iter
      (fun c ->
        Alcotest.(check bool) (child ^ " has its parent") true
          (List.exists (fun p -> within p c) parents))
      children
  in
  let prefixed prefix ev =
    match Json.member "name" ev with
    | Some (Json.Str n) -> String.starts_with ~prefix n
    | _ -> false
  in
  nested
    ~parent:(fun ev -> prefixed "table1/" ev || prefixed "table2/" ev)
    "measures.wrap";
  nested ~parent:(named "measures.availability") "semantics.levels"

(* Figures 4 and 5 sweep the same three Line 1 chains: whichever domain
   built one for fig4, fig5 reads it from the shared cache *)
let test_figure_builds_shared () =
  Experiments.clear_cache ();
  let events =
    traced_events (fun () ->
        ignore (Experiments.fig4 ~points:3 ());
        ignore (Experiments.fig5 ~points:3 ()))
  in
  Experiments.clear_cache ();
  let builds = List.filter (named "measures.build") events in
  Alcotest.(check int) "one build per strategy" 3 (List.length builds);
  List.iter
    (fun ev ->
      Alcotest.(check bool) "full chain" true (arg "symmetric" ev = Some (Json.Bool false)))
    builds

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_trace_disabled;
          Alcotest.test_case "chrome-trace roundtrip" `Quick
            test_trace_roundtrip;
          Alcotest.test_case "attributes round-trip exactly" `Quick
            test_trace_attrs_exact;
        ] );
      ( "trace-context",
        [
          Alcotest.test_case "traceparent parse matrix" `Quick
            test_traceparent_parse;
          Alcotest.test_case "format/parse roundtrip" `Quick
            test_traceparent_format_roundtrip;
          Alcotest.test_case "context reaches pool workers" `Quick
            test_trace_context_propagation;
        ] );
      ( "trace-buffers",
        [
          Alcotest.test_case "bounded buffers drop oldest" `Quick
            test_trace_bounded_buffers;
          Alcotest.test_case "output cycling starts fresh" `Quick
            test_trace_output_cycling;
          Alcotest.test_case "incremental flush appends" `Quick
            test_trace_incremental_flush;
          Alcotest.test_case "self-time ledger" `Quick test_trace_self_times;
        ] );
      ( "prometheus",
        [
          Alcotest.test_case "text exposition invariants" `Quick
            test_prometheus_exposition;
        ] );
      ( "flight",
        [
          Alcotest.test_case "ring dump and poll" `Quick test_flight_ring_dump;
          Alcotest.test_case "non-convergence triggers a dump" `Quick
            test_flight_nonconvergence_dump;
          Alcotest.test_case "dump shows flushed spans" `Quick
            test_flight_shows_flushed_spans;
          Alcotest.test_case "capped trace, full flight tail" `Quick
            test_capped_trace_full_flight_tail;
          Alcotest.test_case "unwritable outputs never raise" `Quick
            test_unwritable_outputs;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters merge across domains" `Quick
            test_metrics_counters_domains;
          Alcotest.test_case "histogram buckets" `Quick test_metrics_histogram;
          Alcotest.test_case "snapshot json" `Quick test_metrics_json;
          Alcotest.test_case "non-finite prints null" `Quick
            test_metrics_json_nonfinite;
        ] );
      ( "atomic-write",
        [
          Alcotest.test_case "last write wins" `Quick test_atomic_write_basic;
          Alcotest.test_case "concurrent writers never tear" `Quick
            test_atomic_write_concurrent;
          Alcotest.test_case "failure unlinks temp" `Quick
            test_atomic_write_failure_cleanup;
        ] );
      ( "solver",
        [
          Alcotest.test_case "obs hook" `Quick test_solver_obs_hook;
          Alcotest.test_case "non-convergence error" `Quick
            test_solver_nonconvergence;
          Alcotest.test_case "solve ring" `Quick test_solver_ring;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "registry counts session work" `Quick
            test_registry_counts_session_work;
          Alcotest.test_case "observability does not change results" `Slow
            test_obs_invariance;
          Alcotest.test_case "table spans" `Quick test_table_spans;
          Alcotest.test_case "figures share builds" `Quick
            test_figure_builds_shared;
        ] );
    ]
