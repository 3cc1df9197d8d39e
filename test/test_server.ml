(* Integration tests for the analysis daemon: wire protocol, admission
   control, session caching and batching amortization — everything over a
   real socket against a server on an ephemeral port. *)

module Http = Server.Http

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let replace_once ~pat ~by s =
  let n = String.length s and np = String.length pat in
  let rec find i = if i + np > n then None else if String.sub s i np = pat then Some i else find (i + 1) in
  match find 0 with
  | None -> s
  | Some i -> String.sub s 0 i ^ by ^ String.sub s (i + np) (n - i - np)

let tiny_model =
  {|<arcade name="tiny">
  <components>
    <component name="a" mttf="100" mttr="2" failed-cost="3" operational-cost="1"/>
    <component name="b" mttf="50" mttr="1" failed-cost="2" operational-cost="1"/>
  </components>
  <repair-units>
    <repair-unit name="ru" strategy="dedicated" crews="1" idle-cost="0" busy-cost="1" preemptive="false">
      <component ref="a"/>
      <component ref="b"/>
    </repair-unit>
  </repair-units>
  <fault-tree>
    <or>
      <basic ref="a"/>
      <basic ref="b"/>
    </or>
  </fault-tree>
</arcade>|}

let measure_queries =
  [
    "S=? [ \"full_service\" ]";
    "S=? [ \"operational\" ]";
    "P=? [ true U<=10 !\"full_service\" ]";
    "R{\"cost\"}=? [ C<=10 ]";
    "R{\"cost\"}=? [ I=10 ]";
  ]

let with_server f =
  let config =
    { Server.host = "127.0.0.1"; port = 0; domains = 2; max_sessions = 8 }
  in
  (* /stats reads the process-wide registry: start each daemon from a
     fresh one, as in a process that runs one daemon *)
  Obs.Metrics.reset ();
  let srv = Server.start ~config () in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () -> f (Server.port srv))

let analyze_body ?(model = tiny_model) ?(queries = measure_queries) () =
  Json.to_string
    (Json.Obj
       [
         ("model", Json.Str model);
         ("queries", Json.List (List.map (fun q -> Json.Str q) queries));
       ])

let post_analyze ?model ?queries port =
  Http.request ~host:"127.0.0.1" ~port ~meth:"POST" ~path:"/analyze"
    ~body:(analyze_body ?model ?queries ())
    ()

let num_field key json =
  match Json.member key json with
  | Some (Json.Num x) -> x
  | _ -> Alcotest.fail (Printf.sprintf "expected numeric field %S" key)

let stat path json =
  let rec go json = function
    | [] -> Alcotest.fail "empty stat path"
    | [ key ] -> num_field key json
    | key :: rest -> (
        match Json.member key json with
        | Some j -> go j rest
        | None -> Alcotest.fail (Printf.sprintf "missing stats member %S" key))
  in
  go json path

let fetch_stats port =
  match Http.request ~host:"127.0.0.1" ~port ~meth:"GET" ~path:"/stats" () with
  | 200, body -> Json.parse body
  | status, _ -> Alcotest.fail (Printf.sprintf "/stats answered %d" status)

(* ------------------------------------------------------------------ *)
(* Json unit tests *)

let test_json_roundtrip () =
  let cases =
    [
      "null";
      "true";
      "[1,2.5,-3e-2]";
      {|{"a":"b \"quoted\" \n","c":[{},[]]}|};
      {|"Aé中"|};
    ]
  in
  List.iter
    (fun src ->
      let once = Json.to_string (Json.parse src) in
      let twice = Json.to_string (Json.parse once) in
      Alcotest.(check string) src once twice)
    cases;
  match Json.parse {|{"x": 1.5}|} with
  | Json.Obj [ ("x", Json.Num x) ] -> Alcotest.(check (float 0.)) "value" 1.5 x
  | _ -> Alcotest.fail "unexpected parse"

let test_json_errors () =
  List.iter
    (fun src ->
      match Json.parse src with
      | _ -> Alcotest.fail (Printf.sprintf "%S should not parse" src)
      | exception Json.Parse_error _ -> ())
    [ ""; "{"; "[1,]"; "tru"; {|"unterminated|}; "1 2"; "{\"a\" 1}"; "nan" ]

(* Never raise: any byte string parses to a value or raises
   [Parse_error], nothing else. Strings are built from JSON fragments,
   near misses and raw bytes, so most are almost-JSON. *)
let json_fragments =
  [| "{"; "}"; "["; "]"; ","; ":"; "\""; "\\"; "\\u"; "\\u12"; "\\ud800";
     "true"; "fals"; "null"; "nan"; "0"; "-"; "1.5"; "1e"; "1e400"; "-0.e";
     "01"; "\"a\""; " "; "\n"; "\x00"; "\xff"; "\xc3"; "é" |]

let prop_json_parse_never_raises =
  QCheck.Test.make ~count:2000 ~name:"Json.parse: a value or Parse_error"
    QCheck.(
      make ~print:String.escaped
        Gen.(
          map (String.concat "")
            (list_size (int_range 0 24)
               (oneof
                  [
                    map (Array.get json_fragments)
                      (int_bound (Array.length json_fragments - 1));
                    map (String.make 1) char;
                  ]))))
    (fun input ->
      match Json.parse input with
      | _ -> true
      | exception Json.Parse_error _ -> true)

(* ------------------------------------------------------------------ *)
(* Wire protocol *)

let test_health_and_404 () =
  with_server (fun port ->
      let status, body =
        Http.request ~host:"127.0.0.1" ~port ~meth:"GET" ~path:"/health" ()
      in
      Alcotest.(check int) "health status" 200 status;
      Alcotest.(check (option string))
        "health body" (Some "ok")
        (Json.string_field "status" (Json.parse body));
      let status, _ =
        Http.request ~host:"127.0.0.1" ~port ~meth:"GET" ~path:"/nope" ()
      in
      Alcotest.(check int) "unknown endpoint" 404 status)

let test_correct_values () =
  (* server answers must equal direct in-process analysis *)
  with_server (fun port ->
      let xml, locator = Xml_kit.parse_string_located tiny_model in
      let model, _ = Core.Xml_io.of_xml ~pos:locator xml in
      let m = Core.Measures.analyze model in
      let csl = Core.Measures.to_csl_model m in
      let status, body = post_analyze port in
      Alcotest.(check int) "status" 200 status;
      let resp = Json.parse body in
      let results =
        match Json.list_field "results" resp with
        | Some l -> l
        | None -> Alcotest.fail "missing results"
      in
      Alcotest.(check int)
        "one result per query"
        (List.length measure_queries)
        (List.length results);
      List.iter2
        (fun query result ->
          let expected =
            match Csl.Checker.check_string csl query with
            | Csl.Checker.Value v -> v
            | Csl.Checker.Satisfied _ -> Alcotest.fail "expected a value"
          in
          Alcotest.(check (option string))
            ("echo " ^ query) (Some query)
            (Json.string_field "query" result);
          Alcotest.(check (float 1e-9)) query expected (num_field "value" result))
        measure_queries results)

let test_boolean_query () =
  with_server (fun port ->
      let status, body = post_analyze ~queries:[ "true" ] port in
      Alcotest.(check int) "status" 200 status;
      match Json.list_field "results" (Json.parse body) with
      | Some [ r ] ->
          Alcotest.(check (option bool))
            "satisfied" (Some true)
            (match Json.member "satisfied" r with
            | Some (Json.Bool b) -> Some b
            | _ -> None)
      | _ -> Alcotest.fail "expected one result")

let test_session_hit_on_repeat () =
  with_server (fun port ->
      let tag body =
        Option.get (Json.string_field "session" (Json.parse body))
      in
      let _, first = post_analyze port in
      let _, second = post_analyze port in
      Alcotest.(check string) "first builds" "miss" (tag first);
      Alcotest.(check string) "second reuses" "hit" (tag second);
      let stats = fetch_stats port in
      Alcotest.(check (float 0.)) "one build" 1. (stat [ "sessions"; "misses" ] stats);
      Alcotest.(check bool)
        "hits recorded" true
        (stat [ "sessions"; "hits" ] stats >= 1.))

(* ------------------------------------------------------------------ *)
(* Admission control: bad input answers 4xx and the server stays up *)

let test_malformed_json () =
  with_server (fun port ->
      let cl = Http.connect ~host:"127.0.0.1" ~port in
      Fun.protect
        ~finally:(fun () -> Http.close cl)
        (fun () ->
          let status, body =
            Http.call cl ~meth:"POST" ~path:"/analyze" ~body:"{nope" ()
          in
          Alcotest.(check int) "bad json status" 400 status;
          Alcotest.(check bool)
            "error mentions json" true
            (match Json.string_field "error" (Json.parse body) with
            | Some msg -> contains msg "JSON" || contains msg "json"
            | None -> false);
          (* same connection still serves *)
          let status, _ = Http.call cl ~meth:"GET" ~path:"/health" () in
          Alcotest.(check int) "still alive" 200 status))

let test_malformed_model () =
  with_server (fun port ->
      let status, body =
        post_analyze ~model:"<arcade name=\"broken\"><components>" port
      in
      Alcotest.(check int) "unparsable xml" 422 status;
      let resp = Json.parse body in
      (match Json.list_field "diagnostics" resp with
      | Some (first :: _) ->
          Alcotest.(check bool)
            "diagnostic has a code" true
            (Json.string_field "code" first <> None)
      | Some [] | None -> Alcotest.fail "expected lint diagnostics");
      (* dangling ref: well-formed XML rejected by lint, not by a crash *)
      let bad_ref =
        replace_once ~pat:{|<basic ref="b"/>|} ~by:{|<basic ref="ghost"/>|}
          tiny_model
      in
      let status, _ = post_analyze ~model:bad_ref port in
      Alcotest.(check int) "lint rejects dangling ref" 422 status;
      let status, _ =
        Http.request ~host:"127.0.0.1" ~port ~meth:"GET" ~path:"/health" ()
      in
      Alcotest.(check int) "server survives" 200 status)

let test_malformed_query () =
  with_server (fun port ->
      List.iter
        (fun query ->
          let status, body = post_analyze ~queries:[ query ] port in
          Alcotest.(check int) (query ^ ": query syntax error") 400 status;
          let resp = Json.parse body in
          Alcotest.(check bool)
            (query ^ ": positioned") true
            (Json.member "line" resp <> None && Json.member "column" resp <> None);
          Alcotest.(check (option (float 0.)))
            (query ^ ": index") (Some 0.)
            (match Json.member "query_index" resp with
            | Some (Json.Num x) -> Some x
            | _ -> None))
        [
          "S=? [ \"full_service\"";
          (* numbers the PRISM lexer cannot convert *)
          "P=? [ F<=100 (x > 2e) ]";
          "S=? [ (x > 99999999999999999999) ]";
        ])

let test_missing_fields () =
  with_server (fun port ->
      let post body =
        fst
          (Http.request ~host:"127.0.0.1" ~port ~meth:"POST" ~path:"/analyze"
             ~body ())
      in
      Alcotest.(check int) "no model" 400 (post {|{"queries":[]}|});
      Alcotest.(check int)
        "bad queries" 400
        (post (Json.to_string
                 (Json.Obj
                    [ ("model", Json.Str tiny_model); ("queries", Json.Num 3.) ]))))

(* a "lump" field, which older clients (perfbench's among them) still
   send, is ignored: the answer is byte for byte the one to the body
   without it, each from a fresh daemon *)
let test_lump_field_ignored () =
  let answer fields =
    let body =
      Json.to_string
        (Json.Obj
           ([
              ("model", Json.Str tiny_model);
              ("queries", Json.List (List.map (fun q -> Json.Str q) measure_queries));
            ]
           @ fields))
    in
    with_server (fun port ->
        Http.request ~host:"127.0.0.1" ~port ~meth:"POST" ~path:"/analyze" ~body ())
  in
  let plain = answer [] in
  Alcotest.(check int) "status" 200 (fst plain);
  Alcotest.(check (pair int string)) "same answer" plain
    (answer [ ("lump", Json.Bool false) ])

(* ------------------------------------------------------------------ *)
(* Concurrency, caching and amortization *)

let test_concurrent_amortization () =
  with_server (fun port ->
      let clients = 4 and per_client = 5 in
      (* sweeps are measured as a delta over the requests below *)
      let sweeps_before =
        stat [ "analysis"; "mixture_passes" ] (fetch_stats port)
      in
      let errors = Atomic.make 0 in
      let threads =
        List.init clients (fun _ ->
            Thread.create
              (fun () ->
                for _ = 1 to per_client do
                  match post_analyze port with
                  | 200, _ -> ()
                  | _ -> Atomic.incr errors
                  | exception _ -> Atomic.incr errors
                done)
              ())
      in
      List.iter Thread.join threads;
      Alcotest.(check int) "no failed requests" 0 (Atomic.get errors);
      let stats = fetch_stats port in
      let requests = float_of_int (clients * per_client) in
      Alcotest.(check (float 0.))
        "all requests admitted" requests
        (stat [ "server"; "requests" ] stats);
      Alcotest.(check (float 0.))
        "one session build" 1.
        (stat [ "sessions"; "misses" ] stats);
      Alcotest.(check bool)
        "cache hits accumulate" true
        (stat [ "sessions"; "hits" ] stats >= requests -. 1.);
      (* the acceptance bar: strictly fewer uniformization sweeps than
         one-query-at-a-time execution (3 sweeps per request: until,
         cumulative reward, instantaneous reward) *)
      let sweeps =
        stat [ "analysis"; "mixture_passes" ] stats -. sweeps_before
      in
      let naive = 3. *. requests in
      Alcotest.(check bool)
        (Printf.sprintf "amortized sweeps (%g < %g)" sweeps naive)
        true
        (sweeps > 0. && sweeps < naive);
      Alcotest.(check bool)
        "hit rate positive" true
        (stat [ "sessions"; "hit_rate" ] stats > 0.))

let test_distinct_models_fan_out () =
  with_server (fun port ->
      let variant i =
        replace_once ~pat:{|mttf="100"|}
          ~by:(Printf.sprintf {|mttf="%d"|} (100 + i))
          tiny_model
      in
      let threads =
        List.init 3 (fun i ->
            Thread.create (fun () -> post_analyze ~model:(variant i) port) ())
      in
      List.iter Thread.join threads;
      let stats = fetch_stats port in
      Alcotest.(check (float 0.))
        "three sessions" 3.
        (stat [ "sessions"; "misses" ] stats);
      Alcotest.(check (float 0.))
        "all live" 3.
        (stat [ "sessions"; "live" ] stats))

let elapsed_s f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* an idle keep-alive connection holds nothing up: a request whose
   queries share sweeps is answered at once *)
let test_idle_connection () =
  with_server (fun port ->
      let idle = Http.connect ~host:"127.0.0.1" ~port in
      let (status, _), s = elapsed_s (fun () -> post_analyze port) in
      Http.close idle;
      Alcotest.(check int) "answered" 200 status;
      Alcotest.(check bool) (Printf.sprintf "answered in %.3f s < 1 s" s) true (s < 1.))

let test_metrics_endpoint () =
  with_server (fun port ->
      ignore (post_analyze port);
      match
        Http.request ~host:"127.0.0.1" ~port ~meth:"GET" ~path:"/metrics" ()
      with
      | 200, body -> (
          match Json.parse body with
          | Json.Obj members ->
              Alcotest.(check bool)
                "has counters" true
                (List.mem_assoc "counters" members)
          | _ -> Alcotest.fail "metrics is not an object")
      | status, _ -> Alcotest.fail (Printf.sprintf "/metrics answered %d" status))

let test_shutdown_endpoint () =
  let config =
    { Server.host = "127.0.0.1"; port = 0; domains = 1; max_sessions = 4 }
  in
  let srv = Server.start ~config () in
  let port = Server.port srv in
  let status, _ =
    Http.request ~host:"127.0.0.1" ~port ~meth:"POST" ~path:"/shutdown" ()
  in
  Alcotest.(check int) "shutdown acknowledged" 200 status;
  Server.wait srv;
  (match Http.request ~host:"127.0.0.1" ~port ~meth:"GET" ~path:"/health" () with
  | _ -> Alcotest.fail "server still answering after shutdown"
  | exception (Unix.Unix_error _ | End_of_file | Http.Bad_request _) -> ());
  Server.stop srv

(* ------------------------------------------------------------------ *)
(* A session hit repeats no work: answers are memoized per session by
   query text, and bytes a live session accepted are not linted again *)

let results_of body =
  match Json.list_field "results" (Json.parse body) with
  | Some l -> l
  | None -> Alcotest.fail ("no results in " ^ body)

let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter name)

(* [query]'s value on [tiny_model]'s full chain, from the checker *)
let checker_value =
  let csl =
    lazy
      (let xml, pos = Xml_kit.parse_string_located tiny_model in
       Core.Measures.to_csl_model
         (Core.Measures.analyze (fst (Core.Xml_io.of_xml ~pos xml))))
  in
  fun query ->
    match Csl.Checker.check_string (Lazy.force csl) query with
    | Csl.Checker.Value v -> v
    | Csl.Checker.Satisfied _ -> Alcotest.fail "expected a value"

let check_values queries body =
  List.iter2
    (fun query result ->
      let expected = checker_value query in
      Alcotest.(check (float (1e-12 *. Float.max 1. (Float.abs expected))))
        query expected (num_field "value" result))
    queries (results_of body)

let test_memo_repeat () =
  with_server (fun port ->
      let status, first = post_analyze port in
      Alcotest.(check int) "first status" 200 status;
      let before = fetch_stats port in
      let status, second = post_analyze port in
      Alcotest.(check int) "second status" 200 status;
      let after = fetch_stats port in
      Alcotest.(check string) "byte-identical results"
        (Json.to_string (Json.List (results_of first)))
        (Json.to_string (Json.List (results_of second)));
      let delta path = stat path after -. stat path before in
      Alcotest.(check (float 0.)) "no sweep on the repeat" 0.
        (delta [ "analysis"; "mixture_passes" ]);
      Alcotest.(check (float 0.)) "every query a memo hit"
        (float_of_int (List.length measure_queries))
        (delta [ "server"; "answer_hits" ]))

(* a memoized answer is the one its query gets in any other group: the
   curve points of a shared sweep do not depend on their partners *)
let test_memo_group_independent () =
  let alone = [ "R{\"cost\"}=? [ C<=10 ]"; "P=? [ true U<=10 !\"full_service\" ]" ] in
  let answer queries =
    with_server (fun port -> snd (post_analyze ~queries port))
  in
  let solo = List.map (fun q -> results_of (answer [ q ])) alone in
  with_server (fun port ->
      ignore (post_analyze port);
      ignore (post_analyze ~queries:[ "R{\"cost\"}=? [ C<=100 ]" ] port);
      List.iter2
        (fun q solo ->
          let _, body = post_analyze ~queries:[ q ] port in
          Alcotest.(check string) q
            (Json.to_string (Json.List solo))
            (Json.to_string (Json.List (results_of body))))
        alone solo)

(* [Ast.to_string] prints bounds with %g: a key on the printed AST would
   answer the second query with the first one's value *)
let test_memo_close_bounds () =
  with_server (fun port ->
      let values =
        List.map
          (fun q ->
            let _, body = post_analyze ~queries:[ q ] port in
            check_values [ q ] body;
            num_field "value" (List.hd (results_of body)))
          [ "R{\"cost\"}=? [ C<=1000 ]"; "R{\"cost\"}=? [ C<=1000.0001 ]" ]
      in
      Alcotest.(check bool) "the two bounds answer differently" true
        (List.nth values 0 <> List.nth values 1))

let test_memo_errors_not_stored () =
  with_server (fun port ->
      let q = "R{\"nope\"}=? [ C<=10 ]" in
      let bodies =
        List.init 3 (fun _ ->
            let status, body = post_analyze ~queries:[ q ] port in
            Alcotest.(check int) "status" 200 status;
            (match results_of body with
            | [ r ] ->
                Alcotest.(check bool) "an error" true (Json.member "error" r <> None)
            | _ -> Alcotest.fail "expected one result");
            Json.to_string (Json.List (results_of body)))
      in
      Alcotest.(check (list string)) "same error each time"
        (List.init 3 (fun _ -> List.hd bodies)) bodies;
      let stats = fetch_stats port in
      Alcotest.(check (float 0.)) "never a memo hit" 0.
        (stat [ "server"; "answer_hits" ] stats);
      Alcotest.(check (float 0.)) "evaluated each time" 3.
        (stat [ "server"; "query_errors" ] stats))

(* more distinct queries than a bound allows: every answer is right, and
   a repeat finds exactly the bound's worth in the memo *)
let test_memo_bounds () =
  let check_bound label queries ~stored =
    with_server (fun port ->
        let status, first = post_analyze ~queries port in
        Alcotest.(check int) (label ^ " status") 200 status;
        check_values queries first;
        let _, second = post_analyze ~queries port in
        check_values queries second;
        Alcotest.(check (float 0.)) (label ^ ": memo holds its bound")
          (float_of_int stored)
          (stat [ "server"; "answer_hits" ] (fetch_stats port)))
  in
  let n = Server.memo_max_entries + 10 in
  check_bound "entries"
    (List.init n (fun k -> Printf.sprintf "R{\"cost\"}=? [ C<=%d ]" (k + 1)))
    ~stored:Server.memo_max_entries;
  (* long texts: the key-byte bound binds first *)
  let pad = String.make 1000 ' ' in
  let long = List.init 80 (fun k -> Printf.sprintf "R{\"cost\"}=? [ C<=%d%s ]" (k + 1) pad) in
  let len = String.length (List.hd long) in
  Alcotest.(check bool) "the byte bound binds first" true
    (80 * len > Server.memo_max_key_bytes
    && Server.memo_max_key_bytes / len < Server.memo_max_entries);
  check_bound "key bytes" long ~stored:(Server.memo_max_key_bytes / len)

let test_lint_skip () =
  with_server (fun port ->
      let files () = counter "lint.files" in
      let f0 = files () in
      ignore (post_analyze port);
      Alcotest.(check int) "a miss is linted" (f0 + 1) (files ());
      let _, body = post_analyze port in
      Alcotest.(check (option string)) "a hit" (Some "hit")
        (Json.string_field "session" (Json.parse body));
      Alcotest.(check int) "a hit is not linted" (f0 + 1) (files ());
      Alcotest.(check (float 0.)) "one lint skip" 1.
        (stat [ "server"; "lint_skips" ] (fetch_stats port));
      ignore (post_analyze ~model:(tiny_model ^ " ") port);
      Alcotest.(check int) "one byte more is linted" (f0 + 2) (files ());
      let bad =
        replace_once ~pat:{|<basic ref="b"/>|} ~by:{|<basic ref="ghost"/>|}
          tiny_model
      in
      let rejections =
        List.init 3 (fun _ ->
            let status, body = post_analyze ~model:bad port in
            Alcotest.(check int) "rejected" 422 status;
            body)
      in
      Alcotest.(check (list string)) "same diagnostics every time"
        (List.init 3 (fun _ -> List.hd rejections)) rejections;
      Alcotest.(check int) "a rejected model is linted every time" (f0 + 5)
        (files ()))

(* Two same-model requests in flight at once, on two connections: the
   scheduler runs them one after another, and the second is answered
   from the memo the first filled, so the pair costs one request's
   sweeps *)
let test_same_model_pair () =
  let passes port = stat [ "analysis"; "mixture_passes" ] (fetch_stats port) in
  let alone =
    with_server (fun port ->
        let before = passes port in
        ignore (post_analyze port);
        passes port -. before)
  in
  with_server (fun port ->
      let before = fetch_stats port in
      let clients = Array.init 2 (fun _ -> Http.connect ~host:"127.0.0.1" ~port) in
      let replies = Array.make 2 (0, "") in
      Array.mapi
        (fun i cl ->
          Thread.create
            (fun () ->
              replies.(i) <-
                Http.call cl ~meth:"POST" ~path:"/analyze" ~body:(analyze_body ()) ())
            ())
        clients
      |> Array.iter Thread.join;
      Array.iter Http.close clients;
      let after = fetch_stats port in
      let delta path = stat path after -. stat path before in
      Array.iter (fun (status, _) -> Alcotest.(check int) "answered" 200 status) replies;
      Alcotest.(check (float 0.)) "session misses" 1. (delta [ "sessions"; "misses" ]);
      Alcotest.(check (float 0.)) "session hits" 1. (delta [ "sessions"; "hits" ]);
      Alcotest.(check (float 0.)) "the second answered from the memo"
        (float_of_int (List.length measure_queries))
        (delta [ "server"; "answer_hits" ]);
      Alcotest.(check (float 0.)) "the sweeps of one request" alone
        (delta [ "analysis"; "mixture_passes" ]);
      let results (_, body) = Json.to_string (Json.List (results_of body)) in
      Alcotest.(check string) "byte-identical results" (results replies.(0))
        (results replies.(1));
      let tag (_, body) = Option.get (Json.string_field "session" (Json.parse body)) in
      Alcotest.(check (list string)) "session tags" [ "hit"; "miss" ]
        (List.sort compare (List.map tag (Array.to_list replies))))

(* ------------------------------------------------------------------ *)
(* Observability over the wire: traceparent echo, Prometheus
   exposition, access log, flight dump on rejection *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let is_lower_hex s =
  String.for_all
    (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
    s

let test_traceparent_echo () =
  with_server (fun port ->
      let cl = Http.connect ~host:"127.0.0.1" ~port in
      Fun.protect
        ~finally:(fun () -> Http.close cl)
        (fun () ->
          let sent_trace = String.make 31 'a' ^ "b" in
          let sent =
            Printf.sprintf "00-%s-00f067aa0ba902b7-01" sent_trace
          in
          let status, headers, _ =
            Http.call_full
              ~headers:[ ("traceparent", sent) ]
              cl ~meth:"GET" ~path:"/health" ()
          in
          Alcotest.(check int) "status" 200 status;
          (match List.assoc_opt "traceparent" headers with
          | Some tp -> (
              match String.split_on_char '-' tp with
              | [ "00"; trace_id; span_id; _flags ] ->
                  Alcotest.(check string)
                    "client trace id echoed" sent_trace trace_id;
                  Alcotest.(check bool)
                    "server minted its own span id" true
                    (String.length span_id = 16
                    && is_lower_hex span_id
                    && span_id <> "00f067aa0ba902b7")
              | _ -> Alcotest.fail ("malformed echoed traceparent: " ^ tp))
          | None -> Alcotest.fail "no traceparent response header");
          (* without a client header the server mints a fresh identity *)
          let _, headers, _ = Http.call_full cl ~meth:"GET" ~path:"/health" () in
          (match List.assoc_opt "traceparent" headers with
          | Some tp -> (
              match String.split_on_char '-' tp with
              | [ "00"; trace_id; span_id; _ ] ->
                  Alcotest.(check bool)
                    "generated ids well-formed" true
                    (String.length trace_id = 32
                    && is_lower_hex trace_id
                    && trace_id <> sent_trace
                    && String.length span_id = 16)
              | _ -> Alcotest.fail ("malformed generated traceparent: " ^ tp))
          | None -> Alcotest.fail "no generated traceparent header");
          (* a malformed client header is ignored, never echoed back *)
          let _, headers, _ =
            Http.call_full
              ~headers:[ ("traceparent", "00-zzzz-bad-01") ]
              cl ~meth:"GET" ~path:"/health" ()
          in
          match List.assoc_opt "traceparent" headers with
          | Some tp ->
              Alcotest.(check bool)
                "malformed input replaced by a fresh trace" true
                (not (contains tp "zzzz"))
          | None -> Alcotest.fail "no traceparent header on malformed input"))

let test_metrics_prometheus () =
  with_server (fun port ->
      ignore (post_analyze port);
      let cl = Http.connect ~host:"127.0.0.1" ~port in
      Fun.protect
        ~finally:(fun () -> Http.close cl)
        (fun () ->
          let status, headers, body =
            Http.call_full
              ~headers:[ ("accept", "text/plain") ]
              cl ~meth:"GET" ~path:"/metrics" ()
          in
          Alcotest.(check int) "status" 200 status;
          (match List.assoc_opt "content-type" headers with
          | Some ct ->
              Alcotest.(check bool)
                ("prometheus content type: " ^ ct)
                true
                (contains ct "text/plain" && contains ct "0.0.4")
          | None -> Alcotest.fail "no content-type header");
          Alcotest.(check bool)
            "typed families" true
            (contains body "# TYPE arcade_server_requests_total counter");
          Alcotest.(check bool)
            "histograms end at +Inf" true
            (contains body {|le="+Inf"|});
          Alcotest.(check bool)
            "not the JSON rendering" true
            (body.[0] = '#');
          (* same exposition via the query parameter, for plain scrapers *)
          let _, _, via_query =
            Http.call_full cl ~meth:"GET" ~path:"/metrics?format=prometheus" ()
          in
          Alcotest.(check bool)
            "format=prometheus selects text" true
            (via_query.[0] = '#');
          (* default stays JSON *)
          let _, _, dflt = Http.call_full cl ~meth:"GET" ~path:"/metrics" () in
          match Json.parse dflt with
          | Json.Obj _ -> ()
          | _ -> Alcotest.fail "default /metrics is not a JSON object"))

let test_access_log () =
  let path = Filename.temp_file "arcade_access" ".log" in
  Unix.putenv "OBS_ACCESS_LOG" path;
  Fun.protect
    ~finally:(fun () -> Unix.putenv "OBS_ACCESS_LOG" "")
    (fun () ->
      with_server (fun port ->
          let status, _ =
            Http.request ~host:"127.0.0.1" ~port ~meth:"GET" ~path:"/health" ()
          in
          Alcotest.(check int) "health" 200 status;
          ignore (post_analyze port)));
  (* server stopped: the log is flushed and closed *)
  let lines =
    List.filter
      (fun l -> String.trim l <> "")
      (String.split_on_char '\n' (read_file path))
  in
  Sys.remove path;
  Alcotest.(check bool)
    "one line per request" true
    (List.length lines >= 2);
  List.iter
    (fun line ->
      let j = Json.parse line in
      (match Json.string_field "trace_id" j with
      | Some tid ->
          Alcotest.(check bool)
            "trace id well-formed" true
            (String.length tid = 32 && is_lower_hex tid)
      | None -> Alcotest.fail "access line without trace_id");
      Alcotest.(check bool)
        "status and latency present" true
        (Json.member "status" j <> None && Json.member "latency_ms" j <> None))
    lines;
  Alcotest.(check bool)
    "health request logged" true
    (List.exists
       (fun l ->
         Json.string_field "path" (Json.parse l) = Some "/health")
       lines);
  Alcotest.(check bool)
    "analyze line carries the model hash" true
    (List.exists
       (fun l ->
         let j = Json.parse l in
         Json.string_field "path" j = Some "/analyze"
         && Json.string_field "model_hash" j <> None)
       lines)

let test_access_log_latency_bounded () =
  (* the server's clock stops when the reply is written, so the logged
     latency of a request can never exceed what the client measured
     around the same request *)
  let path = Filename.temp_file "arcade_access" ".log" in
  Unix.putenv "OBS_ACCESS_LOG" path;
  let client_ms = Hashtbl.create 4 in
  let timed label f =
    let t0 = Obs.monotonic_ns () in
    let status = f () in
    Hashtbl.replace client_ms label
      (Int64.to_float (Int64.sub (Obs.monotonic_ns ()) t0) /. 1e6);
    Alcotest.(check int) (label ^ " status") 200 status
  in
  Fun.protect
    ~finally:(fun () -> Unix.putenv "OBS_ACCESS_LOG" "")
    (fun () ->
      with_server (fun port ->
          timed "/health" (fun () ->
              fst
                (Http.request ~host:"127.0.0.1" ~port ~meth:"GET"
                   ~path:"/health" ()));
          timed "/analyze" (fun () -> fst (post_analyze port))));
  let lines =
    List.filter
      (fun l -> String.trim l <> "")
      (String.split_on_char '\n' (read_file path))
  in
  Sys.remove path;
  Hashtbl.iter
    (fun label client ->
      match
        List.find_opt
          (fun l -> Json.string_field "path" (Json.parse l) = Some label)
          lines
      with
      | None -> Alcotest.fail ("no access-log line for " ^ label)
      | Some l ->
          let server = num_field "latency_ms" (Json.parse l) in
          Alcotest.(check bool)
            (Printf.sprintf "%s: server %.3f ms <= client %.3f ms" label
               server client)
            true (server <= client))
    client_ms

let test_flight_dump_on_reject () =
  let path = Filename.temp_file "arcade_flightdump" ".json" in
  Sys.remove path;
  Obs.Flight.set_path path;
  let dumps () = Obs.Metrics.counter_value (Obs.Metrics.counter "flight.dumps") in
  with_server (fun port ->
      let n0 = dumps () in
      let status, _ =
        post_analyze ~model:"<arcade name=\"broken\"><components>" port
      in
      Alcotest.(check int) "rejected" 422 status;
      (* the dump happens after the response is written: wait for it *)
      let deadline = Unix.gettimeofday () +. 5. in
      while
        dumps () = n0 && Unix.gettimeofday () < deadline
      do
        Thread.delay 0.02
      done;
      Alcotest.(check bool)
        "rejection dumped the flight ring" true
        (dumps () > n0));
  let dump = read_file path in
  Sys.remove path;
  Alcotest.(check bool) "dump is an array" true (dump.[0] = '[');
  Alcotest.(check bool)
    "dump names the trigger" true
    (contains dump "flight.dump" && contains dump "http_422")

(* ------------------------------------------------------------------ *)
(* Routing: steady-state queries on group-invariant labels answer from
   the symmetric build, everything else from the full one *)

let models_dir = "../models"

let load_model file =
  let src = In_channel.with_open_bin (Filename.concat models_dir file) In_channel.input_all in
  let xml, pos = Xml_kit.parse_string_located src in
  (src, fst (Core.Xml_io.of_xml ~pos xml))

(* every shipped model, four steady queries in one request, against
   Csl.Checker on an in-process full build *)
let test_routing_oracle () =
  let files =
    List.sort compare
      (List.filter
         (fun f -> Filename.check_suffix f ".xml")
         (Array.to_list (Sys.readdir models_dir)))
  in
  Alcotest.(check int) "twelve shipped models" 12 (List.length files);
  with_server (fun port ->
      List.iter
        (fun file ->
          let src, model = load_model file in
          (* a grouped component's literal when the model has groups *)
          let literal =
            match Core.Semantics.interchangeable model with
            | (c :: _) :: _ -> c
            | _ -> List.hd (Core.Model.component_names model)
          in
          let queries =
            [
              "S=? [ \"full_service\" ]";
              "S=? [ \"operational\" ]";
              "R{\"cost\"}=? [ S ]";
              Printf.sprintf "S=? [ \"%s_failed\" ]" literal;
            ]
          in
          let full = Core.Measures.analyze model in
          let csl = Core.Measures.to_csl_model full in
          let status, body = post_analyze ~model:src ~queries port in
          Alcotest.(check int) (file ^ " status") 200 status;
          Alcotest.(check (float 0.))
            (file ^ " states = full chain")
            (float_of_int
               (Ctmc.Chain.states (Core.Measures.built full).Core.Semantics.chain))
            (num_field "states" (Json.parse body));
          List.iter2
            (fun query result ->
              let expected =
                match Csl.Checker.check_string csl query with
                | Csl.Checker.Value v -> v
                | Csl.Checker.Satisfied _ -> Alcotest.fail "expected a value"
              in
              match Json.member "value" result with
              | Some (Json.Num got) ->
                  let tol = 1e-10 *. Float.max 1. (Float.abs expected) in
                  Alcotest.(check (float tol)) (file ^ ": " ^ query) expected got
              | _ ->
                  Alcotest.fail
                    (Printf.sprintf "%s: %s answered %s" file query
                       (Json.to_string result)))
            queries
            (Option.value ~default:[] (Json.list_field "results" (Json.parse body))))
        files)

(* [(name, args)] of the spans buffered since the last {!Obs.Trace.clear} *)
let buffered_spans path =
  Obs.Trace.flush ();
  match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Json.List events ->
      List.filter_map
        (fun ev ->
          match (Json.string_field "name" ev, Json.member "args" ev) with
          | Some name, Some args -> Some (name, args)
          | _ -> None)
        events
  | _ -> Alcotest.fail "trace is not an array"

let builds path =
  List.filter_map
    (fun (name, args) ->
      if name <> "measures.build" then None
      else
        Some
          ( (match Json.member "symmetric" args with
            | Some (Json.Bool b) -> b
            | _ -> Alcotest.fail "build without a symmetric attribute"),
            int_of_float (num_field "states" args) ))
    (buffered_spans path)

(* [f path] with the spans traced to [path] *)
let with_trace f =
  let path = Filename.temp_file "arcade_routing" ".json" in
  Obs.Trace.set_output (Some path);
  Obs.Trace.clear ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.set_output None;
      Obs.Trace.clear ();
      Sys.remove path)
    (fun () -> f path)

let test_routing_builds () =
  with_trace (fun path ->
      let build_list = Alcotest.(list (pair bool int)) in
      let src, _ = load_model "line2_frf-1.xml" in
      with_server (fun port ->
          let status, body =
            post_analyze ~model:src
              ~queries:[ "S=? [ \"full_service\" ]"; "R{\"cost\"}=? [ S ]" ]
              port
          in
          Alcotest.(check int) "steady status" 200 status;
          Alcotest.(check (float 0.))
            "states is the full count" 8129.
            (num_field "states" (Json.parse body));
          Alcotest.check build_list "steady-only: one symmetric build"
            [ (true, 257) ] (builds path);
          let status, body =
            post_analyze ~model:src
              ~queries:[ "P=? [ true U<=10 !\"full_service\" ]" ]
              port
          in
          Alcotest.(check int) "transient status" 200 status;
          Alcotest.(check (option string))
            "same session" (Some "hit")
            (Json.string_field "session" (Json.parse body));
          Alcotest.check build_list "transient: one full build"
            [ (true, 257); (false, 8129) ] (builds path);
          let status, _ = post_analyze port in
          Alcotest.(check int) "tiny status" 200 status;
          Alcotest.check build_list "no groups: one build for the mixed suite"
            [ (true, 257); (false, 8129); (true, 4) ] (builds path));
      (* the server has stopped, so every group span is closed *)
      let groups =
        List.filter_map
          (fun (name, args) ->
            if name = "server.process_group" then
              Some (Json.string_field "chain" args, Json.to_string args)
            else None)
          (buffered_spans path)
      in
      Alcotest.(check (list (option string))) "the chain each group used"
        [ Some "symmetric"; Some "full"; Some "symmetric" ] (List.map fst groups);
      List.iter2
        (fun key (_, args) ->
          Alcotest.(check bool) (key ^ " in " ^ args) true (contains args key))
        [ {|"symmetric_states":257|}; {|"full_states":8129|}; {|"symmetric_states":4|} ]
        groups)

(* substation's feeders (adjacent Priority ranks) and transformers (a
   warm spare unit as well) form groups: a steady query is answered from
   the 649-state symmetric chain, with the full chain's size *)
let test_routing_substation () =
  with_trace (fun path ->
      let src, _ = load_model "substation.xml" in
      with_server (fun port ->
          let status, body =
            post_analyze ~model:src ~queries:[ "S=? [ \"full_service\" ]" ] port
          in
          Alcotest.(check int) "status" 200 status;
          Alcotest.(check (float 0.))
            "states is the full count" 3969.
            (num_field "states" (Json.parse body));
          Alcotest.(check (list (pair bool int)))
            "one symmetric build" [ (true, 649) ] (builds path)))

(* ------------------------------------------------------------------ *)
(* Hostile requests: read_request yields a request, None or Bad_request,
   never another exception, and never waits on a peer that has finished *)

let post_head ~content_length =
  Printf.sprintf "POST /analyze HTTP/1.1\r\nHost: x\r\nContent-Length: %s\r\n\r\n"
    content_length

let request_body = {|{"model": "<arcade/>", "queries": ["S=? [ \"down\" ]"]}|}

let valid_request =
  post_head ~content_length:(string_of_int (String.length request_body)) ^ request_body

let chunked_request =
  "POST /analyze HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n\
   5\r\nhello\r\n0\r\n\r\n"

(* [edits] as (position, operation, byte): 0 replaces, 1 inserts and 2
   deletes the byte at the position (taken modulo the current length) *)
let mutate text edits =
  List.fold_left
    (fun s (pos, op, c) ->
      let n = String.length s in
      let i = pos mod (n + 1) in
      match op with
      | 0 when i < n -> String.mapi (fun j x -> if j = i then c else x) s
      | 2 when i < n -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
      | _ -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i))
    text edits

let hostile_request_gen =
  QCheck.Gen.(
    let byte =
      frequency
        [ (3, map (String.get ":\r\n 0123456789-xX") (int_bound 16)); (1, char) ]
    in
    let content_length =
      oneof
        [
          oneofl
            [ ""; "abc"; " 12 "; "+3"; "0x1f"; "1_0"; "12abc"; "67108865";
              "99999999999999999999"; "4611686018427387903"; "-0" ];
          map string_of_int (int_range (-5) 100);
        ]
    in
    let truncated text =
      let* k = int_bound (String.length text) in
      return (String.sub text 0 k)
    in
    let mutated text =
      let* edits = list_size (int_range 1 6) (triple nat (int_bound 2) byte) in
      return (mutate text edits)
    in
    frequency
      [
        (1, string_size ~gen:char (int_range 0 300));
        (1, truncated valid_request);
        ( 2,
          let* content_length = content_length in
          let* tail = string_size ~gen:byte (int_range 0 80) in
          return (post_head ~content_length ^ tail) );
        (1, oneof [ truncated chunked_request; mutated chunked_request ]);
        (1, mutated valid_request);
      ])

(* [input] arrives on a socket whose writing side is then shut down; a
   read that would block raises (receive timeout) instead of hanging *)
let read_request_of input =
  let w, r = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close w;
      Unix.close r)
    (fun () ->
      Unix.setsockopt_float r Unix.SO_RCVTIMEO 5.;
      let n = String.length input in
      let rec send off =
        if off < n then send (off + Unix.write_substring w input off (n - off))
      in
      send 0;
      Unix.shutdown w Unix.SHUTDOWN_SEND;
      Http.read_request (Http.conn r))

let prop_read_request_never_raises =
  QCheck.Test.make ~count:2000
    ~name:"Http.read_request: a request, None or Bad_request"
    (QCheck.make ~print:String.escaped hostile_request_gen)
    (fun input ->
      match read_request_of input with
      | Some _ | None -> true
      | exception Http.Bad_request _ -> true)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "server"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_errors;
          QCheck_alcotest.to_alcotest ~speed_level:`Quick
            ~rand:(Random.State.make [| 27 |])
            prop_json_parse_never_raises;
        ] );
      ( "hostile-http",
        [
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 29 |])
            prop_read_request_never_raises;
          Alcotest.test_case "valid request reads back" `Quick (fun () ->
              match read_request_of valid_request with
              | Some r -> Alcotest.(check string) "body" request_body r.Http.body
              | None -> Alcotest.fail "expected a request");
        ] );
      ( "protocol",
        [
          Alcotest.test_case "health and 404" `Quick test_health_and_404;
          Alcotest.test_case "values match direct analysis" `Quick
            test_correct_values;
          Alcotest.test_case "boolean query" `Quick test_boolean_query;
          Alcotest.test_case "session hit on repeat" `Quick
            test_session_hit_on_repeat;
          Alcotest.test_case "metrics endpoint" `Quick test_metrics_endpoint;
          Alcotest.test_case "shutdown endpoint" `Quick test_shutdown_endpoint;
        ] );
      ( "admission",
        [
          Alcotest.test_case "malformed json" `Quick test_malformed_json;
          Alcotest.test_case "malformed model" `Quick test_malformed_model;
          Alcotest.test_case "malformed query" `Quick test_malformed_query;
          Alcotest.test_case "missing fields" `Quick test_missing_fields;
          Alcotest.test_case "lump field ignored" `Quick test_lump_field_ignored;
        ] );
      ( "memo",
        [
          Alcotest.test_case "repeat answers from the memo" `Quick
            test_memo_repeat;
          Alcotest.test_case "answers do not depend on their group" `Quick
            test_memo_group_independent;
          Alcotest.test_case "keys tell close bounds apart" `Quick
            test_memo_close_bounds;
          Alcotest.test_case "errors are not stored" `Quick
            test_memo_errors_not_stored;
          Alcotest.test_case "memo bounded" `Quick test_memo_bounds;
          Alcotest.test_case "accepted bytes skip lint" `Quick test_lint_skip;
        ] );
      ( "batching",
        [
          Alcotest.test_case "concurrent amortization" `Quick
            test_concurrent_amortization;
          Alcotest.test_case "distinct models fan out" `Quick
            test_distinct_models_fan_out;
          Alcotest.test_case "same-model pair shares the memo" `Quick
            test_same_model_pair;
          Alcotest.test_case "idle connection holds nothing up" `Quick
            test_idle_connection;
        ] );
      ( "observability",
        [
          Alcotest.test_case "traceparent echo" `Quick test_traceparent_echo;
          Alcotest.test_case "prometheus exposition" `Quick
            test_metrics_prometheus;
          Alcotest.test_case "access log" `Quick test_access_log;
          Alcotest.test_case "access-log latency within client time" `Quick
            test_access_log_latency_bounded;
          Alcotest.test_case "flight dump on rejection" `Quick
            test_flight_dump_on_reject;
        ] );
      ( "routing",
        [
          Alcotest.test_case "twelve models agree with the checker" `Quick
            test_routing_oracle;
          Alcotest.test_case "chains built on demand" `Quick
            test_routing_builds;
          Alcotest.test_case "substation on the symmetric chain" `Quick
            test_routing_substation;
        ] );
    ]
