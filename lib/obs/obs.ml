type attr =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

external monotonic_ns : unit -> (int64[@unboxed])
  = "obs_monotonic_ns" "obs_monotonic_ns_unboxed"
[@@noalloc]

let json_of_attr : attr -> Json.t = function
  | Int i -> Num (float_of_int i)
  | Float x -> Num x
  | Str s -> Str s
  | Bool b -> Bool b

(* Each writer gets its own temp name (pid + per-process sequence), so
   concurrent flushes to the same path — two domains, or two processes —
   never clobber each other's temp file; whichever rename lands last
   wins, and both leave a complete file. On any failure the temp file is
   unlinked before the exception propagates. *)
let tmp_counter = Atomic.make 0

let write_file_atomic path contents =
  let tmp =
    Printf.sprintf "%s.%d.%d.tmp" path (Unix.getpid ())
      (Atomic.fetch_and_add tmp_counter 1)
  in
  match
    (* closed in the body, so a failed write raises Sys_error *)
    Out_channel.with_open_text tmp (fun oc ->
        output_string oc contents;
        close_out oc);
    Sys.rename tmp path
  with
  | () -> ()
  | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

(* ------------------------------------------------------------------ *)
(* Bounded ring                                                       *)

(* The newest pushes, oldest overwritten first, behind one lock: the
   metrics solve ring and each domain's span store. A reader follows a
   ring through its cursor; the pushes after the cursor are unread, and
   [push] bounds how many of them the ring keeps, growing rather than
   overwriting one it keeps. *)
module Ring = struct
  type 'a t = {
    mutable slots : 'a option array;
    mutable pushed : int;  (* total pushes; slot = pushed mod capacity *)
    mutable cursor : int;  (* pushes before this one have been read *)
    lock : Mutex.t;
  }

  let create capacity =
    { slots = Array.make capacity None; pushed = 0; cursor = 0; lock = Mutex.create () }

  (* double the slots, each stored element staying at its push index *)
  let grow r =
    let n = Array.length r.slots in
    let slots = Array.make (2 * n) None in
    for k = max 0 (r.pushed - n) to r.pushed - 1 do
      slots.(k mod (2 * n)) <- r.slots.(k mod n)
    done;
    r.slots <- slots

  (* Store [x] as the newest element, keeping at most [unread] unread
     ones (0 when nobody reads, [max_int] to keep them all); returns how
     many unread elements the cursor skipped. Lock and unlock by hand:
     the recording path allocates no closure. *)
  let push r ~unread x =
    Mutex.lock r.lock;
    let skipped = max 0 (r.pushed - r.cursor + 1 - unread) in
    r.cursor <- r.cursor + skipped;
    if r.pushed - r.cursor >= Array.length r.slots then grow r;
    r.slots.(r.pushed mod Array.length r.slots) <- Some x;
    r.pushed <- r.pushed + 1;
    Mutex.unlock r.lock;
    skipped

  (* the stored elements from push index [first] on, oldest first *)
  let since r first =
    let capacity = Array.length r.slots in
    let first = max first (max 0 (r.pushed - capacity)) in
    List.init (r.pushed - first) (fun i -> Option.get r.slots.((first + i) mod capacity))

  let newest r n = Mutex.protect r.lock (fun () -> since r (r.pushed - n))

  let unread r = Mutex.protect r.lock (fun () -> since r r.cursor)

  (* the unread elements, marked read *)
  let take r =
    Mutex.protect r.lock (fun () ->
        let l = since r r.cursor in
        r.cursor <- r.pushed;
        l)

  let clear r =
    Mutex.protect r.lock (fun () ->
        Array.fill r.slots 0 (Array.length r.slots) None;
        r.pushed <- 0;
        r.cursor <- 0)
end

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                   *)

module Metrics = struct
  let on = ref false

  let enabled () = !on

  let set_enabled b = on := b

  type counter = int Atomic.t

  type gauge = float Atomic.t

  type histogram = {
    bounds : float array;
    buckets : int Atomic.t array;  (* length = Array.length bounds + 1 *)
    h_sum : float Atomic.t;
  }

  type instrument =
    | C of counter
    | G of gauge
    | H of histogram

  let registry : (string, instrument) Hashtbl.t = Hashtbl.create 64

  let registry_mutex = Mutex.create ()

  let register name make describe =
    Mutex.protect registry_mutex (fun () ->
        match Hashtbl.find_opt registry name with
        | Some existing -> describe existing
        | None ->
            let i = make () in
            Hashtbl.replace registry name i;
            describe i)

  let kind_error name =
    invalid_arg
      (Printf.sprintf "Obs.Metrics: %S already registered as a different kind"
         name)

  let counter name =
    register name
      (fun () -> C (Atomic.make 0))
      (function C c -> c | G _ | H _ -> kind_error name)

  let incr c = if !on then ignore (Atomic.fetch_and_add c 1 : int)

  let add c n = if !on then ignore (Atomic.fetch_and_add c n : int)

  let counter_value c = Atomic.get c

  let gauge name =
    register name
      (fun () -> G (Atomic.make 0.))
      (function G g -> g | C _ | H _ -> kind_error name)

  let set_gauge g x = if !on then Atomic.set g x

  let gauge_value g = Atomic.get g

  (* log-spaced decade grid: residuals (1e-16..1) and counts/widths
     (1..1e6) both land in meaningful buckets *)
  let default_buckets =
    Array.init 23 (fun i -> 10. ** float_of_int (i - 16))

  (* latency-shaped grid for request/query timings in milliseconds:
     0.25 ms .. ~8 s in powers of two *)
  let latency_ms_buckets =
    Array.init 16 (fun i -> 0.25 *. (2. ** float_of_int i))

  let histogram ?(buckets = default_buckets) name =
    Array.iteri
      (fun i b ->
        if i > 0 && b <= buckets.(i - 1) then
          invalid_arg "Obs.Metrics.histogram: buckets must be increasing")
      buckets;
    register name
      (fun () ->
        H
          {
            bounds = Array.copy buckets;
            buckets = Array.init (Array.length buckets + 1) (fun _ -> Atomic.make 0);
            h_sum = Atomic.make 0.;
          })
      (function H h -> h | C _ | G _ -> kind_error name)

  let rec atomic_add_float a x =
    let cur = Atomic.get a in
    if not (Atomic.compare_and_set a cur (cur +. x)) then atomic_add_float a x

  let bucket_index bounds x =
    (* first bound >= x; bounds are short (tens), linear scan is fine *)
    let n = Array.length bounds in
    let rec go i = if i >= n || x <= bounds.(i) then i else go (i + 1) in
    go 0

  let observe h x =
    if !on then begin
      ignore (Atomic.fetch_and_add h.buckets.(bucket_index h.bounds x) 1 : int);
      atomic_add_float h.h_sum x
    end

  (* ---------------------------------------------------------------- *)
  (* Solver-convergence ring                                          *)

  type solve = {
    solver : string;
    size : int;
    iterations : int;
    residual : float;
    converged : bool;
  }

  let solves : solve Ring.t = Ring.create 256

  (* The flight recorder (defined below; [Flight] cannot be referenced
     from here) hooks non-convergence so a long-running daemon keeps a
     post-mortem trace of the request that failed to converge. *)
  let nonconverged_hook : (unit -> unit) ref = ref (fun () -> ())

  let record_solve ~solver ~size ~iterations ~residual ~converged =
    if !on then begin
      add (counter (Printf.sprintf "solver.%s.solves" solver)) 1;
      add (counter (Printf.sprintf "solver.%s.iterations" solver)) iterations;
      set_gauge (gauge (Printf.sprintf "solver.%s.last_residual" solver)) residual;
      (* aggregate across solvers: the server attaches this to the
         request span without knowing which solver ran *)
      set_gauge (gauge "solver.last_residual") residual;
      observe
        (histogram (Printf.sprintf "solver.%s.residual" solver))
        residual;
      ignore
        (Ring.push solves ~unread:0 { solver; size; iterations; residual; converged }
          : int)
    end;
    if not converged then !nonconverged_hook ()

  (* ---------------------------------------------------------------- *)
  (* Snapshots                                                        *)

  type snapshot = {
    counters : (string * int) list;
    gauges : (string * float) list;
    histograms : (string * histogram_view) list;
    solves : solve list;
  }

  and histogram_view = {
    bounds : float array;
    counts : int array;
    total : int;
    sum : float;
  }

  let snapshot () =
    let cs = ref [] and gs = ref [] and hs = ref [] in
    Mutex.protect registry_mutex (fun () ->
        Hashtbl.iter
          (fun name i ->
            match i with
            | C c -> cs := (name, Atomic.get c) :: !cs
            | G g -> gs := (name, Atomic.get g) :: !gs
            | H h ->
                let counts = Array.map Atomic.get h.buckets in
                hs :=
                  ( name,
                    {
                      bounds = Array.copy h.bounds;
                      counts;
                      total = Array.fold_left ( + ) 0 counts;
                      sum = Atomic.get h.h_sum;
                    } )
                  :: !hs)
          registry);
    let by_name (a, _) (b, _) = compare (a : string) b in
    {
      counters = List.sort by_name !cs;
      gauges = List.sort by_name !gs;
      histograms = List.sort by_name !hs;
      solves = Ring.newest solves max_int;
    }

  let reset () =
    Mutex.protect registry_mutex (fun () ->
        Hashtbl.iter
          (fun _ i ->
            match i with
            | C c -> Atomic.set c 0
            | G g -> Atomic.set g 0.
            | H h ->
                Array.iter (fun b -> Atomic.set b 0) h.buckets;
                Atomic.set h.h_sum 0.)
          registry);
    Ring.clear solves

  let pp ppf s =
    Format.fprintf ppf "@[<v>metrics:";
    Format.fprintf ppf "@,  counters:";
    List.iter
      (fun (name, v) -> Format.fprintf ppf "@,    %-44s %d" name v)
      s.counters;
    Format.fprintf ppf "@,  gauges:";
    List.iter
      (fun (name, v) -> Format.fprintf ppf "@,    %-44s %g" name v)
      s.gauges;
    Format.fprintf ppf "@,  histograms:";
    List.iter
      (fun (name, h) ->
        Format.fprintf ppf "@,    %s: total=%d sum=%g" name h.total h.sum;
        Array.iteri
          (fun i c ->
            if c > 0 then
              if i < Array.length h.bounds then
                Format.fprintf ppf " [<=%g: %d]" h.bounds.(i) c
              else Format.fprintf ppf " [>%g: %d]" h.bounds.(i - 1) c)
          h.counts)
      s.histograms;
    if s.solves <> [] then begin
      Format.fprintf ppf "@,  solves (last %d):" (List.length s.solves);
      List.iter
        (fun v ->
          Format.fprintf ppf "@,    %-22s n=%-7d iterations=%-6d residual=%.3e%s"
            v.solver v.size v.iterations v.residual
            (if v.converged then "" else " NOT CONVERGED"))
        s.solves
    end;
    Format.fprintf ppf "@]"

  let to_json s : Json.t =
    let int i = Json.Num (float_of_int i) in
    let array f a = Json.List (Array.to_list (Array.map f a)) in
    Obj
      [
        ("counters", Obj (List.map (fun (n, v) -> (n, int v)) s.counters));
        ("gauges", Obj (List.map (fun (n, v) -> (n, Json.Num v)) s.gauges));
        ( "histograms",
          Obj
            (List.map
               (fun (name, h) ->
                 ( name,
                   Json.Obj
                     [
                       ("bounds", array Json.num h.bounds);
                       ("counts", array int h.counts);
                       ("total", int h.total);
                       ("sum", Num h.sum);
                     ] ))
               s.histograms) );
        ( "solves",
          List
            (List.map
               (fun v ->
                 Json.Obj
                   [
                     ("solver", Str v.solver);
                     ("size", int v.size);
                     ("iterations", int v.iterations);
                     ("residual", Num v.residual);
                     ("converged", Bool v.converged);
                   ])
               s.solves) );
      ]

  (* ---------------------------------------------------------------- *)
  (* Prometheus text exposition (format 0.0.4)                        *)

  let prom_name name =
    let b = Buffer.create (String.length name + 8) in
    Buffer.add_string b "arcade_";
    String.iter
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' ->
            Buffer.add_char b c
        | _ -> Buffer.add_char b '_')
      name;
    Buffer.contents b

  let prom_float x =
    if Float.is_nan x then "NaN"
    else if x = Float.infinity then "+Inf"
    else if x = Float.neg_infinity then "-Inf"
    else Printf.sprintf "%.17g" x

  (* Name sanitization can merge two registry names into one Prometheus
     family ("a.b" and "a_b"); the first (registry order is sorted) wins
     and later collisions are skipped entirely, so the exposition never
     emits two "# TYPE" lines or two sample sets for one family. *)
  let to_prometheus (s : snapshot) =
    let buf = Buffer.create 4096 in
    let seen : (string, unit) Hashtbl.t = Hashtbl.create 64 in
    let family name kind emit =
      if not (Hashtbl.mem seen name) then begin
        Hashtbl.add seen name ();
        Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind);
        emit name
      end
    in
    List.iter
      (fun (name, v) ->
        family
          (prom_name name ^ "_total")
          "counter"
          (fun n -> Buffer.add_string buf (Printf.sprintf "%s %d\n" n v)))
      s.counters;
    List.iter
      (fun (name, v) ->
        family (prom_name name) "gauge" (fun n ->
            Buffer.add_string buf
              (Printf.sprintf "%s %s\n" n (prom_float v))))
      s.gauges;
    List.iter
      (fun (name, h) ->
        family (prom_name name) "histogram" (fun n ->
            let cum = ref 0 in
            Array.iteri
              (fun i bound ->
                cum := !cum + h.counts.(i);
                Buffer.add_string buf
                  (Printf.sprintf "%s_bucket{le=\"%g\"} %d\n" n bound !cum))
              h.bounds;
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" n h.total);
            Buffer.add_string buf
              (Printf.sprintf "%s_sum %s\n" n (prom_float h.sum));
            Buffer.add_string buf (Printf.sprintf "%s_count %d\n" n h.total)))
      s.histograms;
    Buffer.contents buf
end

(* ------------------------------------------------------------------ *)
(* Span tracing                                                       *)

module Trace = struct
  let on = ref false

  (* Shared with [Flight] (defined after this module): when the flight
     recorder is enabled, spans are recorded even while file tracing is
     off. *)
  let flight_on = ref false

  let enabled () = !on

  let active () = !on || !flight_on

  let output_path = ref None

  (* ---------------------------------------------------------------- *)
  (* W3C trace-context                                                *)

  type context = { trace_id : string; span_id : string }

  (* splitmix64 over an atomic counter + per-process seed: id generation
     is contention-light and unique across the processes of one test run
     (the pid is folded into the seed). *)
  let splitmix64 z =
    let z =
      Int64.mul
        (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul
        (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let id_seed =
    Int64.logxor (monotonic_ns ())
      (Int64.of_int (Unix.getpid () * 0x9E3779B9))

  let id_counter = Atomic.make 1

  let next64 () =
    let n = Atomic.fetch_and_add id_counter 1 in
    let v =
      splitmix64 (Int64.add id_seed (Int64.mul (Int64.of_int n) 0x9E3779B97F4A7C15L))
    in
    if v = 0L then 1L else v

  let hex16 v = Printf.sprintf "%016Lx" v

  let gen_span_id () = hex16 (next64 ())

  let new_context () =
    { trace_id = hex16 (next64 ()) ^ hex16 (next64 ()); span_id = gen_span_id () }

  let child_context c = { c with span_id = gen_span_id () }

  let is_lower_hex s =
    String.for_all
      (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
      s

  let all_zero s = String.for_all (fun c -> c = '0') s

  (* W3C Trace Context level 1: [00-<32 hex>-<16 hex>-<2 hex>]; hex is
     lowercase only, all-zero ids are invalid, version [ff] is invalid,
     and version 00 admits no extra fields (later versions may append
     fields, which we ignore). *)
  let parse_traceparent s =
    match String.split_on_char '-' (String.trim s) with
    | version :: trace_id :: span_id :: flags :: rest
      when String.length version = 2
           && is_lower_hex version && version <> "ff"
           && String.length trace_id = 32
           && is_lower_hex trace_id
           && not (all_zero trace_id)
           && String.length span_id = 16
           && is_lower_hex span_id
           && not (all_zero span_id)
           && String.length flags = 2
           && is_lower_hex flags
           && (rest = [] || version <> "00") ->
        Some { trace_id; span_id }
    | _ -> None

  let format_traceparent c =
    Printf.sprintf "00-%s-%s-01" c.trace_id c.span_id

  (* Current context, keyed by (domain, systhread). Domain.DLS alone is
     wrong here: the server runs many systhreads on domain 0, and they
     would trample one shared slot. The table is only consulted while
     tracing or the flight recorder is active, so the off path stays one
     flag check. Entries are removed on scope exit, so the table stays
     bounded by live (domain, thread) pairs. *)
  let ctx_table : (int * int, context) Hashtbl.t = Hashtbl.create 64

  let ctx_mutex = Mutex.create ()

  let ctx_key () = ((Domain.self () :> int), Thread.id (Thread.self ()))

  let ambient () =
    Mutex.protect ctx_mutex (fun () -> Hashtbl.find_opt ctx_table (ctx_key ()))

  let current_context () = if active () then ambient () else None

  let set_current ctx =
    let k = ctx_key () in
    Mutex.protect ctx_mutex (fun () ->
        match ctx with
        | Some c -> Hashtbl.replace ctx_table k c
        | None -> Hashtbl.remove ctx_table k)

  let with_context ctx f =
    if not (active ()) then f ()
    else begin
      let prev = ambient () in
      set_current ctx;
      Fun.protect ~finally:(fun () -> set_current prev) f
    end

  (* ---------------------------------------------------------------- *)
  (* Events and per-domain buffers                                    *)

  type trace_ref = {
    tr_trace : string;
    tr_span : string;
    tr_parent : string option;
  }

  type event = {
    ev_name : string;
    ph : string;  (* "X" complete, "i" instant *)
    ts : int64;  (* monotonic ns *)
    dur : int64;  (* ns; 0 for instants *)
    tid : int;
    ev_attrs : (string * attr) list;
    ev_trace : trace_ref option;
  }

  (* Perfetto nests complete events per track (tid); in the server many
     systhreads share domain 0, so the track id folds the systhread id in
     to keep concurrently-served requests on separate tracks. *)
  let current_tid () =
    ((Domain.self () :> int) * 1000) + Thread.id (Thread.self ())

  (* One span ring per domain, each with its own lock: recording is
     contention-free under Numeric.Parallel fan-out (one domain, one
     ring), and safe when several server systhreads share domain 0's
     ring. The registry keeps rings of joined domains alive. The trace
     reads a ring from its cursor, the flight recorder its newest
     [flight_tail] events. A ring always keeps the flight tail; while
     tracing it also keeps up to [capacity] unread events, skipping the
     oldest unread one on overflow (a long-lived daemon must not grow
     without bound), and every unread event when uncapped. *)
  let flight_tail = 512

  let all_buffers : event Ring.t list ref = ref []

  let buffers_mutex = Mutex.create ()

  let buffers () = Mutex.protect buffers_mutex (fun () -> !all_buffers)

  let capacity : int option ref = ref None

  let set_buffer_capacity c = capacity := c

  let buffer_capacity () = !capacity

  let m_dropped = Metrics.counter "trace.dropped_events"

  let buffer_key =
    Domain.DLS.new_key (fun () ->
        let r = Ring.create flight_tail in
        Mutex.protect buffers_mutex (fun () -> all_buffers := r :: !all_buffers);
        r)

  let t0 = monotonic_ns ()

  type open_span = {
    sp_name : string;
    start : int64;
    mutable sp_attrs : (string * attr) list;
    sp_ctx : context option;
    sp_parent : string option;
  }

  type span = No_span | Span of open_span

  let recording = function No_span -> false | Span _ -> true

  let add_attr span key v =
    match span with
    | No_span -> ()
    | Span sp -> sp.sp_attrs <- (key, v) :: List.remove_assoc key sp.sp_attrs

  (* with tracing off nothing is unread: the ring keeps the flight tail *)
  let record ev =
    let unread = if !on then Option.value !capacity ~default:max_int else 0 in
    let dropped = Ring.push (Domain.DLS.get buffer_key) ~unread ev in
    if !on && dropped > 0 then Metrics.add m_dropped dropped

  let close sp =
    let now = monotonic_ns () in
    record
      {
        ev_name = sp.sp_name;
        ph = "X";
        ts = sp.start;
        dur = Int64.sub now sp.start;
        tid = current_tid ();
        ev_attrs = List.rev sp.sp_attrs;
        ev_trace =
          (match sp.sp_ctx with
          | Some c ->
              Some
                {
                  tr_trace = c.trace_id;
                  tr_span = c.span_id;
                  tr_parent = sp.sp_parent;
                }
          | None -> None);
      }

  let with_span ?ctx ?attrs name f =
    if not (active ()) then f No_span
    else begin
      let ambient = ambient () in
      (* The span's identity: an explicit [?ctx] (the caller minted the
         ids, e.g. to echo them in a response header), else a child of
         the ambient context, else no trace linkage (process-global
         spans, as in the bench drivers). *)
      let identity =
        match ctx with
        | Some _ as c -> c
        | None -> Option.map child_context ambient
      in
      let parent = Option.map (fun a -> a.span_id) ambient in
      (match identity with Some _ -> set_current identity | None -> ());
      let sp =
        {
          sp_name = name;
          start = monotonic_ns ();
          sp_attrs = (match attrs with Some l -> List.rev l | None -> []);
          sp_ctx = identity;
          sp_parent = parent;
        }
      in
      let restore () =
        match identity with Some _ -> set_current ambient | None -> ()
      in
      match f (Span sp) with
      | v ->
          close sp;
          restore ();
          v
      | exception e ->
          add_attr (Span sp) "exception" (Str (Printexc.to_string e));
          close sp;
          restore ();
          raise e
    end

  let instant ?(attrs = []) name =
    if active () then
      record
        {
          ev_name = name;
          ph = "i";
          ts = monotonic_ns ();
          dur = 0L;
          tid = current_tid ();
          ev_attrs = attrs;
          ev_trace =
            (match current_context () with
            | Some c ->
                Some
                  { tr_trace = c.trace_id; tr_span = c.span_id; tr_parent = None }
            | None -> None);
        }

  (* One Chrome trace event; timestamps and durations in µs. *)
  let event_json ev : Json.t =
    let us ns = Json.Num (Int64.to_float ns /. 1e3) in
    let args =
      List.map (fun (k, v) -> (k, json_of_attr v)) ev.ev_attrs
      @
      match ev.ev_trace with
      | None -> []
      | Some t ->
          ("trace_id", Json.Str t.tr_trace)
          :: ("span_id", Str t.tr_span)
          ::
          (match t.tr_parent with
          | Some p -> [ ("parent_span_id", Str p) ]
          | None -> [])
    in
    Obj
      (List.concat
         [
           [
             ("name", Json.Str ev.ev_name);
             ("cat", Str "arcade");
             ("ph", Str ev.ph);
             ("ts", us (Int64.sub ev.ts t0));
             ("dur", us ev.dur);
             ("pid", Num 1.);
             ("tid", Num (float_of_int ev.tid));
           ];
           (if ev.ph = "i" then [ ("s", Json.Str "t") ] else []);
           (if args = [] then [] else [ ("args", Json.Obj args) ]);
         ])

  (* One event per line: the incremental flush appends lines, the
     rewrite flush and the flight dump write a closed array of them. *)
  let add_event buf ev = Buffer.add_string buf (Json.to_string (event_json ev))

  let array_text events =
    let buf = Buffer.create 65536 in
    Buffer.add_string buf "[";
    List.iteri
      (fun i ev ->
        Buffer.add_string buf (if i = 0 then "\n" else ",\n");
        add_event buf ev)
      events;
    Buffer.add_string buf "\n]\n";
    Buffer.contents buf

  let gather_events () = List.concat_map Ring.unread (buffers ())

  type self_time = { name : string; self_ns : int64; total_ns : int64; count : int }

  (* Per track, complete events sorted by start (the longer first on a
     tie) nest as a stack: the parent of a span is the innermost open span
     that has not ended when it starts, and a span's self time is its
     duration minus its children's. Spans on another track (a pool
     worker's domain, another systhread) never subtract from a span, as
     in the Chrome trace view. *)
  let self_times () =
    let tracks = Hashtbl.create 8 in
    List.iter
      (fun ev ->
        if ev.ph = "X" then
          Hashtbl.replace tracks ev.tid
            (ev :: Option.value (Hashtbl.find_opt tracks ev.tid) ~default:[]))
      (gather_events ());
    let table = Hashtbl.create 32 in
    let entry name =
      match Hashtbl.find_opt table name with
      | Some e -> e
      | None ->
          let e = (ref 0L, ref 0L, ref 0) in
          Hashtbl.add table name e;
          e
    in
    let close (_, name, dur, children) =
      let self, _, _ = entry name in
      self := Int64.add !self (Int64.sub dur !children)
    in
    Hashtbl.iter
      (fun _ evs ->
        let evs =
          List.sort
            (fun a b ->
              match Int64.compare a.ts b.ts with 0 -> Int64.compare b.dur a.dur | c -> c)
            evs
        in
        (* open spans, innermost first: (end, name, duration, children) *)
        let stack = ref [] in
        List.iter
          (fun ev ->
            let rec pop () =
              match !stack with
              | ((stop, _, _, _) as top) :: rest when Int64.compare stop ev.ts <= 0 ->
                  close top;
                  stack := rest;
                  pop ()
              | _ -> ()
            in
            pop ();
            (match !stack with
            | (_, _, _, children) :: _ -> children := Int64.add !children ev.dur
            | [] -> ());
            let _, total, count = entry ev.ev_name in
            total := Int64.add !total ev.dur;
            incr count;
            stack := (Int64.add ev.ts ev.dur, ev.ev_name, ev.dur, ref 0L) :: !stack)
          evs;
        List.iter close !stack)
      tracks;
    Hashtbl.fold
      (fun name (self, total, count) acc ->
        { name; self_ns = !self; total_ns = !total; count = !count } :: acc)
      table []
    |> List.sort (fun a b ->
           match Int64.compare b.self_ns a.self_ns with
           | 0 -> String.compare a.name b.name
           | c -> c)

  let pp_self_times ppf rows =
    let seconds ns = Int64.to_float ns /. 1e9 in
    let all = List.fold_left (fun acc r -> Int64.add acc r.self_ns) 0L rows in
    Format.fprintf ppf "@[<v>%-32s %10s %7s %10s %8s" "span" "self_s" "share" "total_s"
      "count";
    List.iter
      (fun r ->
        Format.fprintf ppf "@,%-32s %10.4f %6.1f%% %10.4f %8d" r.name (seconds r.self_ns)
          (if all = 0L then 0. else 100. *. seconds r.self_ns /. seconds all)
          (seconds r.total_ns) r.count)
      rows;
    Format.fprintf ppf "@]@."

  let drain_events () = List.concat_map Ring.take (buffers ())

  let clear () = ignore (drain_events () : event list)

  let by_ts a b = Int64.compare a.ts b.ts

  let flush_rewrite () =
    match !output_path with
    | None -> ()
    | Some path ->
        write_file_atomic path
          (array_text (List.sort by_ts (gather_events ())))

  (* Incremental mode, for long-lived daemons: each flush appends the
     unread events to the output file and moves the rings' cursors past
     them (a flight dump still shows them). The file starts with "[" and
     never receives the closing "]" — the Chrome trace array format is
     explicitly forgiving of a missing terminator, and Perfetto loads
     such files. This keeps periodic flushing O(new events) instead of
     O(history). *)
  let incremental = ref false

  let set_incremental b = incremental := b

  let inc_path : string option ref = ref None

  let inc_written = ref 0

  let flush_incremental () =
    match !output_path with
    | None -> ()
    | Some path ->
        let fresh = !inc_path <> Some path in
        if fresh then inc_written := 0;
        let events = List.sort by_ts (drain_events ()) in
        if fresh || events <> [] then begin
          Out_channel.with_open_gen
            (if fresh then [ Open_wronly; Open_creat; Open_trunc ]
             else [ Open_wronly; Open_creat; Open_append ])
            0o644 path
            (fun oc ->
              let buf = Buffer.create 65536 in
              if fresh then Buffer.add_string buf "[";
              List.iter
                (fun ev ->
                  Buffer.add_string buf
                    (if !inc_written = 0 then "\n" else ",\n");
                  add_event buf ev;
                  incr inc_written)
                events;
              Buffer.add_string buf "\n";
              output_string oc (Buffer.contents buf);
              close_out oc);
          (* only a file that got its "[" is appended to *)
          inc_path := Some path
        end

  (* A trace that cannot be written never fails the caller: a daemon's
     housekeeping loop flushes, and must live on to flush again. *)
  let flush () =
    try if !incremental then flush_incremental () else flush_rewrite ()
    with Sys_error msg -> Printf.eprintf "warning: trace not flushed: %s\n%!" msg

  let flush_at_exit_armed = ref false

  (* [set_output (Some path)] starts a fresh recording: previously
     buffered events are discarded, so a None -> Some cycle cannot leak
     spans from the earlier recording into the new file (the old
     behavior silently rewrote that stale superset). *)
  let set_output path =
    output_path := path;
    (match path with
    | Some _ ->
        clear ();
        inc_path := None;
        inc_written := 0;
        on := true;
        if not !flush_at_exit_armed then begin
          flush_at_exit_armed := true;
          at_exit flush
        end
    | None -> on := false)
end

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                    *)

module Flight = struct
  (* The newest [Trace.flight_tail] events of every domain's span ring,
     always cheap enough to keep in a serving daemon: recording a span is
     one mutex-protected slot store, no I/O. On a 5xx, a solver that
     failed to converge, or SIGUSR1 they are dumped atomically as a
     Chrome trace, so the first failure of a long-running process is
     diagnosable after the fact. *)

  let enabled () = !Trace.flight_on

  let set_enabled b = Trace.flight_on := b

  let out_path = ref "arcade-flight.json"

  let set_path p = out_path := p

  let path () = !out_path

  let clear () = List.iter Ring.clear (Trace.buffers ())

  let m_dumps = Metrics.counter "flight.dumps"

  let dump ?(reason = "manual") () =
    let events =
      List.concat_map (fun r -> Ring.newest r Trace.flight_tail) (Trace.buffers ())
    in
    let marker =
      {
        Trace.ev_name = "flight.dump";
        ph = "i";
        ts = monotonic_ns ();
        dur = 0L;
        tid = Trace.current_tid ();
        ev_attrs = [ ("reason", Str reason) ];
        ev_trace = None;
      }
    in
    (* a dump that cannot be written never fails the request or the
       solve that asked for it *)
    match
      write_file_atomic !out_path
        (Trace.array_text (List.sort Trace.by_ts events @ [ marker ]))
    with
    | () -> Metrics.incr m_dumps
    | exception Sys_error msg ->
        Printf.eprintf "warning: flight dump not written: %s\n%!" msg

  let () =
    Metrics.nonconverged_hook :=
      fun () -> if enabled () then dump ~reason:"solver_nonconvergence" ()

  (* SIGUSR1 only sets a flag: dumping takes locks and allocates, which a
     signal handler interrupting a lock holder must not do. Something
     periodic (the server's housekeeping thread) calls [poll]. *)
  let requested = Atomic.make false

  let request_dump () = Atomic.set requested true

  let poll () = if Atomic.exchange requested false then dump ~reason:"sigusr1" ()

  let arm_sigusr1 () =
    Sys.set_signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> request_dump ()))
end

(* ------------------------------------------------------------------ *)
(* Environment wiring                                                 *)

let initialized = ref false

let init () =
  if not !initialized then begin
    initialized := true;
    (match Sys.getenv_opt "OBS_TRACE_BUFFER" with
    | None | Some "" -> ()
    | Some ("unbounded" | "0") -> Trace.set_buffer_capacity None
    | Some v -> (
        match int_of_string_opt (String.trim v) with
        | Some n when n >= 1 -> Trace.set_buffer_capacity (Some n)
        | Some _ | None ->
            Printf.eprintf
              "warning: ignoring OBS_TRACE_BUFFER=%S: expected a positive \
               integer, \"unbounded\" or \"0\"\n\
               %!"
              v));
    (match Sys.getenv_opt "OBS_TRACE" with
    | Some path when path <> "" && path <> "0" -> Trace.set_output (Some path)
    | Some _ | None -> ());
    (match Sys.getenv_opt "OBS_FLIGHT" with
    | None | Some "" | Some "0" -> ()
    | Some ("1" | "true" | "yes") -> Flight.set_enabled true
    | Some path ->
        Flight.set_path path;
        Flight.set_enabled true);
    match Sys.getenv_opt "OBS_METRICS" with
    | Some ("" | "0") | None -> ()
    | Some ("1" | "true" | "yes") ->
        Metrics.set_enabled true;
        at_exit (fun () ->
            Format.eprintf "%a@." Metrics.pp (Metrics.snapshot ()))
    | Some path ->
        Metrics.set_enabled true;
        at_exit (fun () ->
            write_file_atomic path
              (Json.to_string (Metrics.to_json (Metrics.snapshot ())) ^ "\n"))
  end
