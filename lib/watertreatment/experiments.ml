open Core

type series = { label : string; points : (float * float) list }

type figure = {
  fig_id : string;
  title : string;
  xlabel : string;
  ylabel : string;
  series : series list;
}

type table = {
  table_id : string;
  title : string;
  header : string list;
  rows : string list list;
}

type artifact = Table of table | Figure of figure

(* ------------------------------------------------------------------ *)
(* Chain cache: one {!Measures.Session} per (line, config), shared by
   every domain; the disaster views and the reliability models' chains
   under their own keys.

   One mutex guards the tables. Lookups and inserts run under it, builds
   outside it, so a Line 1 FRF build never blocks a worker that only
   reads a cached chain. Every fan-out below is a {!Numeric.Parallel.map}
   (PAR_DOMAINS governs its width) over configs or lines: each item is an
   independent chain, so the items of one map touch disjoint sessions and
   keys, and the maps themselves run one after another. No two workers
   thus use one session or build one key at once; should a key still be
   built twice, the first insert wins and both callers get it. *)

let sessions : (string, Measures.Session.t) Hashtbl.t = Hashtbl.create 32

let chains : (string, Measures.t) Hashtbl.t = Hashtbl.create 32

(* Cost-figure pair cache: both cost curves of a strategy come out of one
   sweep ({!Measures.cost_curves}: two coefficient streams from the same
   initial distribution on one shared iterate column, dotted once per step
   with the cost vector), so whichever cost figure runs first pays the
   sweep and the sibling figure over the same time grid reads its half
   from the cache. *)
let cost_pairs : (string, (float * float) list * (float * float) list) Hashtbl.t =
  Hashtbl.create 8

let cache_mutex = Mutex.create ()

let memo tbl key build =
  match Mutex.protect cache_mutex (fun () -> Hashtbl.find_opt tbl key) with
  | Some v -> v
  | None ->
      let v = build () in
      Mutex.protect cache_mutex (fun () ->
          match Hashtbl.find_opt tbl key with
          | Some first -> first
          | None ->
              Hashtbl.add tbl key v;
              v)

let clear_cache () =
  Mutex.protect cache_mutex (fun () ->
      Hashtbl.reset sessions;
      Hashtbl.reset chains;
      Hashtbl.reset cost_pairs)

let cache_key line config disaster =
  Printf.sprintf "%s/%s/%s" (Facility.line_name line)
    (Facility.config_name config)
    (match disaster with None -> "-" | Some failed -> String.concat "," failed)

let session line config =
  memo sessions (cache_key line config None) @@ fun () ->
  Measures.Session.create (Facility.line_model line config)

(* One state space per (line, config): a disaster entry is a view of the
   all-up chain (Facility.after_disaster), sharing its chain, rate
   operator and derived caches, so the figures rebuild nothing. *)
let measures ?disaster line config =
  let full () = Measures.Session.(chain (session line config) Full) in
  match disaster with
  | None -> full ()
  | Some failed ->
      memo chains (cache_key line config disaster) @@ fun () ->
      Facility.after_disaster (full ()) ~failed

(* Tables 1 and 2 read only group-invariant quantities (the full chain's
   size, counted by orbits, and the full-service availability), so they
   run on the symmetric chains. *)
let table_measures line config =
  Measures.Session.(chain (session line config) Symmetric)

let cost_curve_pair ~disaster line config ~times =
  let key =
    cache_key line config disaster
    ^ "/"
    ^ String.concat "," (List.map (Printf.sprintf "%h") times)
  in
  memo cost_pairs key @@ fun () ->
  Measures.cost_curves (measures ?disaster line config) ~times

(* a reliability key has one '/' at most, a chain key at least two *)
let reliability_measures line =
  memo chains (Facility.line_name line) @@ fun () ->
  Measures.analyze (Facility.reliability_model line)

(* ------------------------------------------------------------------ *)
(* Helpers *)

(* [points] samples from 0 to [upto], both ends included *)
let grid fig_id upto points =
  if points < 2 then
    invalid_arg
      (Printf.sprintf "Experiments.%s: points must be at least 2 (got %d)"
         fig_id points);
  List.init points (fun i -> upto *. float_of_int i /. float_of_int (points - 1))

let lines = [ Facility.Line1; Facility.Line2 ]

(* Span helpers: one span per artifact and one nested span per strategy/
   series. Series spans run inside pool workers, so each lands on its
   own domain's trace track; the artifact span sits on the calling
   domain's track and brackets the whole fan-out. *)
let artifact_span id f =
  Obs.Trace.with_span ("experiment." ^ id) (fun _ -> f ())

let series_span id label f =
  Obs.Trace.with_span (id ^ "/" ^ label) (fun span ->
      if Obs.Trace.recording span then begin
        Obs.Trace.add_attr span "artifact" (Obs.Str id);
        Obs.Trace.add_attr span "strategy" (Obs.Str label)
      end;
      f ())

(* ------------------------------------------------------------------ *)
(* Tables *)

let table1 () =
  artifact_span "table1" @@ fun () ->
  let rows =
    Numeric.Parallel.map
      (fun config ->
        series_span "table1" (Facility.config_name config) @@ fun () ->
        Facility.config_name config
        :: List.concat_map
             (fun line ->
               let states, transitions =
                 (Measures.built (table_measures line config)).Semantics.full_size
               in
               [ string_of_int states; string_of_int transitions ])
             lines)
      Facility.paper_configs
  in
  {
    table_id = "table1";
    title = "Table 1: State space for repair strategies";
    header = [ "Strategy"; "L1 states"; "L1 trans."; "L2 states"; "L2 trans." ];
    rows;
  }

let table2 () =
  artifact_span "table2" @@ fun () ->
  let rows =
    Numeric.Parallel.map
      (fun config ->
        series_span "table2" (Facility.config_name config) @@ fun () ->
        let avail line = Measures.availability (table_measures line config) in
        let a1 = avail Facility.Line1 and a2 = avail Facility.Line2 in
        [
          Facility.config_name config;
          Printf.sprintf "%.7f" a1;
          Printf.sprintf "%.7f" a2;
          Printf.sprintf "%.7f" (Measures.combined_availability [ a1; a2 ]);
        ])
      Facility.paper_configs
  in
  {
    table_id = "table2";
    title = "Table 2: Availability for repair strategies";
    header = [ "Strategy"; "line 1"; "line 2"; "Combined" ];
    rows;
  }

(* ------------------------------------------------------------------ *)
(* Figures *)

let default_points = 25

let fig3 ?(points = default_points) () =
  artifact_span "fig3" @@ fun () ->
  let times = grid "fig3" 1000. points in
  let series =
    Numeric.Parallel.map
      (fun line ->
        series_span "fig3" (Facility.line_name line) @@ fun () ->
        let m = reliability_measures line in
        {
          label = "Reliability " ^ Facility.line_name line;
          points = Measures.reliability_curve m ~times;
        })
      lines
  in
  {
    fig_id = "fig3";
    title = "Figure 3: Reliability over time";
    xlabel = "t in hours";
    ylabel = "Probability";
    series;
  }

(* Line 1, Disaster 1 (all pumps failed), survivability to a service level *)
let survivability_fig ~fig_id ~title ~line ~disaster ~configs ~level ~horizon ~points =
  artifact_span fig_id @@ fun () ->
  let times = grid fig_id horizon points in
  let series =
    Numeric.Parallel.map
      (fun config ->
        series_span fig_id (Facility.config_name config) @@ fun () ->
        let m = measures ?disaster line config in
        {
          label = Facility.config_name config;
          points = Measures.survivability_curve m ~service_level:level ~times;
        })
      configs
  in
  { fig_id; title; xlabel = "t in hours"; ylabel = "Probability"; series }

let cost_fig ~fig_id ~title ~kind ~line ~disaster ~configs ~horizon ~points =
  artifact_span fig_id @@ fun () ->
  let times = grid fig_id horizon points in
  let series =
    Numeric.Parallel.map
      (fun config ->
        series_span fig_id (Facility.config_name config) @@ fun () ->
        let inst, acc = cost_curve_pair ~disaster line config ~times in
        let points =
          match kind with `Instantaneous -> inst | `Accumulated -> acc
        in
        { label = Facility.config_name config; points })
      configs
  in
  {
    fig_id;
    title;
    xlabel = "t in hours";
    ylabel =
      (match kind with
      | `Instantaneous -> "Instantaneous cost"
      | `Accumulated -> "Cumulative cost");
    series;
  }

let d1_configs = [ Facility.ded; Facility.frf 1; Facility.frf 2 ]

let d2_surv_configs =
  [ Facility.ded; Facility.fff 1; Facility.fff 2; Facility.frf 1; Facility.frf 2 ]

let d2_cost_configs = [ Facility.fff 1; Facility.fff 2; Facility.frf 1; Facility.frf 2 ]

let disaster1_line1 = Some (Facility.disaster1 Facility.Line1)

let disaster2_line2 = Some Facility.disaster2

let third = 1. /. 3.

let two_thirds = 2. /. 3.

let fig4 ?(points = default_points) () =
  survivability_fig ~fig_id:"fig4"
    ~title:"Figure 4: Survivability Line 1, Disaster 1, X1 (service >= 1/3)"
    ~line:Facility.Line1 ~disaster:disaster1_line1 ~configs:d1_configs ~level:third
    ~horizon:4.5 ~points

let fig5 ?(points = default_points) () =
  survivability_fig ~fig_id:"fig5"
    ~title:"Figure 5: Survivability Line 1, Disaster 1, X2 (service >= 2/3)"
    ~line:Facility.Line1 ~disaster:disaster1_line1 ~configs:d1_configs
    ~level:two_thirds ~horizon:4.5 ~points

let fig6 ?(points = default_points) () =
  cost_fig ~fig_id:"fig6" ~title:"Figure 6: Instantaneous cost Line 1, Disaster 1"
    ~kind:`Instantaneous ~line:Facility.Line1 ~disaster:disaster1_line1
    ~configs:d1_configs ~horizon:4.5 ~points

let fig7 ?(points = default_points) () =
  cost_fig ~fig_id:"fig7" ~title:"Figure 7: Accumulated cost Line 1, Disaster 1"
    ~kind:`Accumulated ~line:Facility.Line1 ~disaster:disaster1_line1
    ~configs:d1_configs ~horizon:10. ~points

let fig8 ?(points = default_points) () =
  survivability_fig ~fig_id:"fig8"
    ~title:"Figure 8: Survivability Line 2, Disaster 2, X1 (service >= 1/3)"
    ~line:Facility.Line2 ~disaster:disaster2_line2 ~configs:d2_surv_configs
    ~level:third ~horizon:100. ~points

let fig9 ?(points = default_points) () =
  survivability_fig ~fig_id:"fig9"
    ~title:"Figure 9: Survivability Line 2, Disaster 2, X3 (service >= 2/3)"
    ~line:Facility.Line2 ~disaster:disaster2_line2 ~configs:d2_surv_configs
    ~level:two_thirds ~horizon:100. ~points

let fig10 ?(points = default_points) () =
  cost_fig ~fig_id:"fig10" ~title:"Figure 10: Instantaneous cost Line 2, Disaster 2"
    ~kind:`Instantaneous ~line:Facility.Line2 ~disaster:disaster2_line2
    ~configs:d2_cost_configs ~horizon:50. ~points

let fig11 ?(points = default_points) () =
  cost_fig ~fig_id:"fig11" ~title:"Figure 11: Accumulated cost Line 2, Disaster 2"
    ~kind:`Accumulated ~line:Facility.Line2 ~disaster:disaster2_line2
    ~configs:d2_cost_configs ~horizon:50. ~points

let generators :
    (string * (?points:int -> unit -> artifact)) list =
  [
    ("table1", fun ?points () -> ignore points; Table (table1 ()));
    ("table2", fun ?points () -> ignore points; Table (table2 ()));
    ("fig3", fun ?points () -> Figure (fig3 ?points ()));
    ("fig4", fun ?points () -> Figure (fig4 ?points ()));
    ("fig5", fun ?points () -> Figure (fig5 ?points ()));
    ("fig6", fun ?points () -> Figure (fig6 ?points ()));
    ("fig7", fun ?points () -> Figure (fig7 ?points ()));
    ("fig8", fun ?points () -> Figure (fig8 ?points ()));
    ("fig9", fun ?points () -> Figure (fig9 ?points ()));
    ("fig10", fun ?points () -> Figure (fig10 ?points ()));
    ("fig11", fun ?points () -> Figure (fig11 ?points ()));
  ]

let ids = List.map fst generators

let by_id id = List.assoc_opt id generators

(* ------------------------------------------------------------------ *)
(* Artifact metadata (bench JSON observability) *)

let artifact_points = function
  | Table _ -> 0
  | Figure f ->
      List.fold_left (fun acc s -> acc + List.length s.points) 0 f.series

let state_spaces id =
  let states m = Ctmc.Chain.states (Measures.built m).Semantics.chain in
  let label line config =
    Printf.sprintf "%s/%s" (Facility.line_name line) (Facility.config_name config)
  in
  let repairable ~disaster line configs =
    List.map
      (fun config -> (label line config, states (measures ?disaster line config)))
      configs
  in
  match id with
  | "table1" | "table2" ->
      List.concat_map
        (fun line ->
          List.map
            (fun config -> (label line config, states (table_measures line config)))
            Facility.paper_configs)
        lines
  | "fig3" ->
      List.map
        (fun line ->
          ( Facility.line_name line ^ "/reliability",
            states (reliability_measures line) ))
        lines
  | "fig4" | "fig5" | "fig6" | "fig7" ->
      repairable ~disaster:disaster1_line1 Facility.Line1 d1_configs
  | "fig8" | "fig9" ->
      repairable ~disaster:disaster2_line2 Facility.Line2 d2_surv_configs
  | "fig10" | "fig11" ->
      repairable ~disaster:disaster2_line2 Facility.Line2 d2_cost_configs
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Rendering *)

let render_table ppf (t : table) =
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun w row -> max w (String.length (List.nth row i)))
          (String.length h) t.rows)
      t.header
  in
  let pad s w = s ^ String.make (w - String.length s) ' ' in
  Format.fprintf ppf "%s@." t.title;
  let print_row cells =
    Format.fprintf ppf "  %s@."
      (String.concat "  " (List.map2 pad cells widths))
  in
  print_row t.header;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row t.rows

let render_figure ppf (f : figure) =
  Format.fprintf ppf "# %s@.# x: %s, y: %s@." f.title f.xlabel f.ylabel;
  List.iter
    (fun s ->
      Format.fprintf ppf "@.# series: %s@." s.label;
      List.iter (fun (x, y) -> Format.fprintf ppf "%-12g %.9f@." x y) s.points)
    f.series

let render_artifact ppf = function
  | Table t -> render_table ppf t
  | Figure f -> render_figure ppf f

let figure_to_csv (f : figure) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "time";
  List.iter
    (fun s ->
      Buffer.add_char buf ',';
      Buffer.add_string buf s.label)
    f.series;
  Buffer.add_char buf '\n';
  (match f.series with
  | [] -> ()
  | first :: _ ->
      List.iteri
        (fun i (x, _) ->
          Buffer.add_string buf (Printf.sprintf "%g" x);
          List.iter
            (fun s ->
              let _, y = List.nth s.points i in
              Buffer.add_string buf (Printf.sprintf ",%.9f" y))
            f.series;
          Buffer.add_char buf '\n')
        first.points);
  Buffer.contents buf
