(* Perf-regression oracle: compare two bench entries (BENCH_HISTORY
   JSONL lines or BENCH_JSON files) and fail past a wall-time threshold.

   Usage:
     arcade_bench_diff HISTORY.jsonl            compare its last two entries
     arcade_bench_diff BASELINE CURRENT         compare two entries/files

   A file holding several JSONL lines contributes its *last* entry (the
   most recent run); a plain JSON object (a BENCH_JSON dump or a
   baseline committed to the repo) contributes itself. Compared series:
   per-artifact wall seconds, the kernel's batched/unbatched sweep
   seconds, and total solver iterations (informational). Exit status: 0
   within threshold, 1 on regression, 2 on usage or parse errors. *)

open Cmdliner

let fail fmt = Printf.ksprintf (fun msg -> raise (Failure msg)) fmt

(* ------------------------------------------------------------------ *)
(* Entry loading                                                      *)

let read_file path =
  let ic = try open_in_bin path with Sys_error msg -> fail "%s" msg in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* all JSON objects in the file, in order: one for a plain JSON file,
   one per non-blank line for JSONL *)
let entries_of_file path =
  let text = read_file path in
  match Json.parse (String.trim text) with
  | entry -> [ entry ]
  | exception Json.Parse_error _ ->
      let lines =
        List.filter
          (fun l -> String.trim l <> "")
          (String.split_on_char '\n' text)
      in
      let parsed =
        List.map
          (fun l ->
            try Json.parse l
            with Json.Parse_error msg ->
              fail "%s: bad JSONL line: %s" path msg)
          lines
      in
      if parsed = [] then fail "%s: no entries" path else parsed

let last xs = List.nth xs (List.length xs - 1)

let num_field key json =
  match Json.member key json with Some (Json.Num x) -> Some x | _ -> None

let rev_of entry =
  Option.value (Json.string_field "rev" entry) ~default:"?"

(* [(label, seconds)] series of one entry: artifacts + kernel sweeps *)
let series_of entry =
  let artifacts =
    match Json.list_field "artifacts" entry with
    | Some items ->
        List.filter_map
          (fun item ->
            match (Json.string_field "id" item, num_field "seconds" item) with
            | Some id, Some s -> Some ("artifact/" ^ id, s)
            | _ -> None)
          items
    | None -> []
  in
  let kernel =
    match Json.member "kernel" entry with
    | Some k ->
        List.filter_map
          (fun key ->
            Option.map (fun s -> ("kernel/" ^ key, s)) (num_field key k))
          [ "batched_seconds"; "unbatched_seconds" ]
    | None -> []
  in
  artifacts @ kernel

(* ------------------------------------------------------------------ *)

let diff threshold min_seconds baseline current =
  try
    let base_entry, cur_entry, base_label, cur_label =
      match current with
      | Some cur ->
          ( last (entries_of_file baseline),
            last (entries_of_file cur),
            baseline,
            cur )
      | None -> (
          match entries_of_file baseline with
          | ([] | [ _ ]) ->
              fail "%s: need at least two entries to compare" baseline
          | entries ->
              let n = List.length entries in
              ( List.nth entries (n - 2),
                last entries,
                Printf.sprintf "%s#%d" baseline (n - 1),
                Printf.sprintf "%s#%d" baseline n ))
    in
    Printf.printf "baseline %s (rev %s)\ncurrent  %s (rev %s)\n" base_label
      (rev_of base_entry) cur_label (rev_of cur_entry);
    let base = series_of base_entry and cur = series_of cur_entry in
    if base = [] then fail "%s: no comparable series" base_label;
    let regressions = ref 0 and compared = ref 0 in
    List.iter
      (fun (label, b) ->
        match List.assoc_opt label cur with
        | None -> Printf.printf "  %-42s %9.4fs -> (absent)\n" label b
        | Some c ->
            incr compared;
            let ratio = if b > 0. then c /. b else 1. in
            let verdict =
              (* sub-noise-floor series are reported but never gated: a
                 few-ms artifact can triple on a loaded runner without
                 meaning anything *)
              if b < min_seconds && c < min_seconds then "negligible"
              else if ratio > 1. +. threshold then begin
                incr regressions;
                "REGRESSION"
              end
              else if ratio < 1. -. threshold then "improved"
              else "ok"
            in
            Printf.printf "  %-42s %9.4fs -> %9.4fs  %+6.1f%%  %s\n" label b c
              ((ratio -. 1.) *. 100.)
              verdict)
      base;
    (match
       (num_field "solver_iterations" base_entry,
        num_field "solver_iterations" cur_entry)
     with
    | Some b, Some c when b > 0. || c > 0. ->
        Printf.printf "  %-42s %9.0f  -> %9.0f   (informational)\n"
          "solver_iterations" b c
    | _ -> ());
    if !compared = 0 then fail "no common series between the two entries";
    if !regressions > 0 then begin
      Printf.printf "%d of %d series regressed past %+.0f%%\n" !regressions
        !compared (threshold *. 100.);
      1
    end
    else begin
      Printf.printf "all %d series within %+.0f%%\n" !compared
        (threshold *. 100.);
      0
    end
  with Failure msg ->
    Printf.eprintf "arcade_bench_diff: %s\n" msg;
    2

let threshold =
  Arg.(
    value
    & opt float 0.25
    & info [ "t"; "threshold" ] ~docv:"FRAC"
        ~doc:
          "Relative wall-time regression tolerance (0.25 = fail when a \
           series got more than 25% slower).")

let min_seconds =
  Arg.(
    value
    & opt float 0.05
    & info [ "min-seconds" ] ~docv:"SECS"
        ~doc:
          "Noise floor: series where both sides are below this are shown \
           but never count as regressions.")

let baseline =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"BASELINE"
        ~doc:
          "Baseline entry: a BENCH_HISTORY JSONL (last entry wins; with no \
           CURRENT, its last two entries are compared) or a BENCH_JSON file.")

let current =
  Arg.(
    value
    & pos 1 (some file) None
    & info [] ~docv:"CURRENT" ~doc:"Current entry (same formats).")

let cmd =
  let doc = "compare two bench runs and fail on wall-time regressions" in
  Cmd.v
    (Cmd.info "arcade_bench_diff" ~doc)
    Term.(const diff $ threshold $ min_seconds $ baseline $ current)

let () = exit (Cmd.eval' cmd)
