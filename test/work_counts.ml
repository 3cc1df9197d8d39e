(* The work behind every paper artifact, as exact counts.

   Generates table1..fig11 in paper order at 3 curve points in one cold
   process and prints, per artifact, one line "<artifact> <counter>
   <delta>" for every registry counter the artifact moved: state-space
   builds and states, mixture passes, steps and columns, solver
   iterations. The counts are independent of the host and of the domain
   count, so test/dune diffs them against work_counts.expected on one and
   on two domains: an extra sweep, solve or build fails `dune runtest`
   naming the artifact and the counter. After a deliberate change to the
   work, accept the new counts with `dune promote`. *)

module E = Watertreatment.Experiments

let counters () = (Obs.Metrics.snapshot ()).Obs.Metrics.counters

let () =
  Obs.Metrics.set_enabled true;
  ignore
    (List.fold_left
       (fun before id ->
         let generate = Option.get (E.by_id id) in
         ignore (generate ~points:3 () : E.artifact);
         let after = counters () in
         List.iter
           (fun (name, v) ->
             let v0 = Option.value (List.assoc_opt name before) ~default:0 in
             if v <> v0 then Printf.printf "%s %s %d\n" id name (v - v0))
           after;
         after)
       (counters ()) E.ids)
