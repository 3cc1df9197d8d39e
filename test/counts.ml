(* Work counts read from the Obs.Metrics registry. [start ()] switches
   metrics on and returns a reader of how far each [analysis.<name>]
   counter has grown since the call. The registry is process-wide, and
   each test binary runs its cases one at a time, so the growth is the
   work of the calls made in between (view sessions included). *)

let counter name = Obs.Metrics.counter ("analysis." ^ name)

let start () =
  Obs.Metrics.set_enabled true;
  let base = (Obs.Metrics.snapshot ()).Obs.Metrics.counters in
  fun name ->
    Obs.Metrics.counter_value (counter name)
    - Option.value ~default:0 (List.assoc_opt ("analysis." ^ name) base)
