(* The Arcade analysis daemon: serve XML models + CSL/CSRL queries over
   HTTP with a model-hash session cache and per-session answer memos. *)

open Cmdliner

let serve host port domains max_sessions =
  Obs.init ();
  (* daemon-appropriate tracing defaults: bounded buffers (unless the
     operator chose a bound — or unbounded retention — explicitly) and
     incremental flushing, so a long OBS_TRACE run cannot grow the heap
     without limit; kill -USR1 dumps the flight ring *)
  if Sys.getenv_opt "OBS_TRACE" <> None
     && Sys.getenv_opt "OBS_TRACE_BUFFER" = None
  then Obs.Trace.set_buffer_capacity (Some 65536);
  Obs.Trace.set_incremental true;
  Obs.Flight.arm_sigusr1 ();
  let dft = Server.default_config () in
  let config =
    {
      Server.host = Option.value host ~default:dft.Server.host;
      port = Option.value port ~default:dft.Server.port;
      domains = Option.value domains ~default:dft.Server.domains;
      max_sessions = Option.value max_sessions ~default:dft.Server.max_sessions;
    }
  in
  let srv = Server.start ~config () in
  Printf.printf "arcade_serve: listening on %s:%d (%d domains, %d sessions)\n%!"
    config.Server.host (Server.port srv) config.Server.domains
    config.Server.max_sessions;
  Server.wait srv;
  Printf.printf "arcade_serve: stopped\n%!"

let host =
  Arg.(value & opt (some string) None & info [ "host" ] ~docv:"ADDR"
         ~doc:"Bind address (default $(b,SERVER_HOST) or 127.0.0.1).")

let port =
  Arg.(value & opt (some int) None & info [ "p"; "port" ] ~docv:"PORT"
         ~doc:"Listen port; 0 picks an ephemeral one (default $(b,SERVER_PORT) or 8641).")

let domains =
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N"
         ~doc:"Worker-pool size for distinct-model fan-out.")

let max_sessions =
  Arg.(value & opt (some int) None & info [ "max-sessions" ] ~docv:"N"
         ~doc:"LRU capacity of the model-hash session cache.")

let cmd =
  let doc = "persistent Arcade analysis daemon (HTTP + JSON)" in
  let man =
    [
      `S Manpage.s_description;
      `P "Serve Arcade XML models and CSL/CSRL queries from long-lived \
          analysis sessions: models are keyed by content hash, so repeated \
          requests share transposed rate matrices, Fox-Glynn weights \
          and steady-state vectors, and a query a session has answered \
          before is answered from its memo; the time-bounded queries of \
          one request ride shared blocked sweeps.";
      `P "Endpoints: POST /analyze, GET /health, GET /stats, GET /metrics, \
          POST /shutdown.";
    ]
  in
  Cmd.v
    (Cmd.info "arcade_serve" ~doc ~man)
    Term.(const serve $ host $ port $ domains $ max_sessions)

let () = exit (Cmd.eval cmd)
