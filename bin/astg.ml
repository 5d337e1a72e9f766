(* astg — command-line front end to the synthesis flow.

   Commands:
     show     parse a .g file and print the STG and its state graph
     check    implementability report (consistency, SI, CSC)
     synth    resolve CSC, synthesize logic, report area and critical cycle
     reduce   run the concurrency-reduction search and print the result
     expand   compile a CSP-like specification and refine it (2/4-phase) *)

open Cmdliner

let read_stg path =
  try Ok (Stg.Io.parse_file path) with
  | Stg.Io.Parse_error msg -> Error (`Msg ("parse error: " ^ msg))
  | Sys_error msg -> Error (`Msg msg)

let stg_arg =
  let parse path = read_stg path in
  let print ppf _ = Format.pp_print_string ppf "<stg>" in
  Arg.conv (parse, print)

let file_pos =
  Arg.(
    required
    & pos 0 (some stg_arg) None
    & info [] ~docv:"FILE.g" ~doc:"STG in astg (.g) format.")

let sg_or_fail stg =
  match Sg.of_stg stg with
  | Ok sg -> Ok sg
  | Error e -> Error (Format.asprintf "%a" Sg.pp_error e)

(* ---- observability options (shared by check/synth/reduce) ---- *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record tracing spans during the run and write Chrome \
           trace_event JSON to $(docv); load it at ui.perfetto.dev or \
           about://tracing.  (Set ASYNC_REPRO_TRACE=1 in the environment \
           to also capture work done before option parsing, such as the \
           .g parse.)")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Record phase counters and spans during the run and print the \
           observability summary afterwards.")

(* Run [f] with recording on when asked, and emit the requested artifacts
   afterwards — also on failure, so a trace of a crashing run survives. *)
let with_obs trace metrics f =
  if trace <> None || metrics then Obs.set_enabled true;
  let finish () =
    (match Core.metrics_summary () with
    | Some s when metrics -> print_string s
    | Some _ | None -> ());
    match trace with
    | Some file ->
        Obs.write_chrome_trace file;
        Printf.eprintf "wrote %s\n" file
    | None -> ()
  in
  match f () with
  | r ->
      finish ();
      r
  | exception e ->
      finish ();
      raise e

(* ---- show ---- *)

let show_cmd =
  let run stg =
    Format.printf "%a@." Stg.pp stg;
    match sg_or_fail stg with
    | Ok sg ->
        Format.printf "%a@." Sg.pp_full sg;
        `Ok ()
    | Error msg -> `Error (false, msg)
  in
  Cmd.v (Cmd.info "show" ~doc:"Print an STG and its state graph.")
    Term.(ret (const run $ file_pos))

(* ---- check ---- *)

let check_cmd =
  let run stg trace metrics =
    with_obs trace metrics @@ fun () ->
    print_string (Core.Cli.check_text stg);
    `Ok ()
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Check implementability conditions of an STG.")
    Term.(ret (const run $ file_pos $ trace_arg $ metrics_arg))

(* ---- synth ---- *)

let synth_cmd =
  let run stg max_csc verilog emit trace metrics =
    with_obs trace metrics @@ fun () ->
    (* --verilog is kept as shorthand for --emit verilog *)
    let emit = if verilog && emit = [] then [ `Verilog ] else emit in
    match Core.Cli.synth_text { Core.Cli.max_csc; emit } stg with
    | Ok text ->
        print_string text;
        `Ok ()
    | Error msg -> `Error (false, msg)
  in
  let max_csc =
    Arg.(
      value & opt int 6
      & info [ "max-csc" ] ~docv:"N"
          ~doc:"Maximum number of state signals to insert.")
  in
  let verilog =
    Arg.(
      value & flag
      & info [ "verilog" ]
          ~doc:"Also emit the decomposed netlist as Verilog (same as \
                $(b,--emit verilog)).")
  in
  let emit =
    let backend =
      Arg.enum [ ("verilog", `Verilog); ("blif", `Blif) ]
    in
    Arg.(
      value & opt_all backend []
      & info [ "emit" ] ~docv:"BACKEND"
          ~doc:
            "Also emit the shared netlist in the given format: \
             $(b,verilog) or $(b,blif).  Repeatable; both backends walk \
             the same hash-consed graph with the same net names.")
  in
  Cmd.v
    (Cmd.info "synth"
       ~doc:"Resolve CSC and synthesize logic, area and critical cycle.")
    Term.(ret (const run $ file_pos $ max_csc $ verilog $ emit $ trace_arg
          $ metrics_arg))

(* ---- reduce ---- *)

let reduce_cmd =
  let run stg w frontier keeps print_stg area_mode portfolio jobs trace
      metrics =
    with_obs trace metrics @@ fun () ->
    let keep_pairs =
      try
        Ok
          (List.map
             (fun spec ->
               match String.split_on_char ',' spec with
               | [ a; b ] -> (a, b)
               | _ -> failwith ("bad --keep syntax: " ^ spec))
             keeps)
      with Failure msg -> Error msg
    in
    let weights =
      match portfolio with
      | None -> Ok []
      | Some spec -> (
          match
            try
              Ok
                (List.map
                   (fun s -> float_of_string (String.trim s))
                   (String.split_on_char ',' spec))
            with _ -> Error ()
          with
          | Error () ->
              Error
                ("bad --portfolio syntax (expected \"w1,w2,...\"): " ^ spec)
          | Ok [] -> Error "--portfolio needs at least one weight"
          | Ok ws -> Ok ws)
    in
    match (keep_pairs, weights) with
    | Error msg, _ | _, Error msg -> `Error (false, msg)
    | Ok keeps, Ok portfolio -> (
        let opts =
          {
            Core.Cli.w;
            frontier;
            keeps;
            print_stg;
            area_mode;
            portfolio;
            jobs;
          }
        in
        match Core.Cli.reduce_text opts stg with
        | Ok text ->
            print_string text;
            `Ok ()
        | Error msg -> `Error (false, msg))
  in
  let w =
    Arg.(
      value & opt float 0.8
      & info [ "w" ] ~docv:"W"
          ~doc:
            "Cost trade-off: 1.0 optimizes logic complexity, 0.0 optimizes \
             CSC conflicts.")
  in
  let frontier =
    Arg.(
      value & opt int 4
      & info [ "frontier" ] ~docv:"N" ~doc:"Beam width of the search.")
  in
  let keeps =
    Arg.(
      value & opt_all string []
      & info [ "keep" ] ~docv:"EV1,EV2"
          ~doc:
            "Protect the concurrency of a pair of events (e.g. \
             $(b,--keep li-,ri-)).  Repeatable.")
  in
  let print_stg =
    Arg.(
      value & flag
      & info [ "stg" ] ~doc:"Also print the realized reduced STG.")
  in
  let area_mode =
    let mode = Arg.enum [ ("tree", `Tree); ("shared", `Shared) ] in
    Arg.(
      value & opt mode `Tree
      & info [ "area-model" ] ~docv:"MODEL"
          ~doc:
            "Logic-cost objective for candidate pricing: $(b,tree) \
             (literal count, each signal an independent tree — the \
             historical default) or $(b,shared) (post-sharing area of \
             the hash-consed netlist, matching what technology mapping \
             pays).")
  in
  let portfolio =
    Arg.(
      value & opt (some string) None
      & info [ "portfolio" ] ~docv:"W1,W2,..."
          ~doc:
            "Run a portfolio search: one search arm per comma-separated \
             weight (all priced with the selected $(b,--area-model)), \
             sharing a cross-arm signature table.  Prints each arm's \
             anytime improvements, a per-arm summary and the winner.  \
             $(b,--w) is ignored.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Pool size for the portfolio search (1 = sequential).  Every \
             arm's outcome is byte-identical at any job count.")
  in
  Cmd.v
    (Cmd.info "reduce" ~doc:"Optimize an STG by concurrency reduction.")
    Term.(ret (const run $ file_pos $ w $ frontier $ keeps $ print_stg
          $ area_mode $ portfolio $ jobs $ trace_arg $ metrics_arg))

(* ---- fuzz ---- *)

let fuzz_cmd =
  let run count seed classes corpus report jobs max_signals =
    let classes =
      match
        List.map
          (fun c -> (c, Gen.class_of_name c))
          (List.concat_map (String.split_on_char ',') classes)
      with
      | [] -> Ok Gen.all_classes
      | l -> (
          match List.find_opt (fun (_, r) -> r = None) l with
          | Some (bad, _) ->
              Error (Printf.sprintf "unknown generator class %S (use sp,fc,ac)" bad)
          | None -> Ok (List.filter_map snd l))
    in
    match classes with
    | Error msg -> `Error (false, msg)
    | Ok classes ->
        let r = Fuzz.run ~jobs ~classes ~max_signals ~corpus ~count ~seed () in
        print_string (Fuzz.report_summary r);
        (match report with
        | None -> ()
        | Some file ->
            let oc = open_out file in
            output_string oc (Fuzz.report_to_json r);
            output_char oc '\n';
            close_out oc;
            Printf.eprintf "wrote %s\n" file);
        if r.Fuzz.r_failures = [] then `Ok ()
        else
          `Error
            ( false,
              Printf.sprintf
                "%d failing spec(s); minimized repros under %s/"
                (List.length r.Fuzz.r_failures) corpus )
  in
  let count =
    Arg.(
      value & opt int 100
      & info [ "count" ] ~docv:"N" ~doc:"Number of random specs to run.")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"S"
          ~doc:
            "Base seed.  Case $(i,i) uses seed S+i; the same seed \
             reproduces the same corpus and report bytes.")
  in
  let classes =
    Arg.(
      value & opt_all string []
      & info [ "classes" ] ~docv:"CLS"
          ~doc:
            "Generator classes to draw from, comma-separated: $(b,sp) \
             (series-parallel marked graphs), $(b,fc) (free-choice \
             guarded selections), $(b,ac) (asymmetric-choice arbiters).  \
             Default: all three, round-robin.")
  in
  let corpus =
    Arg.(
      value & opt string "fuzz-corpus"
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Directory for minimized .g repro files (created if needed).")
  in
  let report =
    Arg.(
      value & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:"Write the JSON triage report to $(docv).")
  in
  let jobs =
    Arg.(
      value & opt int 2
      & info [ "jobs" ] ~docv:"J"
          ~doc:"Pool size for the pooled search arms (>= 1).")
  in
  let max_signals =
    Arg.(
      value & opt int 6
      & info [ "max-signals" ] ~docv:"K"
          ~doc:"Size bound handed to the generators.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing of the full flow: random free-choice, \
          asymmetric-choice and series-parallel specs through parse, SG, \
          the reduction search under every evaluation mode (sequential \
          and pooled, byte-identity enforced), realization and \
          verification, with crash/divergence triage, shrinking and a \
          deterministic JSON report.")
    Term.(
      ret
        (const run $ count $ seed $ classes $ corpus $ report $ jobs
       $ max_signals))

(* ---- dot ---- *)

let dot_cmd =
  let run stg sg_mode =
    if not sg_mode then begin
      print_string (Stg.Io.to_dot stg);
      `Ok ()
    end
    else
      match sg_or_fail stg with
      | Ok sg ->
          print_string (Sg.to_dot sg);
          `Ok ()
      | Error msg -> `Error (false, msg)
  in
  let sg_mode =
    Arg.(
      value & flag
      & info [ "sg" ] ~doc:"Render the state graph instead of the STG.")
  in
  Cmd.v
    (Cmd.info "dot"
       ~doc:"Render an STG (or with --sg its state graph) as Graphviz dot.")
    Term.(ret (const run $ file_pos $ sg_mode))

(* ---- contract ---- *)

let contract_cmd =
  let run stg =
    let stg', removed = Contract.all_dummies stg in
    List.iter (Printf.eprintf "# contracted %s\n") removed;
    print_string (Stg.Io.print stg');
    `Ok ()
  in
  Cmd.v
    (Cmd.info "contract"
       ~doc:
         "Contract all removable dummy transitions (verified by weak \
          bisimulation) and print the resulting STG.")
    Term.(ret (const run $ file_pos))

(* ---- serve / client ---- *)

let addr_args =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen on (or connect to) a Unix domain socket at $(docv).")
  in
  let port =
    Arg.(
      value
      & opt (some int) None
      & info [ "port" ] ~docv:"PORT"
          ~doc:
            "Listen on (or connect to) TCP $(docv) on the IPv4 loopback.  \
             Port 0 picks an ephemeral port; the server prints the actual \
             one on startup.")
  in
  let combine socket port =
    match (socket, port) with
    | Some path, None -> Ok (`Unix path)
    | None, Some p -> Ok (`Tcp p)
    | None, None -> Error "one of --socket or --port is required"
    | Some _, Some _ -> Error "--socket and --port are mutually exclusive"
  in
  Term.(const combine $ socket $ port)

let serve_cmd =
  let run addr workers cache_dir mem_entries queue_bound max_inflight
      timeout_ms max_request_bytes =
    match addr with
    | Error msg -> `Error (false, msg)
    | Ok addr -> (
        match
          Serve.Server.start ?workers ~mem_entries ?cache_dir ~queue_bound
            ?max_inflight ~timeout_ms ~max_request_bytes addr
        with
        | exception Unix.Unix_error (e, fn, arg) ->
            `Error
              ( false,
                Printf.sprintf "cannot listen: %s(%s): %s" fn arg
                  (Unix.error_message e) )
        | srv ->
            (match Serve.Server.addr srv with
            | `Unix path -> Printf.eprintf "astg serve: listening on %s\n%!" path
            | `Tcp port ->
                Printf.eprintf "astg serve: listening on 127.0.0.1:%d\n%!" port);
            let stop = ref false in
            let handler _ = stop := true in
            (try Sys.set_signal Sys.sigint (Sys.Signal_handle handler)
             with _ -> ());
            (try Sys.set_signal Sys.sigterm (Sys.Signal_handle handler)
             with _ -> ());
            while not !stop do
              Unix.sleepf 0.1
            done;
            Printf.eprintf "astg serve: shutting down\n%!";
            Serve.Server.stop srv;
            `Ok ())
  in
  let workers =
    Arg.(
      value
      & opt (some int) None
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Concurrent compute slots (default: the pool's recommended \
             parallelism).  Scheduling stays fair FIFO per client at any \
             worker count.")
  in
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Persist results content-addressed under $(docv) (created if \
             needed); a restarted server serves them back without \
             recomputing.")
  in
  let mem_entries =
    Arg.(
      value & opt int 256
      & info [ "mem-entries" ] ~docv:"N"
          ~doc:"In-memory LRU capacity, in cached responses.")
  in
  let queue_bound =
    Arg.(
      value & opt int 64
      & info [ "queue-bound" ] ~docv:"N"
          ~doc:
            "Load shedding: requests arriving while $(docv) are already \
             queued get an immediate typed $(b,busy) response.")
  in
  let max_inflight =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:"Cap on concurrently computing requests (default: workers).")
  in
  let timeout_ms =
    Arg.(
      value & opt int 0
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:
            "Per-request deadline; an overdue request gets a typed \
             $(b,timeout) response (the late result still lands in the \
             cache).  0 disables.")
  in
  let max_request_bytes =
    Arg.(
      value
      & opt int (8 * 1024 * 1024)
      & info [ "max-request-bytes" ] ~docv:"N"
          ~doc:
            "Reject request lines longer than $(docv) with a typed \
             $(b,oversized) response, without tearing down the connection.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the synthesis service: newline-delimited JSON requests \
          (check/synth/reduce/metrics) over a Unix or TCP socket, with \
          fair FIFO-per-client scheduling over the work pool and a \
          two-tier content-addressed result cache.  Responses carry the \
          exact bytes the equivalent CLI invocation prints.")
    Term.(
      ret
        (const run $ addr_args $ workers $ cache_dir $ mem_entries
       $ queue_bound $ max_inflight $ timeout_ms $ max_request_bytes))

let client_cmd =
  let run addr op file options_json id pretty =
    match addr with
    | Error msg -> `Error (false, msg)
    | Ok addr -> (
        let request =
          match op with
          | "metrics" ->
              Ok (Serve.Json.Obj [ ("id", Serve.Json.Str id); ("op", Serve.Json.Str "metrics") ])
          | "check" | "synth" | "reduce" -> (
              match file with
              | None -> Error ("op " ^ op ^ " needs FILE.g")
              | Some path -> (
                  match
                    try Ok (In_channel.with_open_bin path In_channel.input_all)
                    with Sys_error msg -> Error msg
                  with
                  | Error msg -> Error msg
                  | Ok spec -> (
                      let base =
                        [
                          ("id", Serve.Json.Str id);
                          ("op", Serve.Json.Str op);
                          ("spec", Serve.Json.Str spec);
                        ]
                      in
                      match options_json with
                      | None -> Ok (Serve.Json.Obj base)
                      | Some s -> (
                          match Serve.Json.parse s with
                          | o -> Ok (Serve.Json.Obj (base @ [ ("options", o) ]))
                          | exception Serve.Json.Parse_error msg ->
                              Error ("bad --options JSON: " ^ msg)))))
          | other -> Error ("unknown op " ^ other ^ " (check/synth/reduce/metrics)")
        in
        match request with
        | Error msg -> `Error (false, msg)
        | Ok req -> (
            match Serve.Client.connect addr with
            | exception Unix.Unix_error (e, fn, arg) ->
                `Error
                  ( false,
                    Printf.sprintf "cannot connect: %s(%s): %s" fn arg
                      (Unix.error_message e) )
            | c ->
                let resp = Serve.Client.request c (Serve.Json.to_string req) in
                Serve.Client.close c;
                let parsed =
                  match Serve.Json.parse resp with
                  | j -> Some j
                  | exception Serve.Json.Parse_error _ -> None
                in
                (* --raw/pretty: by default unwrap a successful payload's
                   "output" so the bytes land on stdout exactly as the
                   CLI would print them *)
                let unwrapped =
                  if pretty then None
                  else
                    match parsed with
                    | Some j -> (
                        match
                          ( Serve.Json.member "ok" j,
                            Option.bind (Serve.Json.member "result" j)
                              (Serve.Json.member "output") )
                        with
                        | Some (Serve.Json.Bool true), Some (Serve.Json.Str out)
                          ->
                            Some out
                        | _ -> None)
                    | None -> None
                in
                (match unwrapped with
                | Some out -> print_string out
                | None -> print_endline resp);
                let failed =
                  match parsed with
                  | Some j -> Serve.Json.member "ok" j = Some (Serve.Json.Bool false)
                  | None -> false
                in
                if failed then `Error (false, "request failed") else `Ok ()))
  in
  let op =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"OP" ~doc:"check, synth, reduce or metrics.")
  in
  let file =
    Arg.(
      value
      & pos 1 (some string) None
      & info [] ~docv:"FILE.g" ~doc:"STG in astg (.g) format (compute ops).")
  in
  let options_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "options" ] ~docv:"JSON"
          ~doc:
            "Request options as a JSON object, e.g. \
             '{\"w\":0.5,\"portfolio\":[0.3,0.7]}'.")
  in
  let id =
    Arg.(
      value & opt string "cli"
      & info [ "id" ] ~docv:"ID" ~doc:"Request id echoed by the server.")
  in
  let pretty =
    Arg.(
      value & flag
      & info [ "raw" ]
          ~doc:
            "Print the full JSON response line instead of unwrapping a \
             successful response's output payload.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "One-shot client for $(b,astg serve): send a single request and \
          print the response.  By default a successful compute response \
          is unwrapped to its output bytes (identical to the equivalent \
          CLI invocation); $(b,--raw) prints the JSON envelope.")
    Term.(
      ret (const run $ addr_args $ op $ file $ options_json $ id $ pretty))

(* ---- expand ---- *)

let expand_cmd =
  let run text phase protocol inputs internals =
    match Expansion.Parse.proc text with
    | exception Expansion.Parse.Error msg -> `Error (false, msg)
    | proc -> (
        let spec = Expansion.spec ~inputs ~internals proc in
        let stg =
          match phase with
          | 2 -> Expansion.two_phase spec
          | 4 ->
              Expansion.four_phase
                ~constraints:(if protocol then `Protocol else `None)
                spec
          | n ->
              invalid_arg (Printf.sprintf "unsupported phase %d (use 2 or 4)" n)
        in
        print_string (Stg.Io.print stg);
        match Sg.of_stg stg with
        | Ok sg ->
            Printf.printf "# states=%d speed-independent=%b csc-conflicts=%d\n"
              (Sg.n_states sg)
              (Sg.is_speed_independent sg)
              (List.length (Sg.csc_conflicts sg));
            `Ok ()
        | Error e ->
            Printf.printf "# SG generation failed: %s\n"
              (Format.asprintf "%a" Sg.pp_error e);
            `Ok ())
  in
  let text =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SPEC"
          ~doc:"CSP-like process, e.g. 'loop { l?; r!; r?; l! }'.")
  in
  let phase =
    Arg.(
      value & opt int 4
      & info [ "phase" ] ~docv:"N" ~doc:"Refinement: 2 or 4 (default 4).")
  in
  let protocol =
    Arg.(
      value
      & opt bool true
      & info [ "protocol" ] ~docv:"BOOL"
          ~doc:"Enforce 4-phase channel interleaving (default true).")
  in
  let inputs =
    Arg.(
      value & opt_all string []
      & info [ "input" ] ~docv:"SIG"
          ~doc:"Declare an explicit signal as an input.  Repeatable.")
  in
  let internals =
    Arg.(
      value & opt_all string []
      & info [ "internal" ] ~docv:"SIG"
          ~doc:"Declare an explicit signal as internal.  Repeatable.")
  in
  Cmd.v
    (Cmd.info "expand"
       ~doc:"Handshake-expand a CSP-like specification into an STG.")
    Term.(ret (const run $ text $ phase $ protocol $ inputs $ internals))

let () =
  let info =
    Cmd.info "astg" ~version:"1.0.0"
      ~doc:
        "Synthesis and optimization of partially specified asynchronous \
         systems (DAC 1999 reproduction)."
  in
  exit (Cmd.eval (Cmd.group info
          [
            show_cmd;
            check_cmd;
            synth_cmd;
            reduce_cmd;
            expand_cmd;
            dot_cmd;
            contract_cmd;
            fuzz_cmd;
            serve_cmd;
            client_cmd;
          ]))
