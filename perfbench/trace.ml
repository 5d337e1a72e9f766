(* The traced run: replays of the CLI bodies with a span around each layer
   entry point, and exclusive (self) time per span name from the recorded
   events.  The replays must print the same bytes as Core.Cli; the caller
   checks them against the catalog like any other output. *)

let span = Obs.span

let failed_report states : Core.report =
  {
    name = "circuit";
    states;
    csc_signals = None;
    area = None;
    critical_cycle = None;
    input_events = None;
    equations = "";
    reductions = [];
    verified = None;
    mapped_area = None;
    shared_area = None;
    feasible = None;
  }

(* Core.implement, one layer call at a time. *)
let implement ~max_csc sg : Core.report =
  span "core.implement" @@ fun () ->
  let r = failed_report (Sg.n_states sg) in
  match Csc.resolve ~max_signals:max_csc sg with
  | Error _ -> r
  | Ok res ->
      let impl =
        span "logic.synthesize" (fun () ->
            Logic.synthesize ~style:`Complex_gate res.Csc.sg)
      in
      let stg = res.Csc.stg in
      let zero = Logic.zero_delay_signals impl in
      let delays t =
        if Stg.is_input_trans stg t then 2
        else
          match Stg.label stg t with
          | Stg.Edge (s, _) when List.mem s zero -> 0
          | Stg.Edge _ | Stg.Dummy _ -> 1
      in
      let critical_cycle, input_events =
        match span "timing.analyze" (fun () -> Timing.analyze ~delays stg) with
        | Ok t -> (Some t.Timing.period, Some t.Timing.input_events_on_cycle)
        | Error _ -> (None, None)
      in
      let verified =
        span "circuit.conforms" (fun () ->
            match Circuit.conforms (Circuit.of_impl impl) with
            | Ok () -> Some true
            | Error _ -> Some false
            | exception Invalid_argument _ -> Some false)
      in
      let mapped_area =
        span "techmap.map_impl" (fun () ->
            match Techmap.map_impl impl with
            | m -> Some m.Techmap.area
            | exception Invalid_argument _ -> None)
      in
      let shared_area =
        span "netlist.of_impl" (fun () ->
            match Netlist.of_impl impl with
            | nl -> Some (Netlist.area nl)
            | exception Invalid_argument _ -> None)
      in
      {
        r with
        csc_signals = Some (List.length res.Csc.inserted);
        area = Logic.area_opt impl;
        critical_cycle;
        input_events;
        equations = Logic.render impl;
        verified;
        mapped_area;
        shared_area;
      }

let sg_or_error stg =
  match Sg.of_stg stg with
  | Ok sg -> Ok sg
  | Error e -> Error (Format.asprintf "%a" Sg.pp_error e)

(* Core.Cli.synth_text, including its second Csc.resolve under --emit. *)
let synth (o : Core.Cli.synth_opts) stg =
  Result.map
    (fun sg ->
      let b = Buffer.create 1024 in
      let r = implement ~max_csc:o.max_csc sg in
      Buffer.add_string b (Format.asprintf "%a@." Core.pp_report r);
      if r.equations <> "" then Printf.bprintf b "%s\n" r.equations;
      Option.iter (Printf.bprintf b "mapped area: %d\n") r.mapped_area;
      if o.emit <> [] then begin
        match Csc.resolve ~max_signals:o.max_csc sg with
        | Ok res ->
            let impl =
              span "logic.synthesize" (fun () -> Logic.synthesize res.Csc.sg)
            in
            let c = span "circuit.of_impl" (fun () -> Circuit.of_impl impl) in
            List.iter
              (fun backend ->
                Buffer.add_string b
                  (span "circuit.emit" (fun () ->
                       match backend with
                       | `Verilog -> Circuit.to_verilog ~module_name:"circuit" c
                       | `Blif -> Circuit.to_blif ~model_name:"circuit" c)))
              o.emit
        | Error msg -> Printf.bprintf b "# no netlist: %s\n" msg
      end;
      Buffer.contents b)
    (sg_or_error stg)

(* Step 5 of the flow: realize an STG for the reduced SG. *)
let realize (best : Search.config) =
  match
    span "reduction.realize" (fun () ->
        Reduction.realize ~applied:best.applied best.sg)
  with
  | Ok stg -> Ok stg
  | Error _ -> (
      match span "regions.synthesize" (fun () -> Regions.synthesize best.sg) with
      | Ok stg -> Ok stg
      | Error e -> Error (Regions.error_to_string e))

(* Core.Cli.reduce_text for a single search; a portfolio runs whole (its
   search spans come from the program). *)
let reduce (o : Core.Cli.reduce_opts) stg =
  if o.portfolio <> [] || o.keeps <> [] then Core.Cli.reduce_text o stg
  else
    Result.bind (sg_or_error stg) (fun sg ->
        let b = Buffer.create 1024 in
        let outcome =
          Search.optimize ~w:o.w ~size_frontier:o.frontier ~keep_conc:[]
            ~area_mode:o.area_mode sg
        in
        let best = outcome.best in
        Printf.bprintf b
          "explored %d configurations over %d levels; best cost %.1f\n"
          outcome.explored outcome.levels best.cost;
        Printf.bprintf b "reductions applied: %s\n"
          (String.concat ", "
             (List.map
                (fun (x, y) ->
                  Printf.sprintf "%s after %s" (Stg.label_name stg x)
                    (Stg.label_name stg y))
                best.applied));
        if not o.print_stg then Ok (Buffer.contents b)
        else
          match realize best with
          | Ok stg' ->
              Buffer.add_string b (span "stg.print" (fun () -> Stg.Io.print stg'));
              Ok (Buffer.contents b)
          | Error msg -> Error ("realization failed: " ^ msg))

let run (verb : Serve.Ops.op) stg =
  match verb with
  | Check -> Ok (span "sg.check" (fun () -> Core.Cli.check_text stg))
  | Synth o -> synth o stg
  | Reduce o -> reduce o stg

(* ---- self time ---- *)

type agg = { mutable calls : int; mutable total_ms : float; mutable self_ms : float }

(* Per span name: calls, inclusive and exclusive milliseconds, over every
   domain's events; plus the inclusive time of the outermost spans named
   [root]. *)
let self_times ~root =
  let tbl = Hashtbl.create 32 in
  let agg name =
    match Hashtbl.find_opt tbl name with
    | Some a -> a
    | None ->
        let a = { calls = 0; total_ms = 0.0; self_ms = 0.0 } in
        Hashtbl.add tbl name a;
        a
  in
  let stacks = Hashtbl.create 4 in
  let covered = ref 0.0 in
  List.iter
    (fun (tid, name, ph, ts) ->
      let stack =
        match Hashtbl.find_opt stacks tid with
        | Some s -> s
        | None ->
            let s = ref [] in
            Hashtbl.add stacks tid s;
            s
      in
      match (ph, !stack) with
      | 'B', st -> stack := (name, ts, ref 0.0) :: st
      | 'E', (n, t0, child) :: rest ->
          stack := rest;
          let dur = (ts -. t0) /. 1e3 in
          let a = agg n in
          a.calls <- a.calls + 1;
          a.total_ms <- a.total_ms +. dur;
          a.self_ms <- a.self_ms +. dur -. !child;
          (match rest with
          | (_, _, parent) :: _ -> parent := !parent +. dur
          | [] -> if n = root then covered := !covered +. dur)
      | _ -> ())
    (Obs.events ());
  (tbl, !covered)

(* The layer a span belongs to: the module its name starts with, with
   reduction and regions together as realization. *)
let layer_of name =
  match String.split_on_char '.' name with
  | ("reduction" | "regions") :: _ -> "realize"
  | l :: _ -> l
  | [] -> name

let layers =
  [
    "stg"; "sg"; "search"; "realize"; "csc"; "logic"; "netlist"; "techmap";
    "circuit"; "timing"; "serve"; "core";
  ]
