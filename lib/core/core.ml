type report = {
  name : string;
  states : int;
  csc_signals : int option;
  area : int option;
  critical_cycle : int option;
  input_events : int option;
  equations : string;
  reductions : (Stg.label * Stg.label) list;
  verified : bool option;
      (* gate-level conformance of the implementation against its SG;
         None when no implementation was produced *)
  mapped_area : int option;
      (* area after technology mapping (Techmap); None when no
         implementation was produced *)
  shared_area : int option;
      (* post-sharing area of the hash-consed netlist (Netlist.area);
         at most [area], which prices each signal as an independent
         tree.  None when no implementation was produced.  Not part of
         the rendered table (kept byte-identical with earlier PRs). *)
  feasible : bool option;
      (* Some false: a max_cycle bound was given to the search and no
         configuration met it -- the report describes a bound-violating
         fallback.  None when no bound applied. *)
}

let opt_str = function Some v -> string_of_int v | None -> "-"

let verified_str = function
  | Some true -> "yes"
  | Some false -> "NO"
  | None -> "-"

let pp_report ppf r =
  Format.fprintf ppf
    "%-18s area=%-5s csc=%-3s cycle=%-4s inp=%-3s states=%-5d verified=%s%s"
    r.name (opt_str r.area) (opt_str r.csc_signals) (opt_str r.critical_cycle)
    (opt_str r.input_events) r.states (verified_str r.verified)
    (match r.feasible with
    | Some false -> " INFEASIBLE(cycle bound)"
    | Some true | None -> "")

let render_table ~title reports =
  let buf = Buffer.create 512 in
  Buffer.add_string buf title;
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Printf.sprintf "%-20s %8s %10s %9s %11s %8s %9s\n" "Circuit" "area"
       "# CSC sign." "cr.cycle" "inp.events" "states" "verified");
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%-20s %8s %10s %9s %11s %8d %9s\n" r.name
           (opt_str r.area)
           (opt_str r.csc_signals)
           (opt_str r.critical_cycle)
           (opt_str r.input_events)
           r.states (verified_str r.verified)))
    reports;
  Buffer.contents buf

(* [implement], also returning the implementation it built, or
   [Csc.resolve]'s message when CSC resolution failed. *)
let implement_impl ?delays ?(max_csc = 6) ?(style = `Complex_gate) ~name sg =
  Obs.span ~args:[ ("name", name) ] "core.implement" @@ fun () ->
  let states = Sg.n_states sg in
  match Csc.resolve ~max_signals:max_csc sg with
  | Error msg ->
      ( {
          name;
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
        },
        Error msg )
  | Ok resolution ->
      let impl = Logic.synthesize ~style resolution.Csc.sg in
      let area = Logic.area_opt impl in
      (* Default delay model (Tables 1-2): inputs 2; implemented signals 1,
         except wires/constants which cost nothing. *)
      let delay_fn =
        match delays with
        | Some d -> d resolution.Csc.stg
        | None ->
            let zero = Logic.zero_delay_signals impl in
            let stg' = resolution.Csc.stg in
            fun t ->
              if Stg.is_input_trans stg' t then 2
              else (
                match Stg.label stg' t with
                | Stg.Edge (sigid, _) when List.mem sigid zero -> 0
                | Stg.Edge _ | Stg.Dummy _ -> 1)
      in
      let cycle, inputs =
        match Timing.analyze ~delays:delay_fn resolution.Csc.stg with
        | Ok t -> (Some t.Timing.period, Some t.Timing.input_events_on_cycle)
        | Error _ -> (None, None)
      in
      (* Gate-level conformance: the decomposed netlist must excite exactly
         the events the (CSC-resolved) specification enables, everywhere. *)
      let verified =
        match Circuit.conforms (Circuit.of_impl impl) with
        | Ok () -> Some true
        | Error _ -> Some false
        | exception Invalid_argument _ -> Some false
      in
      ( {
          name;
          states;
          csc_signals = Some (List.length resolution.Csc.inserted);
          area;
          critical_cycle = cycle;
          input_events = inputs;
          equations = Logic.render impl;
          reductions = [];
          verified;
          mapped_area =
            (match Techmap.map_impl impl with
            | m -> Some m.Techmap.area
            | exception Invalid_argument _ -> None);
          shared_area =
            (match Netlist.of_impl impl with
            | nl -> Some (Netlist.area nl)
            | exception Invalid_argument _ -> None);
          feasible = None;
        },
        Ok impl )

let implement ?delays ?max_csc ?style ~name sg =
  fst (implement_impl ?delays ?max_csc ?style ~name sg)

(* A reduced SG no longer matches its backing STG; realize a new STG
   (the paper's step 5) before CSC insertion and timing. *)
let implement_realized ?delays ?max_csc ?style ~name reduced applied =
  if applied = [] then implement ?delays ?max_csc ?style ~name reduced
  else
    (* Step 5 of Fig. 4: realize an STG for the reduced SG — first with
       simple causality places, then by full region-based synthesis. *)
    let realized =
      match Reduction.realize ~applied reduced with
      | Ok stg' -> Ok stg'
      | Error _ -> (
          match Regions.synthesize reduced with
          | Ok stg' -> Ok stg'
          | Error e -> Error (Regions.error_to_string e))
    in
    match realized with
    | Ok stg' -> (
        match Sg.of_stg stg' with
        | Ok sg' ->
            let r = implement ?delays ?max_csc ?style ~name sg' in
            { r with reductions = applied }
        | Error _ -> assert false (* realization already validated the STG *))
    | Error msg ->
        {
          name;
          states = Sg.n_states reduced;
          csc_signals = None;
          area = None;
          critical_cycle = None;
          input_events = None;
          equations = "# STG realization failed: " ^ msg;
          reductions = applied;
          verified = None;
          mapped_area = None;
          shared_area = None;
          feasible = None;
        }

let implement_reduced ?delays ?max_csc ?style ~name sg script =
  let reduced, applied = Search.apply_script sg script in
  implement_realized ?delays ?max_csc ?style ~name reduced applied

let optimize ?pool ?delays ?max_csc ?style ?w ?size_frontier ?keep_conc
    ?perf_delays ?max_cycle ?area_mode ~name sg =
  Obs.span ~args:[ ("name", name) ] "core.optimize" @@ fun () ->
  let outcome =
    Search.optimize ?pool ?w ?size_frontier ?keep_conc ?perf_delays ?max_cycle
      ?area_mode sg
  in
  let best = outcome.Search.best in
  let r =
    implement_realized ?delays ?max_csc ?style ~name best.Search.sg
      best.Search.applied
  in
  {
    r with
    feasible =
      (match max_cycle with
      | Some _ -> Some outcome.Search.feasible
      | None -> None);
  }

let optimize_portfolio ?pool ?delays ?max_csc ?style ?size_frontier ?keep_conc
    ?perf_delays ?max_cycle ?on_improvement ~arms ~name sg =
  Obs.span ~args:[ ("name", name) ] "core.optimize_portfolio" @@ fun () ->
  let po =
    Search.portfolio ?pool ?size_frontier ?keep_conc ?perf_delays ?max_cycle
      ?on_improvement ~arms sg
  in
  let won = po.Search.arms.(po.Search.winner) in
  let best = won.Search.outcome.Search.best in
  let r =
    implement_realized ?delays ?max_csc ?style ~name best.Search.sg
      best.Search.applied
  in
  let r =
    {
      r with
      feasible =
        (match max_cycle with
        | Some _ -> Some won.Search.outcome.Search.feasible
        | None -> None);
    }
  in
  (r, po)

(* Batched multi-spec driver: one pool shared across every spec's search.
   Specs run in sequence (each search parallelizes internally), so the
   per-spec reports are exactly those of individual [optimize] calls. *)
let optimize_all ?pool ?delays ?max_csc ?style ?w ?size_frontier ?keep_conc
    ?perf_delays ?max_cycle ?area_mode ?arms ?on_improvement specs =
  Obs.span "core.optimize_all" @@ fun () ->
  let run pool =
    List.map
      (fun (name, sg) ->
        match arms with
        | Some (_ :: _ as arms) ->
            fst
              (optimize_portfolio ~pool ?delays ?max_csc ?style ?size_frontier
                 ?keep_conc ?perf_delays ?max_cycle ?on_improvement ~arms ~name
                 sg)
        | Some [] | None ->
            optimize ~pool ?delays ?max_csc ?style ?w ?size_frontier ?keep_conc
              ?perf_delays ?max_cycle ?area_mode ~name sg)
      specs
  in
  match pool with
  | Some p -> run p
  | None -> Pool.with_pool ~jobs:(Pool.default_jobs ()) run

let sg_exn ?budget stg =
  match Sg.of_stg ?budget stg with
  | Ok sg -> sg
  | Error e ->
      failwith (Format.asprintf "SG generation failed: %a" Sg.pp_error e)

(* Kept separate from [render_table] on purpose: reports must stay
   byte-identical with tracing on or off (the differential suite diffs
   them), so the observability summary is only ever appended by callers
   that asked for it. *)
let metrics_summary () = if Obs.enabled () then Some (Obs.summary ()) else None

let lab stg name =
  let found = ref None in
  Array.iter
    (fun l ->
      if !found = None && String.equal (Stg.label_name stg l) name then
        found := Some l)
    stg.Stg.labels;
  match !found with Some l -> l | None -> raise Not_found

(* ------------------------------------------------------------------ *)
(* CLI renderers: the bodies of `astg check|synth|reduce` as pure
   text-producing functions.  bin/astg prints these strings verbatim and
   the synthesis service (lib/serve) returns them as response payloads,
   so "serve output = CLI output" holds by construction — the
   differential suite in test/test_serve.ml then checks it end to end
   against the actual binary. *)

module Cli = struct
  type emit_backend = [ `Verilog | `Blif ]

  type synth_opts = { max_csc : int; emit : emit_backend list }

  type reduce_opts = {
    w : float;
    frontier : int;
    keeps : (string * string) list;
    print_stg : bool;
    area_mode : Search.area_mode;
    portfolio : float list;
    jobs : int;
  }

  let default_synth = { max_csc = 6; emit = [] }

  let default_reduce =
    {
      w = 0.8;
      frontier = 4;
      keeps = [];
      print_stg = false;
      area_mode = `Tree;
      portfolio = [];
      jobs = 1;
    }

  let sg_or_fail stg =
    match Sg.of_stg stg with
    | Ok sg -> Ok sg
    | Error e -> Error (Format.asprintf "%a" Sg.pp_error e)

  let check_text stg =
    let b = Buffer.create 512 in
    let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
    (match sg_or_fail stg with
    | Error msg -> pf "consistent:          no (%s)\n" msg
    | Ok sg ->
        pf "consistent:          yes\n";
        pf "states:              %d\n" (Sg.n_states sg);
        pf "deterministic:       %b\n" (Sg.is_deterministic sg);
        pf "commutative:         %b\n" (Sg.is_commutative sg);
        pf "output-persistent:   %b\n" (Sg.is_output_persistent sg);
        pf "speed-independent:   %b\n" (Sg.is_speed_independent sg);
        pf "CSC:                 %b (%d conflicting state pairs)\n"
          (Sg.has_csc sg)
          (List.length (Sg.csc_conflicts sg));
        pf "USC:                 %b\n" (Sg.usc_conflicts sg = []);
        let pairs = Sg.concurrent_pairs sg in
        pf "concurrent pairs:    %s\n"
          (String.concat ", "
             (List.map
                (fun (a, b) ->
                  Stg.label_name stg a ^ "||" ^ Stg.label_name stg b)
                pairs)));
    Buffer.contents b

  let synth_text opts stg =
    match sg_or_fail stg with
    | Error msg -> Error msg
    | Ok sg ->
        let b = Buffer.create 1024 in
        let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
        let r, impl =
          implement_impl ~max_csc:opts.max_csc ~name:"circuit" sg
        in
        Buffer.add_string b (Format.asprintf "%a@." pp_report r);
        if r.equations <> "" then pf "%s\n" r.equations;
        (match r.mapped_area with
        | Some a -> pf "mapped area: %d\n" a
        | None -> ());
        if opts.emit <> [] then begin
          match impl with
          | Ok impl ->
              let circuit = Circuit.of_impl impl in
              List.iter
                (fun backend ->
                  Buffer.add_string b
                    (match backend with
                    | `Verilog ->
                        Circuit.to_verilog ~module_name:"circuit" circuit
                    | `Blif -> Circuit.to_blif ~model_name:"circuit" circuit))
                opts.emit
          | Error msg -> pf "# no netlist: %s\n" msg
        end;
        Ok (Buffer.contents b)

  let area_name = function `Tree -> "tree" | `Shared -> "shared"

  let reduce_text opts stg =
    match sg_or_fail stg with
    | Error msg -> Error msg
    | Ok sg -> (
        match
          try
            Ok
              (List.map
                 (fun (a, b) ->
                   try (lab stg a, lab stg b)
                   with Not_found -> failwith "unknown event in --keep")
                 opts.keeps)
          with Failure msg -> Error msg
        with
        | Error msg -> Error msg
        | Ok keep_conc -> (
            let b = Buffer.create 1024 in
            let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
            let print_reductions best =
              pf "reductions applied: %s\n"
                (String.concat ", "
                   (List.map
                      (fun (x, y) ->
                        Printf.sprintf "%s after %s" (Stg.label_name stg x)
                          (Stg.label_name stg y))
                      best.Search.applied))
            in
            let print_reduced best =
              if not opts.print_stg then Ok (Buffer.contents b)
              else
                let realized =
                  match
                    Reduction.realize ~applied:best.Search.applied
                      best.Search.sg
                  with
                  | Ok stg' -> Ok stg'
                  | Error _ -> (
                      match Regions.synthesize best.Search.sg with
                      | Ok stg' -> Ok stg'
                      | Error e -> Error (Regions.error_to_string e))
                in
                match realized with
                | Ok stg' ->
                    Buffer.add_string b (Stg.Io.print stg');
                    Ok (Buffer.contents b)
                | Error msg -> Error ("realization failed: " ^ msg)
            in
            match opts.portfolio with
            | [] ->
                let outcome =
                  Search.optimize ~w:opts.w ~size_frontier:opts.frontier
                    ~keep_conc ~area_mode:opts.area_mode sg
                in
                let best = outcome.Search.best in
                pf
                  "explored %d configurations over %d levels; best cost %.1f\n"
                  outcome.Search.explored outcome.Search.levels
                  best.Search.cost;
                print_reductions best;
                print_reduced best
            | weights ->
                let arms =
                  List.map
                    (fun w ->
                      { Search.arm_w = w; arm_area = opts.area_mode })
                    weights
                in
                let run_portfolio pool =
                  Search.portfolio ?pool ~size_frontier:opts.frontier
                    ~keep_conc
                    ~on_improvement:(fun ~arm cfg ->
                      pf
                        "arm %d (w=%.2f, %s): cost %.1f, %d csc pairs, %d \
                         reductions\n"
                        arm
                        (List.nth arms arm).Search.arm_w
                        (area_name (List.nth arms arm).Search.arm_area)
                        cfg.Search.cost cfg.Search.csc_pairs
                        (List.length cfg.Search.applied))
                    ~arms sg
                in
                let po =
                  if opts.jobs > 1 then
                    Pool.with_pool ~jobs:opts.jobs (fun p ->
                        run_portfolio (Some p))
                  else run_portfolio None
                in
                Array.iteri
                  (fun i ao ->
                    let o = ao.Search.outcome in
                    pf
                      "arm %d (w=%.2f, %s): explored %d over %d levels; best \
                       cost %.1f (yardstick %.1f)%s\n"
                      i ao.Search.arm.Search.arm_w
                      (area_name ao.Search.arm.Search.arm_area)
                      o.Search.explored o.Search.levels
                      o.Search.best.Search.cost ao.Search.yardstick
                      (if o.Search.feasible then "" else " INFEASIBLE"))
                  po.Search.arms;
                let st = po.Search.stats in
                (* The search has no speculative lane, but the
                   "speculation:" clause stays, as a literal:
                   perfbench/expected/reduce.mmu.portfolio_j1.out pins
                   these bytes, and perfbench/catalog.ml parses this
                   format. *)
                pf
                  "cross-arm table: %d hits, %d misses; speculation: 0 \
                   published, 0 consumed\n"
                  st.Search.table_hits st.Search.table_misses;
                let won = po.Search.arms.(po.Search.winner) in
                pf "winner: arm %d (w=%.2f, %s)\n" po.Search.winner
                  won.Search.arm.Search.arm_w
                  (area_name won.Search.arm.Search.arm_area);
                let best = won.Search.outcome.Search.best in
                print_reductions best;
                print_reduced best))
end
