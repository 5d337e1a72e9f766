(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md for the experiment index) and then times the
   computational kernel of each with Bechamel.

   Usage:  main.exe [section ...] [--no-timing] [--jobs N]
   Sections: fig1 fig2 table1 fig6 fig8 frontier par table2 mmu (default: all)
   Extras:  --backend            print the pool backend and exit
            --json-pr10 [FILE]   serve cold-vs-warm request latency over a
                                 Unix socket + live metrics snapshot
                                 (full runs gate warm >= 10x cold)
            --json [FILE]        PR 1 hot-path kernel timings
            --json-pr2 [FILE]    sequential-vs-parallel search timings
            --json-pr3 [FILE]    SG-representation time/alloc/live profile
            --json-pr4 [FILE]    eval-mode timings + cache counters
            --json-pr5 [FILE]    observability overhead + counter snapshots
            --json-pr6 [FILE]    support tracking + streamed scheduling:
                                 search timings vs the PR 5 baseline,
                                 delta-reuse/support/steal counters and a
                                 cross-mode byte-identity check
            --json-pr8 [FILE]    hash-consed netlist IR: tree vs shared vs
                                 mapped areas per example, cons-table hit
                                 rates, emission + simulation timings
            --check-overhead     with --json-pr5: fail if disabled-mode
                                 search_optimize_lr exceeds 1.02x the PR 4
                                 recorded baseline
            --smoke [FILE]       one-pass --json-pr3 (CI trajectory check),
                                 or one-pass mode of --json-pr4/-pr5/-pr6
            --trace FILE         record spans while running the selected
                                 sections; write Chrome trace_event JSON
                                 (load at ui.perfetto.dev)
            --metrics            print the observability summary at exit
            --jobs N             pool width for `parallel` / --json-pr2 *)

let section_header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let paper_row name (area, csc, cycle, inp) =
  Printf.printf "%-20s %8d %10d %9d %11d   (paper)\n" name area csc cycle inp

let our_row (r : Core.report) =
  let s = function Some v -> string_of_int v | None -> "-" in
  Printf.printf "%-20s %8s %10s %9s %11s   (ours; states=%d)\n" r.Core.name
    (s r.Core.area) (s r.Core.csc_signals) (s r.Core.critical_cycle)
    (s r.Core.input_events) r.Core.states

let columns () =
  Printf.printf "%-20s %8s %10s %9s %11s\n" "Circuit" "area" "# CSC"
    "cr.cycle" "inp.events"

(* ------------------------------------------------------------------ *)
(* Fig. 1: simple controller                                           *)

let fig1 () =
  section_header "Fig. 1: simple asynchronous controller (STG + SG)";
  let stg = Specs.fig1 () in
  print_string (Stg.Io.print stg);
  let sg = Core.sg_exn stg in
  Format.printf "%a@." Sg.pp_full sg;
  Printf.printf "states: %d (paper: 5)\n" (Sg.n_states sg);
  Printf.printf "speed-independent: %b (paper: yes)\n"
    (Sg.is_speed_independent sg);
  Printf.printf "CSC holds: %b (paper: no, codes 11* and 1*1 conflict)\n"
    (Sg.has_csc sg);
  let pairs = Sg.concurrent_pairs sg in
  Printf.printf "concurrent pairs: %s (paper: Req+ || Ack-)\n"
    (String.concat ", "
       (List.map
          (fun (a, b) -> Stg.label_name stg a ^ " || " ^ Stg.label_name stg b)
          pairs))

(* ------------------------------------------------------------------ *)
(* Fig. 2: LR-process specification and handshake expansions           *)

let fig2 () =
  section_header "Fig. 2: LR-process handshake expansion";
  let raw = Expansion.compile_raw Specs.lr in
  Printf.printf "-- channel-level STG (Fig. 2.c/d):\n%s" (Stg.Io.print raw);
  let unconstrained = Expansion.four_phase ~constraints:`None Specs.lr in
  Printf.printf
    "-- max-concurrency expansion ignoring interface constraints (Fig. 2.e):\n\
     %s"
    (Stg.Io.print unconstrained);
  let sg_unc = Core.sg_exn unconstrained in
  Printf.printf
    "   states=%d csc-conflict pairs=%d -- not a valid LR handshake\n"
    (Sg.n_states sg_unc)
    (List.length (Sg.csc_conflicts sg_unc));
  let protocol = Expansion.four_phase Specs.lr in
  Printf.printf "-- valid expansion with interface constraints (Fig. 2.f):\n%s"
    (Stg.Io.print protocol);
  let sg = Core.sg_exn protocol in
  Printf.printf "   states=%d speed-independent=%b csc-conflict pairs=%d\n"
    (Sg.n_states sg)
    (Sg.is_speed_independent sg)
    (List.length (Sg.csc_conflicts sg))

(* ------------------------------------------------------------------ *)
(* Table 1: LR-process implementations                                 *)

let table1_rows () =
  let stg = Expansion.four_phase Specs.lr in
  let sg = Core.sg_exn stg in
  let pairwise (name, pair) =
    Core.optimize ~name ~keep_conc:[ pair ] ~w:0.8 ~size_frontier:6 sg
  in
  [
    Core.implement_reduced ~name:"Q-module (hand)" sg
      (Specs.lr_qmodule_script stg);
    Core.implement_reduced ~name:"Full reduction" sg
      (Specs.lr_full_reduction_script stg);
    Core.implement ~name:"Max.concurrency" sg;
  ]
  @ List.map pairwise (Specs.lr_pairwise_rows stg)

let table1 () =
  section_header "Table 1: area/performance trade-off for the LR-process";
  columns ();
  let paper =
    [
      ("Q-module (hand)", (104, 1, 14, 4));
      ("Full reduction", (0, 0, 8, 4));
      ("Max.concurrency", (168, 2, 13, 3));
      ("li || ri", (144, 0, 9, 3));
      ("li || ro", (160, 1, 11, 3));
      ("lo || ri", (136, 1, 11, 3));
      ("lo || ro", (232, 2, 16, 3));
    ]
  in
  let rows = table1_rows () in
  List.iter2
    (fun r (name, p) ->
      paper_row name p;
      our_row r)
    rows paper;
  print_newline ();
  List.iter
    (fun (r : Core.report) ->
      if r.Core.equations <> "" then
        Printf.printf "-- %s:\n%s\n" r.Core.name r.Core.equations)
    rows

(* ------------------------------------------------------------------ *)
(* Fig. 5/6: phase refinements                                         *)

let fig6 () =
  section_header
    "Fig. 6: 2-phase and 4-phase refinement (channel + partial + full signal)";
  let raw = Expansion.compile_raw Specs.fig6 in
  Printf.printf "-- original specification (Fig. 6.a):\n%s" (Stg.Io.print raw);
  let two = Expansion.two_phase Specs.fig6 in
  Printf.printf "-- 2-phase refinement (Fig. 6.b):\n%s" (Stg.Io.print two);
  let sg2 = Core.sg_exn two in
  Printf.printf "   states=%d consistent=yes\n" (Sg.n_states sg2);
  let four = Expansion.four_phase Specs.fig6 in
  Printf.printf "-- 4-phase refinement (Fig. 6.c):\n%s" (Stg.Io.print four);
  let sg4 = Core.sg_exn four in
  Printf.printf "   states=%d speed-independent=%b\n" (Sg.n_states sg4)
    (Sg.is_speed_independent sg4);
  (* The Fig. 5.a/b partial-signal structure, exercised directly. *)
  let partial_stg =
    Stg.Io.parse
      {|
.inputs go
.outputs b
.graph
go+ b+
b+ go-
go- go+
.marking { <go-,go+> }
.end
|}
  in
  let expanded = Expansion.expand_partial_stg partial_stg ~partial:[ "b" ] in
  Printf.printf "-- Fig. 5.a/b: partial signal b expanded with rdy/rtz:\n%s"
    (Stg.Io.print expanded);
  Printf.printf "   states=%d\n" (Sg.n_states (Core.sg_exn expanded))

(* ------------------------------------------------------------------ *)
(* Fig. 8: forward reduction on a fragment with choice                 *)

let fig8 () =
  section_header "Fig. 8: FwdRed(a,b) on an SG fragment with choice";
  let stg = Specs.fig8 () in
  let sg = Core.sg_exn stg in
  let show sg tag =
    Printf.printf "%s: states=%d, concurrency: %s\n" tag (Sg.n_states sg)
      (String.concat ", "
         (List.map
            (fun (x, y) ->
              Stg.label_name stg x ^ "||" ^ Stg.label_name stg y)
            (Sg.concurrent_pairs sg)))
  in
  show sg "before";
  let a = Core.lab stg "a~" and b = Core.lab stg "b~" in
  match Reduction.fwd_red sg ~a ~b with
  | Ok reduced ->
      show reduced "after FwdRed(a,b)";
      let gone pair =
        if not (Sg.concurrent reduced (fst pair) (snd pair)) then "gone"
        else "still there"
      in
      let d = Core.lab stg "d~" and e = Core.lab stg "e~" in
      Printf.printf
        "paper: reducing (a,b) also kills (a,d) and (a,e): a||b %s, a||d %s, \
         a||e %s\n"
        (gone (a, b)) (gone (a, d)) (gone (a, e))
  | Error r ->
      Format.printf "unexpected invalid reduction: %a@."
        (Reduction.pp_invalid stg) r

(* ------------------------------------------------------------------ *)
(* Fig. 9: frontier search behaviour                                   *)

let frontier () =
  section_header "Fig. 9: frontier (beam) search width exploration";
  let stg = Expansion.four_phase Specs.lr in
  let sg = Core.sg_exn stg in
  Printf.printf "%-14s %10s %10s %8s\n" "size_frontier" "explored" "best cost"
    "levels";
  let widths = [ 1; 2; 4; 8; 16 ] in
  List.iter
    (fun width ->
      let o = Search.optimize ~size_frontier:width ~w:0.8 sg in
      Printf.printf "%-14d %10d %10.1f %8d\n" width o.Search.explored
        o.Search.best.Search.cost o.Search.levels)
    widths

(* ------------------------------------------------------------------ *)
(* Fig. 10 / PAR component case study                                  *)

let par_rows () =
  let stg = Expansion.four_phase Specs.par in
  let sg = Core.sg_exn stg in
  let delays s t = Timing.par_delays s t in
  let l = Core.lab stg in
  let manual =
    (* Tangram-style PAR: acknowledge only after both sub-handshakes have
       fully returned to zero. *)
    Core.implement_reduced ~delays ~name:"manual (Tangram)" sg
      [ (l "ao+", l "bi-"); (l "ao+", l "ci-") ]
  in
  let automatic =
    Core.optimize ~delays ~name:"automatic" ~w:0.9 ~size_frontier:20
      ~keep_conc:[ (l "bi+", l "ci+") ]
      sg
  in
  let maxconc = Core.implement ~delays ~max_csc:8 ~name:"max.concurrency" sg in
  (manual, automatic, maxconc)

let par () =
  section_header "Fig. 10: the PAR component (Tangram)";
  let raw = Expansion.compile_raw Specs.par in
  Printf.printf "-- channel-level STG (Fig. 10.a):\n%s" (Stg.Io.print raw);
  let stg = Expansion.four_phase Specs.par in
  Printf.printf "-- automatic 4-phase expansion (Fig. 10.b):\n%s"
    (Stg.Io.print stg);
  let manual, automatic, maxconc = par_rows () in
  columns ();
  our_row manual;
  our_row automatic;
  our_row maxconc;
  (match (manual.Core.area, automatic.Core.area, maxconc.Core.area) with
  | Some m, Some a, Some x ->
      Printf.printf
        "automatic vs manual area: %+.0f%% (paper: -12%%); max-concurrency \
         vs automatic: %.1fx (paper: ~2x)\n"
        (100.0 *. (float_of_int a -. float_of_int m) /. float_of_int m)
        (float_of_int x /. float_of_int a)
  | (Some _ | None), _, _ -> print_endline "some PAR implementation failed");
  (match (manual.Core.critical_cycle, automatic.Core.critical_cycle) with
  | Some m, Some a ->
      Printf.printf
        "automatic vs manual critical cycle: %+.0f%% (paper: +11%% under \
         balanced delays)\n"
        (100.0 *. (float_of_int a -. float_of_int m) /. float_of_int m)
  | (Some _ | None), _ -> ());
  Printf.printf "-- automatic implementation (Fig. 10.d/e):\n%s\n"
    automatic.Core.equations

(* ------------------------------------------------------------------ *)
(* Table 2: MMU controller                                             *)

let table2_rows () =
  let stg = Expansion.four_phase Specs.mmu in
  let sg = Core.sg_exn stg in
  let original = Core.implement ~max_csc:8 ~name:"original" sg in
  let original_reduced =
    Core.optimize ~name:"original reduced" ~w:1.0 ~size_frontier:4 sg
  in
  let csc_reduced =
    Core.optimize ~name:"csc reduced" ~w:0.0 ~size_frontier:4 sg
  in
  let keep3 (name, keeps) =
    Core.optimize ~name ~keep_conc:keeps ~w:0.8 ~size_frontier:4 sg
  in
  [ original; original_reduced; csc_reduced ]
  @ List.map keep3 (Specs.mmu_keep3_rows stg)

let table2 () =
  section_header "Table 2: area/performance trade-off for the MMU controller";
  columns ();
  let paper =
    [
      ("original", (744, 2, 100, 4));
      ("original reduced", (208, 0, 118, 6));
      ("csc reduced", (96, 1, 123, 7));
      ("|| (b,l,r)", (440, 1, 101, 4));
      ("|| (b,m,r)", (384, 0, 94, 4));
      ("|| (b,l,m)", (352, 1, 104, 5));
      ("|| (l,m,r)", (368, 1, 105, 5));
    ]
  in
  let rows = table2_rows () in
  List.iter2
    (fun r (name, p) ->
      paper_row name p;
      our_row r)
    rows paper;
  match ((List.hd rows).Core.area, (List.nth rows 1).Core.area) with
  | Some orig, Some red ->
      Printf.printf
        "\nheadline: reshuffling reduces area to %.0f%% of the original \
         (paper: < 50%%)\n"
        (100.0 *. float_of_int red /. float_of_int orig)
  | (Some _ | None), _ -> ()

(* ------------------------------------------------------------------ *)
(* Pareto sweep: area vs cycle-time bound (performance-constrained      *)
(* reshuffling — the trade-off Table 1 samples, swept continuously)     *)

let pareto () =
  section_header
    "Pareto: LR-process area under a critical-cycle bound (label delays: \
     inputs 2, others 1)";
  let stg = Expansion.four_phase Specs.lr in
  let sg = Core.sg_exn stg in
  let delays = Timing.table_label_delays stg in
  Printf.printf "%-12s %8s %8s %10s
" "cycle bound" "area" "# CSC"
    "meas.cycle";
  List.iter
    (fun bound ->
      let o =
        Search.optimize ~w:0.9 ~size_frontier:8 ~perf_delays:delays
          ~max_cycle:bound sg
      in
      let best = o.Search.best in
      let r =
        Core.implement_reduced ~name:"pareto" sg best.Search.applied
      in
      let cycle =
        match Timing.analyze_sg ~delays best.Search.sg with
        | Ok t -> string_of_int t.Timing.period
        | Error _ -> "-"
      in
      let s = function Some v -> string_of_int v | None -> "-" in
      Printf.printf "%-12d %8s %8s %10s
" bound (s r.Core.area)
        (s r.Core.csc_signals) cycle)
    [ 9; 10; 11; 12; 13 ]

(* ------------------------------------------------------------------ *)
(* Corpus sweep: synthesis across the controller benchmark suite       *)

let corpus () =
  section_header "Corpus: direct synthesis vs optimized, per controller";
  Printf.printf "%-15s %18s %24s
" "" "direct (max conc.)" "after reduction search";
  Printf.printf "%-15s %8s %4s %4s %9s %4s %4s %9s
" "Circuit" "area" "csc"
    "cyc" "|" "area" "csc" "cyc";
  List.iter
    (fun (name, stg) ->
      match Sg.of_stg stg with
      | Error e ->
          Format.printf "%-15s invalid: %a@." name Sg.pp_error e
      | Ok sg ->
          let s = function Some v -> string_of_int v | None -> "-" in
          let direct = Core.implement ~name sg in
          let opt = Core.optimize ~name ~w:0.9 ~size_frontier:8 sg in
          Printf.printf "%-15s %8s %4s %4s %9s %4s %4s %9s
" name
            (s direct.Core.area)
            (s direct.Core.csc_signals)
            (s direct.Core.critical_cycle)
            "|" (s opt.Core.area)
            (s opt.Core.csc_signals)
            (s opt.Core.critical_cycle))
    (Specs.Corpus.all ())

(* ------------------------------------------------------------------ *)
(* Ablations: design choices called out in DESIGN.md                   *)

let ablation () =
  section_header "Ablations";
  (* 1. Solution space: one-step outcomes of FwdRed vs single-arc removal
     (the paper's Sec. 6 note: arc removal is more general but has no
     STG-level reading).  This quantifies the claimed increase in explored
     solution space. *)
  print_endline
    "-- one-step reduction outcomes (distinct configurations): FwdRed vs \
     single-arc removal";
  let count_outcomes name stg =
    let sg = Core.sg_exn stg in
    let labels = Stg.all_labels stg in
    let fwd =
      List.concat_map
        (fun a ->
          List.filter_map
            (fun b ->
              if a = b then None
              else
                match Reduction.fwd_red sg ~a ~b with
                | Ok r -> Some (Sg.signature r)
                | Error _ -> None)
            labels)
        labels
      |> List.sort_uniq compare
    in
    let arc =
      List.concat_map
        (fun a ->
          List.filter_map
            (fun s ->
              match Reduction.remove_arc sg ~state:s ~a with
              | Ok r -> Some (Sg.signature r)
              | Error _ -> None)
            (Sg.er sg a))
        labels
      |> List.sort_uniq compare
    in
    let novel = List.filter (fun s -> not (List.mem s fwd)) arc in
    Printf.printf "   %-8s FwdRed=%-4d arc-removal=%-4d beyond-FwdRed=%d\n"
      name (List.length fwd) (List.length arc) (List.length novel)
  in
  count_outcomes "LR" (Expansion.four_phase Specs.lr);
  count_outcomes "PAR" (Expansion.four_phase Specs.par);
  count_outcomes "fig8" (Specs.fig8 ());
  (* 2. The W parameter (Sec. 7): biasing the cost towards logic (W->1) or
     CSC conflicts (W->0) changes which configuration wins. *)
  print_endline
    "-- cost trade-off W (Sec. 7): best configuration on the MMU controller";
  let stg = Expansion.four_phase Specs.mmu in
  let sg = Core.sg_exn stg in
  Printf.printf "   %-5s %10s %10s %8s\n" "W" "logic est." "csc pairs"
    "states";
  List.iter
    (fun w ->
      let o = Search.optimize ~w ~size_frontier:4 sg in
      let b = o.Search.best in
      Printf.printf "   %-5.2f %10d %10d %8d\n" w b.Search.logic_estimate
        b.Search.csc_pairs
        (Sg.n_states b.Search.sg))
    [ 0.0; 0.25; 0.5; 0.75; 1.0 ];
  (* 3. Implementation style: atomic complex gates vs generalized
     C-elements (the style of the paper's Fig. 3 circuits). *)
  print_endline
    "-- implementation style on Table 1 rows: complex gate vs generalized \
     C-element (area)";
  let lr2 = Expansion.four_phase Specs.lr in
  let sg2 = Core.sg_exn lr2 in
  let both name script =
    let cg = Core.implement_reduced ~name sg2 script in
    let gc =
      Core.implement_reduced ~style:`Generalized_c ~name sg2 script
    in
    let s = function Some a -> string_of_int a | None -> "-" in
    Printf.printf "   %-18s complex-gate=%-6s gC=%-6s (both verified: %b)\n"
      name (s cg.Core.area) (s gc.Core.area)
      (cg.Core.verified = Some true && gc.Core.verified = Some true)
  in
  both "Q-module" (Specs.lr_qmodule_script lr2);
  both "Full reduction" (Specs.lr_full_reduction_script lr2);
  both "Max.concurrency" [];
  (* 4. Technology mapping: the naive 2-input decomposition vs the
     tree-covering mapper over the INV/NAND/NOR/AND/OR/AOI/OAI library. *)
  print_endline
    "-- technology mapping on Table 1 rows: naive decomposition vs mapped";
  let map_row name script =
    let stg = Expansion.four_phase Specs.lr in
    let sg = Core.sg_exn stg in
    let reduced, applied = Search.apply_script sg script in
    let realized =
      if applied = [] then Ok stg
      else
        match Reduction.realize ~applied reduced with
        | Ok stg' -> Ok stg'
        | Error _ -> (
            match Regions.synthesize reduced with
            | Ok stg' -> Ok stg'
            | Error e -> Error (Regions.error_to_string e))
    in
    match realized with
    | Error msg -> Printf.printf "   %-18s realization failed: %s\n" name msg
    | Ok stg' -> (
        match Csc.resolve (Core.sg_exn stg') with
        | Error msg -> Printf.printf "   %-18s CSC failed: %s\n" name msg
        | Ok r ->
            let impl = Logic.synthesize r.Csc.sg in
            let mapped = Techmap.map_impl impl in
            Printf.printf "   %-18s naive=%-5d mapped: %s\n" name
              (Logic.area impl) (Techmap.render mapped))
  in
  let lr3 = Expansion.four_phase Specs.lr in
  map_row "Q-module" (Specs.lr_qmodule_script lr3);
  map_row "Max.concurrency" [];
  (* 5. CSC insertion site classes: series-only vs series+arc sites. *)
  print_endline
    "-- CSC insertion sites on the LR max-concurrency expansion";
  let lr_stg = Expansion.four_phase Specs.lr in
  let sites = Csc.sites lr_stg in
  let after, on_arc =
    List.partition (function Csc.After _ -> true | Csc.On_arc _ -> false) sites
  in
  Printf.printf "   series sites=%d, arc sites=%d (both classes searched)\n"
    (List.length after) (List.length on_arc)

(* ------------------------------------------------------------------ *)
(* Parallel candidate evaluation: fan-out stats + seq-vs-par timing    *)

(* Pool width for the [parallel] section and --json-pr2; set by --jobs. *)
let requested_jobs = ref 4

let parallel_specs () =
  [
    ("LR", Core.sg_exn (Expansion.four_phase Specs.lr), 0.8, 6);
    ("PAR", Core.sg_exn (Expansion.four_phase Specs.par), 0.8, 4);
    ("MMU", Core.sg_exn (Expansion.four_phase Specs.mmu), 0.8, 4);
  ]

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let parallel_section () =
  section_header
    (Printf.sprintf
       "Parallel candidate evaluation (backend=%s, --jobs %d, host cores=%d)"
       Pool.backend !requested_jobs
       (Pool.default_jobs ()));
  let specs = parallel_specs () in
  Pool.with_pool ~jobs:!requested_jobs (fun pool ->
      Printf.printf "%-6s %8s %7s %10s %10s %8s  %s\n" "spec" "explored"
        "levels" "seq(ms)" "par(ms)" "same" "per-level fan-out";
      List.iter
        (fun (name, sg, w, width) ->
          let seq, t_seq =
            wall (fun () -> Search.optimize ~w ~size_frontier:width sg)
          in
          let par, t_par =
            wall (fun () -> Search.optimize ~pool ~w ~size_frontier:width sg)
          in
          let same =
            seq.Search.best.Search.cost = par.Search.best.Search.cost
            && seq.Search.best.Search.applied = par.Search.best.Search.applied
            && seq.Search.explored = par.Search.explored
            && seq.Search.fanout = par.Search.fanout
            && String.equal
                 (Sg.signature seq.Search.best.Search.sg)
                 (Sg.signature par.Search.best.Search.sg)
          in
          Printf.printf "%-6s %8d %7d %10.2f %10.2f %8b  [%s]\n" name
            seq.Search.explored seq.Search.levels (t_seq *. 1e3)
            (t_par *. 1e3) same
            (String.concat " " (List.map string_of_int par.Search.fanout)))
        specs;
      (* The batched driver: one pool shared across specs. *)
      let reports, t_batch =
        wall (fun () ->
            Core.optimize_all ~pool ~w:0.8 ~size_frontier:4
              (List.map (fun (n, sg, _, _) -> (n, sg)) specs))
      in
      Printf.printf
        "optimize_all over %d specs (shared pool): %.2f ms, areas: %s\n"
        (List.length reports) (t_batch *. 1e3)
        (String.concat ", "
           (List.map
              (fun (r : Core.report) ->
                r.Core.name ^ "="
                ^ match r.Core.area with
                  | Some a -> string_of_int a
                  | None -> "-")
              reports)))

(* ------------------------------------------------------------------ *)
(* Bechamel timing of each table/figure kernel                         *)

let bechamel_timings () =
  section_header "Bechamel: timing of each table/figure kernel";
  let open Bechamel in
  let lr_stg = Expansion.four_phase Specs.lr in
  let lr_sg = Core.sg_exn lr_stg in
  let par_stg = Expansion.four_phase Specs.par in
  let par_sg = Core.sg_exn par_stg in
  let mmu_stg = Expansion.four_phase Specs.mmu in
  let mmu_sg = Core.sg_exn mmu_stg in
  let fig8_stg = Specs.fig8 () in
  let fig8_sg = Core.sg_exn fig8_stg in
  let a8 = Core.lab fig8_stg "a~" and b8 = Core.lab fig8_stg "b~" in
  let keep_bmr =
    match Specs.mmu_keep3_rows mmu_stg with
    | _ :: (_, k) :: _ -> k
    | [ _ ] | [] -> []
  in
  let tests =
    [
      Test.make ~name:"fig1: SG generation"
        (Staged.stage (fun () -> Core.sg_exn (Specs.fig1 ())));
      Test.make ~name:"fig2: LR 4-phase expansion"
        (Staged.stage (fun () -> Expansion.four_phase Specs.lr));
      Test.make ~name:"table1: LR implement max-conc"
        (Staged.stage (fun () -> Core.implement ~name:"bench" lr_sg));
      Test.make ~name:"fig6: 2-phase + 4-phase refinement"
        (Staged.stage (fun () ->
             (Expansion.two_phase Specs.fig6, Expansion.four_phase Specs.fig6)));
      Test.make ~name:"fig8: FwdRed(a,b)"
        (Staged.stage (fun () -> Reduction.fwd_red fig8_sg ~a:a8 ~b:b8));
      Test.make ~name:"fig9: frontier search (LR, width 4)"
        (Staged.stage (fun () -> Search.optimize ~size_frontier:4 lr_sg));
      Test.make ~name:"fig10: PAR reduction search"
        (Staged.stage (fun () -> Search.optimize ~w:0.8 ~size_frontier:4 par_sg));
      Test.make ~name:"fig10: regions synthesis (reduced PAR)"
        (Staged.stage (fun () ->
             let o = Search.optimize ~w:0.8 ~size_frontier:4 par_sg in
             Regions.synthesize o.Search.best.Search.sg));
      Test.make ~name:"table2: MMU || (b,m,r) row"
        (Staged.stage (fun () ->
             Search.optimize ~keep_conc:keep_bmr ~w:0.8 ~size_frontier:4 mmu_sg));
    ]
  in
  let benchmark test =
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:20 ~quota:(Time.second 0.5) () in
    let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
    let results =
      Analyze.all
        (Analyze.ols ~bootstrap:0 ~r_square:false
           ~predictors:[| Measure.run |])
        instance raw
    in
    Hashtbl.iter
      (fun name result ->
        match Analyze.OLS.estimates result with
        | Some [ est ] -> Printf.printf "%-48s %14.0f ns/run\n" name est
        | Some _ | None -> Printf.printf "%-48s (no estimate)\n" name)
      results
  in
  List.iter benchmark tests

(* ------------------------------------------------------------------ *)
(* --json: machine-readable timing of the search hot path (BENCH_PR1)  *)

(* The wall-clock / GC estimators and the JSON object builder every
   --json-prN report shares live in [Harness] (extracted in PR 5; the
   numbers are produced by the identical code, so they stay comparable to
   the recorded baselines below). *)

(* Pre-change timings of the same kernels, measured at the growth seed
   (commit c9dddc2, before the Sg analysis cache landed) on the same
   machine that produced BENCH_PR1.json, with the identical [time_ns]
   estimator (per-kernel minimum over six alternating seed/new runs —
   background load on this box drifts on a minutes scale, so single-run
   means are not comparable).  Kept here so the json report always carries
   the old-vs-new comparison. *)
let baseline_ns : (string * float) list =
  [
    ("sg_of_stg_lr", 15020.);
    ("sg_of_stg_par", 87778.);
    ("sg_of_stg_mmu", 366067.);
    ("concurrent_pairs_lr", 22416.);
    ("concurrent_pairs_par", 220418.);
    ("concurrent_pairs_mmu", 1303145.);
    ("logic_estimate_lr", 4520.);
    ("logic_estimate_par", 31345.);
    ("logic_estimate_mmu", 217391.);
    ("search_optimize_lr", 599695.);
    ("search_optimize_par", 7446051.);
    ("search_optimize_mmu", 71177006.);
  ]

let json_kernels () =
  let lr_stg = Expansion.four_phase Specs.lr in
  let lr_sg = Core.sg_exn lr_stg in
  let par_stg = Expansion.four_phase Specs.par in
  let par_sg = Core.sg_exn par_stg in
  let mmu_stg = Expansion.four_phase Specs.mmu in
  let mmu_sg = Core.sg_exn mmu_stg in
  [
    ("sg_of_stg_lr", fun () -> ignore (Sg.of_stg lr_stg));
    ("sg_of_stg_par", fun () -> ignore (Sg.of_stg par_stg));
    ("sg_of_stg_mmu", fun () -> ignore (Sg.of_stg mmu_stg));
    ("concurrent_pairs_lr", fun () -> ignore (Sg.concurrent_pairs lr_sg));
    ("concurrent_pairs_par", fun () -> ignore (Sg.concurrent_pairs par_sg));
    ("concurrent_pairs_mmu", fun () -> ignore (Sg.concurrent_pairs mmu_sg));
    ("logic_estimate_lr", fun () -> ignore (Logic.estimate lr_sg));
    ("logic_estimate_par", fun () -> ignore (Logic.estimate par_sg));
    ("logic_estimate_mmu", fun () -> ignore (Logic.estimate mmu_sg));
    ( "search_optimize_lr",
      fun () -> ignore (Search.optimize ~w:0.8 ~size_frontier:6 lr_sg) );
    ( "search_optimize_par",
      fun () -> ignore (Search.optimize ~w:0.8 ~size_frontier:4 par_sg) );
    ( "search_optimize_mmu",
      fun () -> ignore (Search.optimize ~w:0.8 ~size_frontier:4 mmu_sg) );
  ]

let json_bench out_file =
  let kernels = json_kernels () in
  (* Three full passes, per-kernel minimum — the same estimator the
     baseline numbers were produced with (see [baseline_ns]). *)
  let results = Harness.min_over_passes ~passes:3 kernels in
  let j = Harness.Json.create () in
  Harness.Json.str j "bench" "BENCH_PR1";
  Harness.Json.str j "units" "ns_per_run";
  Harness.Json.str j "baseline_commit" "c9dddc2 (growth seed, pre analysis-cache)";
  Harness.Json.obj j "old" baseline_ns;
  Harness.Json.obj j "new" results;
  Harness.Json.obj ~fmt:"%.2f" j "speedup" (Harness.ratio baseline_ns results);
  Harness.Json.write j out_file

(* --json-pr3: allocation + live-heap profile of the SG representation.

   For each kernel: wall time (the --json estimator), words allocated per
   run (Gc.quick_stat deltas: minor + major - promoted), and for each
   spec the live-heap footprint of holding one freshly built SG (words
   retained after a full major collection).  [--smoke] runs one pass with
   small batches so CI can record the trajectory cheaply. *)

(* --json-pr2: sequential vs parallel Search.optimize on LR/PAR/MMU.
   Sequential runs use no pool at all (the PR 1 hot path); parallel runs
   share one pool of --jobs workers.  Speedup > 1 needs real cores: the
   report records the host's recommended domain count so single-core
   container numbers are interpretable. *)
(* Old-representation profile of the same kernels, measured at PR 2 (commit
   9352933: one [Bytes.t] code per state, boxed [(trans * state) array
   array] arcs) on the machine that produced BENCH_PR3.json, with the same
   estimators.  Baked in so the json report always carries the
   old-vs-packed comparison. *)
let pr3_baseline_ns : (string * float) list =
  [
    ("sg_of_stg_lr", 17354.);
    ("sg_of_stg_par", 111580.);
    ("sg_of_stg_mmu", 463317.);
    ("search_optimize_lr", 197608.);
    ("search_optimize_par", 3959227.);
    ("search_optimize_mmu", 35534143.);
  ]

let pr3_baseline_alloc : (string * float) list =
  [
    ("sg_of_stg_lr", 3609.);
    ("sg_of_stg_par", 46700.);
    ("sg_of_stg_mmu", 132096.);
    ("search_optimize_lr", 57912.);
    ("search_optimize_par", 790864.);
    ("search_optimize_mmu", 6626518.);
  ]

let pr3_baseline_live : (string * float) list =
  [ ("live_sg_lr", 385.); ("live_sg_par", 2389.); ("live_sg_mmu", 8375.) ]

let json_pr3 ~smoke out_file =
  let lr_stg = Expansion.four_phase Specs.lr in
  let lr_sg = Core.sg_exn lr_stg in
  let par_stg = Expansion.four_phase Specs.par in
  let par_sg = Core.sg_exn par_stg in
  let mmu_stg = Expansion.four_phase Specs.mmu in
  let mmu_sg = Core.sg_exn mmu_stg in
  let kernels =
    [
      ("sg_of_stg_lr", fun () -> ignore (Sg.of_stg lr_stg));
      ("sg_of_stg_par", fun () -> ignore (Sg.of_stg par_stg));
      ("sg_of_stg_mmu", fun () -> ignore (Sg.of_stg mmu_stg));
      ( "search_optimize_lr",
        fun () -> ignore (Search.optimize ~w:0.8 ~size_frontier:6 lr_sg) );
      ( "search_optimize_par",
        fun () -> ignore (Search.optimize ~w:0.8 ~size_frontier:4 par_sg) );
      ( "search_optimize_mmu",
        fun () -> ignore (Search.optimize ~w:0.8 ~size_frontier:4 mmu_sg) );
    ]
  in
  let passes = if smoke then 1 else 3 in
  let times = Harness.min_over_passes ~passes kernels in
  let allocs =
    List.map
      (fun (name, f) ->
        let w = Harness.alloc_words_per_run f in
        Printf.eprintf "alloc   %-24s %14.0f words/run\n%!" name w;
        (name, w))
      kernels
  in
  (* Live footprint of one freshly built (unanalyzed) SG per spec. *)
  let sg_exn stg = match Sg.of_stg stg with Ok sg -> sg | Error _ -> assert false in
  let live =
    List.map
      (fun (name, stg) ->
        let w = Harness.live_words_of (fun () -> sg_exn stg) in
        Printf.eprintf "live    %-24s %14d words\n%!" name w;
        (name, float_of_int w))
      [ ("live_sg_lr", lr_stg); ("live_sg_par", par_stg); ("live_sg_mmu", mmu_stg) ]
  in
  let j = Harness.Json.create () in
  Harness.Json.str j "bench" "BENCH_PR3";
  Harness.Json.bool j "smoke" smoke;
  Harness.Json.str j "baseline_commit"
    "9352933 (PR 2: boxed codes + tuple-array arcs)";
  Harness.Json.obj j "old_ns" pr3_baseline_ns;
  Harness.Json.obj j "new_ns" times;
  Harness.Json.obj j "old_alloc_words" pr3_baseline_alloc;
  Harness.Json.obj j "new_alloc_words" allocs;
  Harness.Json.obj j "old_live_words" pr3_baseline_live;
  Harness.Json.obj j "new_live_words" live;
  Harness.Json.obj ~fmt:"%.2f" j "speedup" (Harness.ratio pr3_baseline_ns times);
  Harness.Json.obj ~fmt:"%.2f" j "alloc_ratio"
    (Harness.ratio pr3_baseline_alloc allocs);
  Harness.Json.obj ~fmt:"%.2f" j "live_ratio"
    (Harness.ratio pr3_baseline_live live);
  Harness.Json.write j out_file

let json_pr2 out_file =
  let specs = parallel_specs () in
  let kernel_name name = "search_optimize_" ^ String.lowercase_ascii name in
  let measure pool =
    List.map
      (fun (name, sg, w, width) ->
        let f () = ignore (Search.optimize ?pool ~w ~size_frontier:width sg) in
        let ns = Harness.time_ns ~name:(kernel_name name) f in
        Printf.eprintf "%-4s %-10s %14.0f ns/run\n%!" name
          (match pool with Some _ -> "parallel" | None -> "sequential")
          ns;
        (kernel_name name, ns))
      specs
  in
  Pool.with_pool ~jobs:!requested_jobs (fun pool ->
      (* Alternate seq/par passes and keep per-kernel minima, the same
         estimator as --json (background load drifts on a minutes scale). *)
      let seq = ref (measure None) and par = ref (measure (Some pool)) in
      for _ = 2 to 3 do
        seq := Harness.min_join !seq (measure None);
        par := Harness.min_join !par (measure (Some pool))
      done;
      let fanouts =
        List.map
          (fun (name, sg, w, width) ->
            let o = Search.optimize ~pool ~w ~size_frontier:width sg in
            ( kernel_name name,
              Printf.sprintf "[%s]"
                (String.concat ", " (List.map string_of_int o.Search.fanout))
            ))
          specs
      in
      let j = Harness.Json.create () in
      Harness.Json.str j "bench" "BENCH_PR2";
      Harness.Json.str j "units" "ns_per_run";
      Harness.Json.str j "backend" Pool.backend;
      Harness.Json.int j "jobs" (Pool.jobs pool);
      Harness.Json.int j "host_recommended_domains" (Pool.default_jobs ());
      Harness.Json.obj j "sequential_jobs1" !seq;
      Harness.Json.obj j
        (Printf.sprintf "parallel_jobs%d" (Pool.jobs pool))
        !par;
      Harness.Json.obj ~fmt:"%.3f" j "speedup"
        (List.map2
           (fun (n, s) (_, p) -> (n, if p > 0.0 then s /. p else 0.0))
           !seq !par);
      Harness.Json.obj_raw j "fanout" fanouts;
      Harness.Json.write j out_file)

(* --json-pr4: incremental, memoized logic-cost evaluation.

   Times Search.optimize on LR/PAR/MMU in its default [`Delta] evaluation
   mode against the search timings recorded in BENCH_PR3.json (the same
   kernels at the same parameters, costed from scratch), plus a
   two-way mode comparison (scratch / delta) and the cache
   effectiveness counters: {!Boolf.Memo} hit rate and {!Logic}
   delta-reuse fraction over one fresh search per spec.  [--smoke] runs
   one timing pass for CI; [--annotate] emits non-failing GitHub
   workflow warnings when a kernel regresses against the baseline. *)

(* [new_ns] of BENCH_PR3.json: the search kernels measured at PR 3
   (commit 17fa0ac, packed SG + from-scratch logic estimate) on the
   machine that produced that file, with the same [time_ns] estimator. *)
let pr4_baseline_ns : (string * float) list =
  [
    ("search_optimize_lr", 174360.);
    ("search_optimize_par", 3658692.);
    ("search_optimize_mmu", 32230854.);
  ]

let json_pr4 ~smoke ~annotate out_file =
  let lr_sg = Core.sg_exn (Expansion.four_phase Specs.lr) in
  let par_sg = Core.sg_exn (Expansion.four_phase Specs.par) in
  let mmu_sg = Core.sg_exn (Expansion.four_phase Specs.mmu) in
  let specs =
    [
      ("search_optimize_lr", lr_sg, 6);
      ("search_optimize_par", par_sg, 4);
      ("search_optimize_mmu", mmu_sg, 4);
    ]
  in
  let passes = if smoke then 1 else 3 in
  let measure label mode =
    Harness.min_over_passes ~tag:label ~passes
      (List.map
         (fun (name, sg, width) ->
           ( name,
             fun () ->
               ignore
                 (Search.optimize ~w:0.8 ~size_frontier:width ~eval_mode:mode
                    sg) ))
         specs)
  in
  let delta_ns = measure "delta" `Delta in
  let scratch_ns = measure "scratch" `Scratch in
  (* Cache effectiveness over ONE fresh search per spec: cleared cover
     cache, zeroed counters, sequential run (every minimization happens in
     this domain). *)
  let counters =
    List.map
      (fun (name, sg, width) ->
        Boolf.Memo.clear ();
        Boolf.Memo.reset_stats ();
        Logic.reset_delta_stats ();
        ignore
          (Search.optimize ~w:0.8 ~size_frontier:width ~eval_mode:`Delta sg);
        let m = Boolf.Memo.stats () in
        let d = Logic.delta_stats () in
        Printf.eprintf
          "stats   %-24s cover %d/%d hits, delta %d/%d inherited\n%!" name
          m.Boolf.Memo.hits
          (m.Boolf.Memo.hits + m.Boolf.Memo.misses)
          d.Logic.inherited
          (d.Logic.inherited + d.Logic.recomputed);
        (name, m, d))
      specs
  in
  if annotate then
    List.iter
      (fun (name, old_ns) ->
        match List.assoc_opt name delta_ns with
        | Some new_ns when new_ns > old_ns *. 1.15 ->
            Printf.printf
              "::warning title=bench regression::%s: %.0f ns/run vs %.0f \
               ns/run PR3 baseline (%.2fx slower)\n"
              name new_ns old_ns (new_ns /. old_ns)
        | Some _ | None -> ())
      pr4_baseline_ns;
  let j = Harness.Json.create () in
  Harness.Json.str j "bench" "BENCH_PR4";
  Harness.Json.bool j "smoke" smoke;
  Harness.Json.str j "baseline_commit"
    "17fa0ac (PR 3: packed SG, from-scratch logic estimate)";
  Harness.Json.obj j "old_ns" pr4_baseline_ns;
  Harness.Json.obj j "new_ns" delta_ns;
  Harness.Json.obj j "scratch_ns" scratch_ns;
  Harness.Json.obj ~fmt:"%.2f" j "speedup"
    (Harness.ratio pr4_baseline_ns delta_ns);
  Harness.Json.obj ~fmt:"%.2f" j "speedup_vs_scratch"
    (Harness.ratio scratch_ns delta_ns);
  Harness.Json.obj_raw j "cover_cache"
    (List.map
       (fun (name, m, _) ->
         let total = m.Boolf.Memo.hits + m.Boolf.Memo.misses in
         ( name,
           Printf.sprintf
             "{ \"hits\": %d, \"misses\": %d, \"hit_rate\": %.3f }"
             m.Boolf.Memo.hits m.Boolf.Memo.misses
             (if total = 0 then 0.0
              else float_of_int m.Boolf.Memo.hits /. float_of_int total) ))
       counters);
  Harness.Json.obj_raw j "delta_reuse"
    (List.map
       (fun (name, _, d) ->
         let total = d.Logic.inherited + d.Logic.recomputed in
         ( name,
           Printf.sprintf
             "{ \"inherited\": %d, \"recomputed\": %d, \"fraction\": %.3f }"
             d.Logic.inherited d.Logic.recomputed
             (if total = 0 then 0.0
              else float_of_int d.Logic.inherited /. float_of_int total) ))
       counters);
  Harness.Json.write j out_file

(* --json-pr5: flow-wide observability (lib/obs).

   Times the search kernels with recording disabled — the default, where
   every instrumentation point must collapse to an atomic load —
   ([overhead_vs_pr4] compares against the BENCH_PR4 [new_ns] timings of
   the identical kernels; 1.00 is parity, the CI gate is 1.02) and with
   recording enabled ([enabled_overhead] is what turning tracing on
   costs), plus a per-kernel snapshot of the Obs counters one fresh
   search moves. *)

(* [new_ns] of BENCH_PR4.json: the search kernels measured at PR 4
   (commit 8204ab5, incremental memoized logic-cost evaluation) on the
   machine that produced that file, with the same estimator. *)
let pr5_baseline_ns : (string * float) list =
  [
    ("search_optimize_lr", 140889.);
    ("search_optimize_par", 2428157.);
    ("search_optimize_mmu", 19536972.);
  ]

let pr5_kernels () =
  [
    ("search_optimize_lr", 6, Core.sg_exn (Expansion.four_phase Specs.lr));
    ("search_optimize_par", 4, Core.sg_exn (Expansion.four_phase Specs.par));
    ("search_optimize_mmu", 4, Core.sg_exn (Expansion.four_phase Specs.mmu));
  ]
  |> List.map (fun (name, width, sg) ->
         ( name,
           fun () ->
             ignore (Search.optimize ~w:0.8 ~size_frontier:width sg) ))

let json_pr5 ~smoke ~check_overhead out_file =
  let kernels = pr5_kernels () in
  (* Non-smoke needs enough passes for the per-kernel minimum to shake
     off background load: the overhead ratio compares against a minimum
     recorded under quiet conditions. *)
  let passes = if smoke then 1 else 5 in
  Obs.set_enabled false;
  let disabled_ns = Harness.min_over_passes ~tag:"off" ~passes kernels in
  (* Enabled runs reset the recorder before each run so span buffers don't
     grow across estimator batches; the reset is noise next to the
     kernels. *)
  let enabled_ns =
    let wrapped =
      List.map
        (fun (n, f) ->
          ( n,
            fun () ->
              Obs.reset ();
              f () ))
        kernels
    in
    Obs.set_enabled true;
    let r = Harness.min_over_passes ~tag:"on" ~passes wrapped in
    Obs.set_enabled false;
    Obs.reset ();
    r
  in
  let counter_snapshots =
    List.map
      (fun (name, f) ->
        let cs = Harness.counters_of f in
        ( name,
          Printf.sprintf "{ %s }"
            (String.concat ", "
               (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %d" k v) cs))
        ))
      kernels
  in
  let overhead = Harness.ratio disabled_ns pr5_baseline_ns in
  let j = Harness.Json.create () in
  Harness.Json.str j "bench" "BENCH_PR5";
  Harness.Json.bool j "smoke" smoke;
  Harness.Json.str j "units" "ns_per_run";
  Harness.Json.str j "baseline_commit"
    "8204ab5 (PR 4: incremental memoized logic-cost evaluation)";
  Harness.Json.obj j "old_ns" pr5_baseline_ns;
  Harness.Json.obj j "disabled_ns" disabled_ns;
  Harness.Json.obj j "enabled_ns" enabled_ns;
  Harness.Json.obj ~fmt:"%.3f" j "overhead_vs_pr4" overhead;
  Harness.Json.obj ~fmt:"%.3f" j "enabled_overhead"
    (Harness.ratio enabled_ns disabled_ns);
  Harness.Json.obj_raw j "counters" counter_snapshots;
  Harness.Json.write j out_file;
  if check_overhead then begin
    match List.assoc_opt "search_optimize_lr" overhead with
    | Some r when r > 1.02 ->
        Printf.printf
          "::error title=observability overhead::search_optimize_lr \
           disabled-mode time is %.3fx the PR 4 baseline (budget 1.02)\n"
          r;
        exit 1
    | Some r ->
        Printf.printf
          "overhead check ok: search_optimize_lr at %.3fx the PR 4 baseline \
           (budget 1.02)\n"
          r
    | None ->
        prerr_endline "overhead check: search_optimize_lr missing";
        exit 1
  end

(* --json-pr6: per-signal support tracking + barrier-free level
   scheduling.

   Times the search kernels in their default [`Delta] evaluation mode
   against the BENCH_PR5 disabled-mode timings of the identical kernels —
   recorded before support tracking, when any pruning reduction re-derived
   every signal — plus the scratch mode for context; snapshots the
   delta-reuse stats and the support/steal Obs counters of one fresh
   search per kernel (sequential and pooled); and re-runs each kernel
   under both evaluation modes on both scheduling paths, recording
   whether the outcomes (cost, script, exploration trace, per-signal
   covers) are byte-identical.  [--smoke] runs one timing pass for CI. *)

(* [disabled_ns] of BENCH_PR5.json: the search kernels measured at PR 5
   (commit 36e7d0d, flow-wide observability, recording off) on the machine
   that produced that file, with the same estimator. *)
let pr6_baseline_ns : (string * float) list =
  [
    ("search_optimize_lr", 119250.);
    ("search_optimize_par", 2031147.);
    ("search_optimize_mmu", 18711090.);
  ]

(* The same PR 5 code (commit 36e7d0d, `--json-pr5 --smoke`, recording
   off) re-measured on the machine that produced this BENCH_PR6.json, the
   same day: this container runs ~1.4x slower than the box that recorded
   BENCH_PR5, so [speedup_same_box] (against these timings) is the
   apples-to-apples number while [speedup] (against [pr6_baseline_ns])
   carries the recorded-baseline comparison.  Note the two builds do not
   search the same trajectory: the frozen-ghost cost semantics that the
   per-signal support theorem requires prices ghost states into the logic
   estimate, which legitimately grows the MMU exploration from 318 to 414
   candidates (7 -> 8 levels). *)
let pr6_baseline_same_box_ns : (string * float) list =
  [
    ("search_optimize_lr", 167956.);
    ("search_optimize_par", 2944986.);
    ("search_optimize_mmu", 25247097.);
  ]

(* Outcome rendering for the byte-identity check: everything
   [test_parallel]'s differential suites compare, plus the best
   configuration's per-signal covers (the equations a [Reduction.realize]
   of the outcome would synthesize). *)
let pr6_outcome_repr stg (o : Search.outcome) =
  let names = Array.map (fun s -> s.Stg.Signal.name) stg.Stg.signals in
  let script cfg =
    cfg.Search.applied
    |> List.map (fun (a, b) ->
           Printf.sprintf "(%s,%s)" (Stg.label_name stg a)
             (Stg.label_name stg b))
    |> String.concat " "
  in
  let cfg c =
    Printf.sprintf "cost=%.9f logic=%d csc=%d states=%d applied=[%s]"
      c.Search.cost c.Search.logic_estimate c.Search.csc_pairs
      (Sg.n_states c.Search.sg) (script c)
  in
  let covers =
    o.Search.best.Search.logic.Logic.e_sigs
    |> List.map (fun (ps : Logic.per_sig) ->
           Printf.sprintf "%s: lits=%d conflicts=%d cover=%s"
             names.(ps.Logic.ps_signal) ps.Logic.ps_literals
             ps.Logic.ps_conflicts
             (Boolf.Cover.render ~names ps.Logic.ps_cover))
    |> String.concat "\n"
  in
  Printf.sprintf
    "feasible=%b explored=%d levels=%d fanout=[%s]\nbest: %s\ninitial: \
     %s\nbest-sig=%s\n%s"
    o.Search.feasible o.Search.explored o.Search.levels
    (String.concat ";" (List.map string_of_int o.Search.fanout))
    (cfg o.Search.best) (cfg o.Search.initial)
    (Sg.signature o.Search.best.Search.sg)
    covers

let json_pr6 ~smoke out_file =
  let specs =
    [
      ("search_optimize_lr", Expansion.four_phase Specs.lr, 6);
      ("search_optimize_par", Expansion.four_phase Specs.par, 4);
      ("search_optimize_mmu", Expansion.four_phase Specs.mmu, 4);
    ]
    |> List.map (fun (name, stg, width) ->
           (name, stg, Core.sg_exn stg, width))
  in
  let pool_jobs = max 2 !requested_jobs in
  let passes = if smoke then 1 else 5 in
  let measure tag mode =
    Harness.min_over_passes ~tag ~passes
      (List.map
         (fun (name, _, sg, width) ->
           ( name,
             fun () ->
               ignore
                 (Search.optimize ~w:0.8 ~size_frontier:width ~eval_mode:mode
                    sg) ))
         specs)
  in
  let delta_ns = measure "delta" `Delta in
  let scratch_ns = measure "scratch" `Scratch in
  (* Reuse + support counters over ONE fresh sequential search per kernel:
     cleared cover cache, zeroed stats, every decision made in this
     domain. *)
  let seq_counters =
    List.map
      (fun (name, _, sg, width) ->
        Boolf.Memo.clear ();
        Logic.reset_delta_stats ();
        let cs =
          Harness.counters_of (fun () ->
              ignore (Search.optimize ~w:0.8 ~size_frontier:width sg))
        in
        let d = Logic.delta_stats () in
        Printf.eprintf "stats   %-24s delta %d/%d inherited\n%!" name
          d.Logic.inherited
          (d.Logic.inherited + d.Logic.recomputed);
        (name, cs, d))
      specs
  in
  (* Same snapshot on the streamed scheduler: [search.steal] counts the
     candidate tasks the worker domains pulled off the level queues. *)
  let pooled_counters =
    List.map
      (fun (name, _, sg, width) ->
        Boolf.Memo.clear ();
        let cs =
          Harness.counters_of (fun () ->
              Pool.with_pool ~jobs:pool_jobs (fun p ->
                  ignore
                    (Search.optimize ~pool:p ~w:0.8 ~size_frontier:width sg)))
        in
        (name, cs))
      specs
  in
  (* Byte-identity: scratch/delta, sequential and streamed, must all
     render the same outcome. *)
  let identity =
    List.map
      (fun (name, stg, sg, width) ->
        let run ?pool mode =
          pr6_outcome_repr stg
            (Search.optimize ?pool ~w:0.8 ~size_frontier:width ~eval_mode:mode
               sg)
        in
        let reference = run `Scratch in
        let ok =
          List.for_all
            (fun mode ->
              run mode = reference
              && Pool.with_pool ~jobs:pool_jobs (fun p ->
                     run ~pool:p mode = reference))
            [ `Scratch; `Delta ]
        in
        Printf.eprintf "identity %-23s %s\n%!" name
          (if ok then "ok" else "DIVERGED");
        (name, string_of_bool ok))
      specs
  in
  let counters_json cs =
    Printf.sprintf "{ %s }"
      (String.concat ", "
         (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %d" k v) cs))
  in
  let j = Harness.Json.create () in
  Harness.Json.str j "bench" "BENCH_PR6";
  Harness.Json.bool j "smoke" smoke;
  Harness.Json.str j "units" "ns_per_run";
  Harness.Json.str j "baseline_commit"
    "36e7d0d (PR 5: flow-wide observability, disabled-mode timings)";
  Harness.Json.int j "pool_jobs" pool_jobs;
  Harness.Json.obj j "old_ns" pr6_baseline_ns;
  Harness.Json.obj j "old_same_box_ns" pr6_baseline_same_box_ns;
  Harness.Json.obj j "new_ns" delta_ns;
  Harness.Json.obj j "scratch_ns" scratch_ns;
  Harness.Json.obj ~fmt:"%.2f" j "speedup"
    (Harness.ratio pr6_baseline_ns delta_ns);
  Harness.Json.obj ~fmt:"%.2f" j "speedup_same_box"
    (Harness.ratio pr6_baseline_same_box_ns delta_ns);
  Harness.Json.obj_raw j "delta_reuse"
    (List.map
       (fun (name, cs, d) ->
         let total = d.Logic.inherited + d.Logic.recomputed in
         let c k = Option.value ~default:0 (List.assoc_opt k cs) in
         ( name,
           Printf.sprintf
             "{ \"inherited\": %d, \"recomputed\": %d, \"fraction\": %.3f, \
              \"support_hit\": %d, \"support_miss\": %d }"
             d.Logic.inherited d.Logic.recomputed
             (if total = 0 then 0.0
              else float_of_int d.Logic.inherited /. float_of_int total)
             (c "logic.delta.support_hit")
             (c "logic.delta.support_miss") ))
       seq_counters);
  Harness.Json.obj_raw j "counters"
    (List.map (fun (name, cs, _) -> (name, counters_json cs)) seq_counters);
  Harness.Json.obj_raw j "counters_pooled"
    (List.map (fun (name, cs) -> (name, counters_json cs)) pooled_counters);
  Harness.Json.obj_raw j "byte_identity" identity;
  Harness.Json.write j out_file;
  if List.exists (fun (_, ok) -> ok = "false") identity then begin
    print_endline
      "::error title=byte identity::evaluation modes or scheduling paths \
       diverged";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* PR 8: hash-consed netlist IR.  Per example: the tree-decomposition   *)
(* area (every driver an independent tree), the post-sharing area of    *)
(* the hash-consed graph, and the tech-mapped area over that graph;     *)
(* hash-cons hit rates from the netlist.cons.* counters over one build; *)
(* emission and full-state simulation kernel timings.                   *)

let json_pr8 ~smoke out_file =
  let resolved name spec =
    let sg = Core.sg_exn (Expansion.four_phase spec) in
    match Csc.resolve sg with
    | Error m -> failwith (name ^ ": " ^ m)
    | Ok r -> (name, r.Csc.sg, Logic.synthesize r.Csc.sg)
  in
  let ahb =
    let stg = Stg.Io.parse_file "examples/data/ahb_arbiter.g" in
    match Sg.of_stg ~warn:(fun _ -> ()) stg with
    | Error e -> failwith (Format.asprintf "ahb_arbiter: %a" Sg.pp_error e)
    | Ok sg -> ("ahb_arbiter", sg, Logic.synthesize sg)
  in
  let examples =
    [
      resolved "lr" Specs.lr;
      resolved "par" Specs.par;
      resolved "mmu" Specs.mmu;
      (* kept CSC conflicts: the netlist is still well-defined logic *)
      ahb;
    ]
  in
  let tree_area (impl : Logic.impl) =
    List.fold_left
      (fun acc si -> acc + Logic.driver_area si.Logic.driver)
      0 impl.Logic.per_signal
  in
  let areas =
    List.map
      (fun (name, _, impl) ->
        let nl = Netlist.of_impl impl in
        let dag = (Techmap.map_netlist nl).Techmap.area in
        let tre = (Techmap.map_impl_tree impl).Techmap.area in
        ( name,
          Printf.sprintf
            "{ \"tree\": %d, \"shared\": %d, \"mapped\": %d, \
             \"mapped_tree\": %d, \"live_nodes\": %d, \"gates\": %d }"
            (tree_area impl) (Netlist.area nl) (min dag tre) tre
            (Netlist.live_count nl) (Netlist.gate_count nl) ))
      examples
  in
  (* Hit rate of the hash-cons table over ONE construction of each
     example's netlist: the fraction of structurally duplicate requests
     served by sharing instead of fresh nodes. *)
  let cons_rates =
    List.map
      (fun (name, _, impl) ->
        let cs = Harness.counters_of (fun () -> ignore (Netlist.of_impl impl)) in
        let c k = Option.value ~default:0 (List.assoc_opt k cs) in
        let hit = c "netlist.cons.hit" and miss = c "netlist.cons.miss" in
        ( name,
          Printf.sprintf
            "{ \"hit\": %d, \"miss\": %d, \"fold\": %d, \"hit_rate\": %.3f }"
            hit miss
            (c "netlist.cons.fold")
            (if hit + miss = 0 then 0.0
             else float_of_int hit /. float_of_int (hit + miss)) ))
      examples
  in
  let ports sg =
    let stg = Sg.stg sg in
    let ins = ref [] and outs = ref [] and internals = ref [] in
    for i = Stg.n_signals stg - 1 downto 0 do
      match (Stg.signal stg i).Stg.Signal.kind with
      | Stg.Signal.Input -> ins := i :: !ins
      | Stg.Signal.Internal -> internals := i :: !internals
      | _ -> outs := i :: !outs
    done;
    (!ins, !outs, !internals)
  in
  let kernels =
    List.concat_map
      (fun (name, sg, impl) ->
        let nl = Netlist.of_impl impl in
        let stg = Sg.stg sg in
        let names =
          Array.init (Stg.n_signals stg) (fun i ->
              (Stg.signal stg i).Stg.Signal.name)
        in
        let inputs, outs, internals = ports sg in
        [
          (name ^ "_build", fun () -> ignore (Netlist.of_impl impl));
          ( name ^ "_emit_verilog",
            fun () ->
              ignore
                (Netlist.to_verilog ~module_name:name ~names ~inputs ~outs
                   ~internals nl) );
          ( name ^ "_emit_blif",
            fun () ->
              ignore
                (Netlist.to_blif ~model_name:name ~names ~inputs ~outs
                   ~internals nl) );
          ( name ^ "_simulate",
            fun () ->
              for s = 0 to Sg.n_states sg - 1 do
                ignore
                  (Netlist.next_values nl ~current:(fun i ->
                       Sg.value sg s i = 1))
              done );
        ])
      examples
  in
  let passes = if smoke then 1 else 5 in
  let times = Harness.min_over_passes ~passes kernels in
  let j = Harness.Json.create () in
  Harness.Json.str j "bench" "BENCH_PR8";
  Harness.Json.bool j "smoke" smoke;
  Harness.Json.str j "units" "ns_per_run";
  Harness.Json.obj_raw j "areas" areas;
  Harness.Json.obj_raw j "hash_cons" cons_rates;
  Harness.Json.obj j "ns" times;
  Harness.Json.write j out_file;
  (* Sharing must never lose to the tree decomposition; a regression
     here is a correctness bug in the constructor folds, not noise. *)
  List.iter
    (fun (name, _, impl) ->
      let nl = Netlist.of_impl impl in
      if Netlist.area nl > tree_area impl then begin
        Printf.printf
          "::error title=netlist area::%s: shared area %d exceeds tree area \
           %d\n"
          name (Netlist.area nl) (tree_area impl);
        exit 1
      end)
    examples

(* ------------------------------------------------------------------ *)
(* PR 9: portfolio search.  Baseline: the PR 6 delta path run once per  *)
(* arm — K standalone pooled searches, summed — vs ONE portfolio run    *)
(* over the same arms, pool and streaming session.  Per-arm byte        *)
(* identity against the standalone searches (sequential and pooled) is  *)
(* a hard gate; the >= 2x speed gate only arms on a genuinely multicore *)
(* box (>= 4 effective domains), because the portfolio's win is         *)
(* cross-arm sharing plus parallelism and a 1-2 core container can      *)
(* only show the sharing half.                                          *)

let json_pr9 ~smoke out_file =
  let specs =
    [
      ("lr", Expansion.four_phase Specs.lr, 6);
      ("par", Expansion.four_phase Specs.par, 4);
      ("mmu", Expansion.four_phase Specs.mmu, 4);
    ]
    |> List.map (fun (name, stg, width) ->
           (name, stg, Core.sg_exn stg, width))
  in
  let arms =
    [
      { Search.arm_w = 0.8; arm_area = `Tree };
      { Search.arm_w = 0.5; arm_area = `Tree };
      { Search.arm_w = 0.3; arm_area = `Tree };
      { Search.arm_w = 0.8; arm_area = `Shared };
    ]
  in
  let n_arms = List.length arms in
  let pool_jobs = max 2 !requested_jobs in
  let passes = if smoke then 1 else 5 in
  (* Timing mode follows the host: with real cores for the domains, time
     the pooled paths (what CI and any multicore user runs); on a serial
     host domains only add contention, so time the sequential paths —
     the mode the flow actually selects there.  Identity below always
     checks both. *)
  let serial_host = Pool.default_jobs () < 2 in
  Pool.with_pool ~jobs:pool_jobs @@ fun p ->
  let timing_pool = if serial_host then None else Some p in
  (* Per-arm standalone searches: the PR 6 way to explore K cost
     weightings is K independent runs — their sum is the baseline. *)
  let standalone_ns =
    Harness.min_over_passes ~tag:"standalone" ~passes
      (List.concat_map
         (fun (name, _, sg, width) ->
           List.mapi
             (fun i a ->
               ( Printf.sprintf "%s_arm%d" name i,
                 fun () ->
                   ignore
                     (Search.optimize ?pool:timing_pool ~w:a.Search.arm_w
                        ~area_mode:a.Search.arm_area ~size_frontier:width sg)
               ))
             arms)
         specs)
  in
  let portfolio_ns =
    Harness.min_over_passes ~tag:"portfolio" ~passes
      (List.map
         (fun (name, _, sg, width) ->
           ( name,
             fun () ->
               ignore
                 (Search.portfolio ?pool:timing_pool ~size_frontier:width
                    ~arms sg) ))
         specs)
  in
  let baseline_sum_ns =
    List.map
      (fun (name, _, _, _) ->
        ( name,
          List.fold_left ( +. ) 0.
            (List.mapi
               (fun i _ ->
                 List.assoc (Printf.sprintf "%s_arm%d" name i) standalone_ns)
               arms) ))
      specs
  in
  let speedup = Harness.ratio baseline_sum_ns portfolio_ns in
  (* Cross-arm table totals over one pooled run each. *)
  let stats =
    List.map
      (fun (name, _, sg, width) ->
        let po = Search.portfolio ~pool:p ~size_frontier:width ~arms sg in
        let st = po.Search.stats in
        let evals = st.Search.table_hits + st.Search.table_misses in
        ( name,
          Printf.sprintf
            "{ \"table_hits\": %d, \"table_misses\": %d, \"hit_rate\": %.3f }"
            st.Search.table_hits st.Search.table_misses
            (if evals = 0 then 0.0
             else float_of_int st.Search.table_hits /. float_of_int evals) ))
      specs
  in
  (* Byte identity: every arm of every portfolio variant must render the
     same outcome as its standalone sequential search. *)
  let identity =
    List.map
      (fun (name, stg, sg, width) ->
        let refs =
          List.map
            (fun a ->
              pr6_outcome_repr stg
                (Search.optimize ~w:a.Search.arm_w ~area_mode:a.Search.arm_area
                   ~size_frontier:width sg))
            arms
        in
        let matches po =
          List.for_all2
            (fun r (ao : Search.arm_outcome) ->
              String.equal r (pr6_outcome_repr stg ao.Search.outcome))
            refs
            (Array.to_list po.Search.arms)
        in
        let ok =
          matches (Search.portfolio ~size_frontier:width ~arms sg)
          && matches (Search.portfolio ~pool:p ~size_frontier:width ~arms sg)
        in
        Printf.eprintf "identity %-23s %s\n%!" name
          (if ok then "ok" else "DIVERGED");
        (name, string_of_bool ok))
      specs
  in
  (* The MMU search amortized per arm, against the recorded PR 6 delta
     baseline and against this box's own PR 6-path re-measurement (arm 0
     standalone is exactly the PR 6 delta search at w=0.8, pooled or
     sequential per the timing mode). *)
  let mmu_per_arm = List.assoc "mmu" portfolio_ns /. float_of_int n_arms in
  let mmu_remeasured = List.assoc "mmu_arm0" standalone_ns in
  let j = Harness.Json.create () in
  Harness.Json.str j "bench" "BENCH_PR9";
  Harness.Json.bool j "smoke" smoke;
  Harness.Json.str j "units" "ns_per_run";
  Harness.Json.int j "pool_jobs" pool_jobs;
  Harness.Json.int j "host_default_jobs" (Pool.default_jobs ());
  Harness.Json.str j "timing_mode"
    (if serial_host then "sequential" else "pooled");
  Harness.Json.raw j "arms"
    (Printf.sprintf "[ %s ]"
       (String.concat ", "
          (List.map
             (fun a ->
               Printf.sprintf "{ \"w\": %.2f, \"area\": \"%s\" }"
                 a.Search.arm_w
                 (match a.Search.arm_area with
                 | `Tree -> "tree"
                 | `Shared -> "shared"))
             arms)));
  Harness.Json.obj j "standalone_arm_ns" standalone_ns;
  Harness.Json.obj j "baseline_sum_ns" baseline_sum_ns;
  Harness.Json.obj j "portfolio_ns" portfolio_ns;
  Harness.Json.obj ~fmt:"%.2f" j "speedup_vs_arm_sum" speedup;
  Harness.Json.raw j "mmu_portfolio_per_arm_ns"
    (Printf.sprintf "%.0f" mmu_per_arm);
  Harness.Json.raw j "mmu_pr6_path_remeasured_ns"
    (Printf.sprintf "%.0f" mmu_remeasured);
  Harness.Json.raw j "mmu_per_arm_speedup_vs_pr6"
    (Printf.sprintf "%.2f"
       (List.assoc "search_optimize_mmu" pr6_baseline_ns /. mmu_per_arm));
  Harness.Json.raw j "mmu_per_arm_speedup_vs_pr6_same_box"
    (Printf.sprintf "%.2f"
       (List.assoc "search_optimize_mmu" pr6_baseline_same_box_ns
       /. mmu_per_arm));
  Harness.Json.obj_raw j "portfolio_stats" stats;
  Harness.Json.obj_raw j "byte_identity" identity;
  Harness.Json.write j out_file;
  if List.exists (fun (_, ok) -> ok = "false") identity then begin
    print_endline
      "::error title=portfolio identity::a portfolio arm diverged from its \
       standalone search";
    exit 1
  end;
  let multicore = Pool.jobs p >= 4 && Pool.default_jobs () >= 4 in
  if (not smoke) && multicore then begin
    let s = List.assoc "mmu" speedup in
    if s < 2.0 then begin
      Printf.printf
        "::error title=portfolio speed::MMU portfolio only %.2fx the per-arm \
         baseline sum (>= 2x required on a multicore box)\n"
        s;
      exit 1
    end
  end

(* ------------------------------------------------------------------ *)
(* PR 10: the synthesis service.  Cold-vs-warm reduce latency through a *)
(* real Unix-socket round trip against `Serve.Server`: the cold request *)
(* runs the full CLI flow, the warm repeat replays the memory tier, and *)
(* a restart on the same cache directory replays the disk tier.  The    *)
(* live metrics payload (hit rate, queue depth, latency reservoir) is   *)
(* snapshotted into the report.  Full runs gate warm >= 10x cold on     *)
(* every spec; [--smoke] records the numbers without the gate.          *)

let json_pr10 ~smoke out_file =
  let specs =
    [
      ("lr", Expansion.four_phase Specs.lr);
      ("par", Expansion.four_phase Specs.par);
      ("mmu", Expansion.four_phase Specs.mmu);
    ]
    |> List.map (fun (name, stg) -> (name, Stg.Io.print stg))
  in
  let dir = Filename.temp_file "astg_serve_bench" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let sock = Filename.concat dir "sock" in
  let cache = Filename.concat dir "cache" in
  let request_line id spec =
    Serve.Json.to_string
      (Serve.Json.Obj
         [
           ("id", Serve.Json.Str id);
           ("op", Serve.Json.Str "reduce");
           ("spec", Serve.Json.Str spec);
         ])
  in
  let get name j =
    match Serve.Json.member name j with
    | Some v -> v
    | None -> failwith ("response lacks " ^ name)
  in
  (* One timed round trip; returns (response, ns) and checks the
     expected cache tier so a mis-timed number can't slip through. *)
  let timed_request c ~id ~tier spec =
    let t0 = Unix.gettimeofday () in
    let resp = Serve.Json.parse (Serve.Client.request c (request_line id spec)) in
    let ns = (Unix.gettimeofday () -. t0) *. 1e9 in
    (match get "ok" resp with
    | Serve.Json.Bool true -> ()
    | _ -> failwith ("request failed: " ^ Serve.Json.to_string resp));
    (match get "tier" resp with
    | Serve.Json.Str t when t = tier -> ()
    | j ->
        failwith
          (Printf.sprintf "expected tier %s, got %s" tier
             (Serve.Json.to_string j)));
    (resp, ns)
  in
  let passes = if smoke then 3 else 30 in
  let srv = Serve.Server.start ~workers:2 ~cache_dir:cache (`Unix sock) in
  let c = Serve.Client.connect (`Unix sock) in
  (* Cold: the first request computes through the full CLI flow. *)
  let cold_ns =
    List.map
      (fun (name, spec) ->
        let resp, ns = timed_request c ~id:(name ^ "-cold") ~tier:"compute" spec in
        ignore resp;
        Printf.eprintf "cold    %-6s %14.0f ns\n%!" name ns;
        (name, ns))
      specs
  in
  (* Warm: repeats replay the memory tier; keep the per-spec minimum
     (the same estimator every other report uses). *)
  let warm_ns =
    List.map
      (fun (name, spec) ->
        let best = ref infinity in
        for i = 1 to passes do
          let _, ns =
            timed_request c ~id:(Printf.sprintf "%s-warm%d" name i) ~tier:"mem"
              spec
          in
          if ns < !best then best := ns
        done;
        Printf.eprintf "warm    %-6s %14.0f ns\n%!" name !best;
        (name, !best))
      specs
  in
  let metrics =
    let resp =
      Serve.Json.parse
        (Serve.Client.request c {|{"id":"m","op":"metrics"}|})
    in
    Serve.Json.to_string (get "result" resp)
  in
  Serve.Client.close c;
  Serve.Server.stop srv;
  (* Restart on the same cache directory: the first request per spec is
     served from the disk tier without recomputing. *)
  let srv2 = Serve.Server.start ~workers:2 ~cache_dir:cache (`Unix sock) in
  let c2 = Serve.Client.connect (`Unix sock) in
  let disk_ns =
    List.map
      (fun (name, spec) ->
        let _, ns = timed_request c2 ~id:(name ^ "-disk") ~tier:"disk" spec in
        Printf.eprintf "disk    %-6s %14.0f ns\n%!" name ns;
        (name, ns))
      specs
  in
  Serve.Client.close c2;
  Serve.Server.stop srv2;
  let speedup =
    List.map2
      (fun (name, cold) (_, warm) ->
        (name, if warm > 0.0 then cold /. warm else 0.0))
      cold_ns warm_ns
  in
  let j = Harness.Json.create () in
  Harness.Json.str j "bench" "BENCH_PR10";
  Harness.Json.bool j "smoke" smoke;
  Harness.Json.str j "units" "ns_per_request";
  Harness.Json.str j "transport" "unix socket, newline-delimited JSON";
  Harness.Json.int j "warm_passes" passes;
  Harness.Json.obj j "cold_ns" cold_ns;
  Harness.Json.obj j "warm_ns" warm_ns;
  Harness.Json.obj j "disk_restart_ns" disk_ns;
  Harness.Json.obj ~fmt:"%.2f" j "warm_speedup" speedup;
  Harness.Json.raw j "metrics" metrics;
  Harness.Json.write j out_file;
  if not smoke then
    List.iter
      (fun (name, s) ->
        if s < 10.0 then begin
          Printf.printf
            "::error title=serve cache::%s warm hit only %.2fx faster than \
             the cold compute (>= 10x required)\n"
            name s;
          exit 1
        end)
      speedup

(* ------------------------------------------------------------------ *)
(* One full MMU flow pass: the smallest section that exercises every    *)
(* instrumented phase (parse/expand -> SG -> search -> CSC -> logic ->  *)
(* mapping), sized for `--trace FILE` runs.                             *)

let mmu_flow () =
  section_header "MMU controller: one full flow pass";
  let sg = Core.sg_exn (Expansion.four_phase Specs.mmu) in
  let r = Core.optimize ~name:"MMU" ~w:0.8 ~size_frontier:4 sg in
  columns ();
  our_row r

(* ------------------------------------------------------------------ *)

let sections =
  [
    ("fig1", fig1);
    ("fig2", fig2);
    ("table1", table1);
    ("fig6", fig6);
    ("fig8", fig8);
    ("frontier", frontier);
    ("par", par);
    ("table2", table2);
    ("mmu", mmu_flow);
    ("corpus", corpus);
    ("pareto", pareto);
    ("ablation", ablation);
    ("parallel", parallel_section);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if List.mem "--backend" args then begin
    print_endline Pool.backend;
    exit 0
  end;
  (* Extract `--jobs N`, `--trace FILE`, and `--metrics` before anything
     else interprets the arguments. *)
  let trace_file = ref None in
  let metrics = ref false in
  let args =
    let rec strip = function
      | "--jobs" :: n :: rest ->
          (match int_of_string_opt n with
          | Some j when j >= 1 -> requested_jobs := j
          | Some _ | None ->
              Printf.eprintf "--jobs expects a positive integer, got %s\n" n;
              exit 2);
          strip rest
      | "--trace" :: f :: rest ->
          trace_file := Some f;
          strip rest
      | "--metrics" :: rest ->
          metrics := true;
          strip rest
      | a :: rest -> a :: strip rest
      | [] -> []
    in
    strip args
  in
  if !trace_file <> None || !metrics then Obs.set_enabled true;
  if List.mem "--json-pr10" args then begin
    let smoke = List.mem "--smoke" args in
    let out =
      match
        List.filter (fun a -> a <> "--json-pr10" && a <> "--smoke") args
      with
      | [ f ] -> f
      | _ -> "BENCH_PR10.json"
    in
    json_pr10 ~smoke out;
    exit 0
  end;
  if List.mem "--json-pr9" args then begin
    let smoke = List.mem "--smoke" args in
    let out =
      match
        List.filter (fun a -> a <> "--json-pr9" && a <> "--smoke") args
      with
      | [ f ] -> f
      | _ -> "BENCH_PR9.json"
    in
    json_pr9 ~smoke out;
    exit 0
  end;
  if List.mem "--json-pr8" args then begin
    let smoke = List.mem "--smoke" args in
    let out =
      match
        List.filter (fun a -> a <> "--json-pr8" && a <> "--smoke") args
      with
      | [ f ] -> f
      | _ -> "BENCH_PR8.json"
    in
    json_pr8 ~smoke out;
    exit 0
  end;
  if List.mem "--json-pr6" args then begin
    let smoke = List.mem "--smoke" args in
    let out =
      match
        List.filter (fun a -> a <> "--json-pr6" && a <> "--smoke") args
      with
      | [ f ] -> f
      | _ -> "BENCH_PR6.json"
    in
    json_pr6 ~smoke out;
    exit 0
  end;
  if List.mem "--json-pr5" args then begin
    let smoke = List.mem "--smoke" args in
    let check_overhead = List.mem "--check-overhead" args in
    let out =
      match
        List.filter
          (fun a ->
            a <> "--json-pr5" && a <> "--smoke" && a <> "--check-overhead")
          args
      with
      | [ f ] -> f
      | _ -> "BENCH_PR5.json"
    in
    json_pr5 ~smoke ~check_overhead out;
    exit 0
  end;
  if List.mem "--json-pr4" args then begin
    let smoke = List.mem "--smoke" args in
    let annotate = List.mem "--annotate" args in
    let out =
      match
        List.filter
          (fun a -> a <> "--json-pr4" && a <> "--smoke" && a <> "--annotate")
          args
      with
      | [ f ] -> f
      | _ -> "BENCH_PR4.json"
    in
    json_pr4 ~smoke ~annotate out;
    exit 0
  end;
  if List.mem "--json-pr3" args || List.mem "--smoke" args then begin
    let smoke = List.mem "--smoke" args in
    let out =
      match
        List.filter (fun a -> a <> "--json-pr3" && a <> "--smoke") args
      with
      | [ f ] -> f
      | _ -> "BENCH_PR3.json"
    in
    json_pr3 ~smoke out;
    exit 0
  end;
  if List.mem "--json-pr2" args then begin
    let out =
      match List.filter (fun a -> a <> "--json-pr2") args with
      | [ f ] -> f
      | _ -> "BENCH_PR2.json"
    in
    json_pr2 out;
    exit 0
  end;
  if List.mem "--json" args then begin
    let out =
      match List.filter (fun a -> a <> "--json") args with
      | [ f ] -> f
      | _ -> "BENCH_PR1.json"
    in
    json_bench out;
    exit 0
  end;
  let no_timing = List.mem "--no-timing" args in
  let wanted = List.filter (fun a -> a <> "--no-timing") args in
  let to_run =
    if wanted = [] then sections
    else
      List.filter_map
        (fun name ->
          match List.assoc_opt name sections with
          | Some f -> Some (name, f)
          | None ->
              Printf.eprintf "unknown section %s (have: %s)\n" name
                (String.concat " " (List.map fst sections));
              None)
        wanted
  in
  List.iter (fun (_, f) -> f ()) to_run;
  if (not no_timing) && wanted = [] then bechamel_timings ();
  if !metrics then print_string (Obs.summary ());
  match !trace_file with
  | None -> ()
  | Some f -> (
      Obs.write_chrome_trace f;
      Printf.printf "wrote %s\n" f;
      match Obs.Chrome.validate (Obs.chrome_trace ()) with
      | Ok () -> Printf.printf "trace %s: valid (well-nested, monotone)\n" f
      | Error msg ->
          Printf.eprintf "trace %s: INVALID: %s\n" f msg;
          exit 1)
