(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md for the experiment index).

   Usage:  main.exe [section ...]   run the named sections (default: all)
           main.exe --backend       print the pool backend and exit
   Sections: fig1 fig2 table1 fig6 fig8 frontier par table2 corpus pareto
   ablation.  An unknown section name exits 2 without running anything. *)

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
    (Sg.csc_conflict_count sg_unc);
  let protocol = Expansion.four_phase Specs.lr in
  Printf.printf "-- valid expansion with interface constraints (Fig. 2.f):\n%s"
    (Stg.Io.print protocol);
  let sg = Core.sg_exn protocol in
  Printf.printf "   states=%d speed-independent=%b csc-conflict pairs=%d\n"
    (Sg.n_states sg)
    (Sg.is_speed_independent sg)
    (Sg.csc_conflict_count sg)

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
    ("corpus", corpus);
    ("pareto", pareto);
    ("ablation", ablation);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if List.mem "--backend" args then print_endline Pool.backend
  else
    match List.filter (fun a -> not (List.mem_assoc a sections)) args with
    | [] ->
        let wanted = if args = [] then List.map fst sections else args in
        List.iter (fun name -> (List.assoc name sections) ()) wanted
    | unknown ->
        List.iter
          (fun name ->
            Printf.eprintf "unknown section %s (have: %s)\n" name
              (String.concat " " (List.map fst sections)))
          unknown;
        exit 2
