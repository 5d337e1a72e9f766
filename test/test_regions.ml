(* Tests for region-based Petri net synthesis (the paper's step 5). *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fig1_sg () = Gen.sg_exn (Specs.fig1 ())

let test_crossing () =
  let stg = Specs.fig1 () in
  let sg = Gen.sg_exn stg in
  (* ER(Ack+) = {s0}; Ack+ exits it, Req- does not cross it. *)
  let er = Sg.er sg (Core.lab stg "Ack+") in
  check "Ack+ exits its ER" true
    (Regions.crossing sg er (Core.lab stg "Ack+") = Regions.Exits);
  (* The set of all states is trivially a region. *)
  check "full set is a region" true (Regions.is_region sg (Sg.states sg));
  check "empty set is a region" true (Regions.is_region sg [])

let test_not_region () =
  let stg = Specs.fig1 () in
  let sg = Gen.sg_exn stg in
  (* {s0, s1}: Ack+ goes s0->s1 (inside), Req- exits, Ack- enters from s3
     and s4 -> check a set that mixes crossings for one label. *)
  (* ER(Req+) = {2, 4}; Req+ arcs: 2->3 and 4->0: from {2} alone, Req+
     has one exiting arc (2->3) and one outside arc (4->0): violation. *)
  check "partial ER is not a region" false (Regions.is_region sg [ 2 ])

let test_minimal_regions_fig1 () =
  let sg = fig1_sg () in
  let regions = Regions.minimal_regions sg in
  check "found regions" true (List.length regions > 0);
  (* All returned sets really are regions, proper and nonempty. *)
  check "all are regions" true
    (List.for_all (fun r -> Regions.is_region sg r) regions);
  check "proper subsets" true
    (List.for_all
       (fun r -> r <> [] && List.length r < Sg.n_states sg)
       regions);
  (* Minimality: no region strictly contains another. *)
  let subset r1 r2 = List.for_all (fun s -> List.mem s r2) r1 in
  check "minimal" true
    (List.for_all
       (fun r1 ->
         List.for_all
           (fun r2 -> r1 == r2 || not (subset r2 r1 && r1 <> r2))
           regions)
       regions)

let test_synthesize_fig1 () =
  let sg = fig1_sg () in
  match Regions.synthesize sg with
  | Ok stg' ->
      let sg' = Gen.sg_exn stg' in
      Alcotest.(check string)
        "label-isomorphic" (Sg.signature sg) (Sg.signature sg');
      check "signals preserved" true (Stg.n_signals stg' = 2)
  | Error e -> Alcotest.fail (Regions.error_to_string e)

let test_synthesize_lr () =
  let stg = Expansion.four_phase Specs.lr in
  let sg = Gen.sg_exn stg in
  match Regions.synthesize sg with
  | Ok stg' ->
      Alcotest.(check string)
        "label-isomorphic" (Sg.signature sg)
        (Sg.signature (Gen.sg_exn stg'))
  | Error e -> Alcotest.fail (Regions.error_to_string e)

let test_synthesize_reduced_par () =
  (* The case that motivated regions: a reduced PAR SG that simple
     causality places cannot realize. *)
  let stg = Expansion.four_phase Specs.par in
  let sg = Gen.sg_exn stg in
  let l = Core.lab stg in
  let outcome =
    Search.optimize ~w:0.9 ~size_frontier:12
      ~keep_conc:[ (l "bi+", l "ci+") ]
      sg
  in
  let reduced = outcome.Search.best.Search.sg in
  match Regions.synthesize reduced with
  | Ok stg' ->
      Alcotest.(check string)
        "label-isomorphic" (Sg.signature reduced)
        (Sg.signature (Gen.sg_exn stg'))
  | Error e -> Alcotest.fail (Regions.error_to_string e)

let test_budget () =
  let sg = fig1_sg () in
  (* A tiny budget returns no regions and synthesis fails gracefully. *)
  match Regions.synthesize ~budget:1 sg with
  | Error _ -> ()
  | Ok _ -> check "tiny budget may still succeed on tiny SGs" true true

let prop_rings_synthesize =
  QCheck.Test.make ~name:"rings synthesize back to label-isomorphic STGs"
    ~count:15
    QCheck.(pair (int_range 1 5) (int_range 0 2))
    (fun (n, inputs) ->
      QCheck.assume (inputs <= n);
      let sg = Gen.sg_exn (Gen.ring ~inputs n) in
      match Regions.synthesize sg with
      | Ok stg' ->
          String.equal (Sg.signature sg) (Sg.signature (Gen.sg_exn stg'))
      | Error _ -> false)

let prop_forkjoin_synthesize =
  QCheck.Test.make ~name:"fork-joins synthesize back (regions handle true
concurrency)" ~count:8
    QCheck.(int_range 1 4)
    (fun width ->
      let sg = Gen.sg_exn (Gen.fork_join width) in
      match Regions.synthesize sg with
      | Ok stg' ->
          String.equal (Sg.signature sg) (Sg.signature (Gen.sg_exn stg'))
      | Error _ -> false)

let prop_regions_are_regions =
  QCheck.Test.make ~name:"minimal_regions returns only regions" ~count:10
    QCheck.(int_range 0 3_000)
    (fun seed ->
      let stg = Expansion.four_phase (Gen.random_spec seed) in
      let sg = Gen.sg_exn stg in
      QCheck.assume (Sg.n_states sg <= 120);
      List.for_all
        (fun r -> Regions.is_region sg r)
        (Regions.minimal_regions sg))

let suite =
  [
    Alcotest.test_case "crossing classification" `Quick test_crossing;
    Alcotest.test_case "non-region detection" `Quick test_not_region;
    Alcotest.test_case "minimal regions of fig1" `Quick
      test_minimal_regions_fig1;
    Alcotest.test_case "synthesize fig1" `Quick test_synthesize_fig1;
    Alcotest.test_case "synthesize LR" `Quick test_synthesize_lr;
    Alcotest.test_case "synthesize reduced PAR" `Slow
      test_synthesize_reduced_par;
    Alcotest.test_case "budget" `Quick test_budget;
    QCheck_alcotest.to_alcotest prop_rings_synthesize;
    QCheck_alcotest.to_alcotest prop_forkjoin_synthesize;
    QCheck_alcotest.to_alcotest prop_regions_are_regions;
  ]

(* ---- more edge cases ---- *)

let test_crossing_enters () =
  let stg = Specs.fig1 () in
  let sg = Gen.sg_exn stg in
  (* The set of states entered by Ack+ (its switching region): Ack+ enters
     it, and it is reached only through Ack+ arcs. *)
  let targets =
    List.concat_map
      (fun s -> Sg.succ_by_label sg s (Core.lab stg "Ack+"))
      (Sg.er sg (Core.lab stg "Ack+"))
    |> List.sort_uniq compare
  in
  check "Ack+ enters its switching region" true
    (Regions.crossing sg targets (Core.lab stg "Ack+") = Regions.Enters)

let test_synthesize_corpus () =
  (* Region synthesis round-trips every corpus controller. *)
  List.iter
    (fun (name, stg) ->
      let sg = Gen.sg_exn stg in
      match Regions.synthesize sg with
      | Ok stg' ->
          check (name ^ " round-trips") true
            (String.equal (Sg.signature sg) (Sg.signature (Gen.sg_exn stg')))
      | Error e -> Alcotest.failf "%s: %s" name (Regions.error_to_string e))
    (Specs.Corpus.all ())

let test_minimal_regions_marked_graph () =
  (* In a live marked-graph SG, every minimal region corresponds to a
     place-like set: all are proper and pairwise incomparable (checked by
     the minimality test); also the initial state lies in at least one. *)
  let sg = Gen.sg_exn (Gen.ring ~inputs:1 3) in
  let regions = Regions.minimal_regions sg in
  check "initial state covered" true
    (List.exists (fun r -> List.mem (Sg.initial sg) r) regions)

let test_budget_exhausted_is_typed () =
  (* With no exploration budget, no region can be found: the typed error
     says so instead of producing a bogus net. *)
  let sg = Gen.sg_exn (Gen.ring ~inputs:1 2) in
  match Regions.synthesize ~budget:0 sg with
  | Error (Regions.Unsupported Regions.Budget_exhausted) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Regions.error_to_string e)
  | Ok _ -> Alcotest.fail "synthesized with a zero budget"

let test_error_rendering () =
  (* Every typed constructor renders distinctly, and [Unsupported] is
     visibly a class limit rather than an internal bug. *)
  let cases =
    [
      (Regions.Unsupported (Regions.Not_excitation_closed "x+"), "unsupported");
      (Regions.Unsupported (Regions.State_separation (0, 4)), "unsupported");
      (Regions.Unsupported Regions.Budget_exhausted, "unsupported");
      (Regions.Invalid "bug", "internal");
    ]
  in
  let renderings = List.map (fun (e, _) -> Regions.error_to_string e) cases in
  List.iter2
    (fun (_, prefix) msg ->
      check
        (Printf.sprintf "%S starts with %S" msg prefix)
        true
        (String.length msg >= String.length prefix
        && String.sub msg 0 (String.length prefix) = prefix))
    cases renderings;
  check "renderings are distinct" true
    (List.length (List.sort_uniq compare renderings) = List.length renderings)

let test_choice_nets_never_invalid () =
  (* Over random free-choice and arbiter specs, raw and reduced as
     [astg reduce -w 0.8] reduces them (the search's best, the graph it
     hands to realization), synthesis either succeeds or reports a typed
     class limit ([Unsupported]); [Invalid] would mean the verifier
     caught our own mis-synthesis. *)
  List.iter
    (fun cls ->
      for seed = 1 to 40 do
        let stg = Gen.case_to_stg (Gen.random_case ~cls seed) in
        match Sg.of_stg ~warn:(fun _ -> ()) stg with
        | Error _ -> Alcotest.failf "%s %d: inconsistent" (Gen.class_name cls) seed
        | Ok sg ->
            let check_sg which sg =
              match Regions.synthesize sg with
              | Ok _ | Error (Regions.Unsupported _) -> ()
              | Error (Regions.Invalid msg) ->
                  Alcotest.failf "%s %s %d: invalid synthesis: %s" which
                    (Gen.class_name cls) seed msg
            in
            check_sg "raw" sg;
            check_sg "reduced" (Search.optimize ~w:0.8 sg).Search.best.Search.sg
      done)
    [ `Fc; `Ac ]

let suite =
  suite
  @ [
      Alcotest.test_case "crossing enters" `Quick test_crossing_enters;
      Alcotest.test_case "synthesize corpus" `Slow test_synthesize_corpus;
      Alcotest.test_case "regions cover initial" `Quick
        test_minimal_regions_marked_graph;
      Alcotest.test_case "budget exhaustion is typed" `Quick
        test_budget_exhausted_is_typed;
      Alcotest.test_case "typed errors render distinctly" `Quick
        test_error_rendering;
      Alcotest.test_case "choice nets never yield Invalid" `Slow
        test_choice_nets_never_invalid;
    ]
