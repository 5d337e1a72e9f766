(* Campaign-level tests for the fuzzing stack:

   - the choice-net generator families ([Gen.fc]/[Gen.ac]) really are
     safe, live, consistent and in their advertised structural class, and
     their shrinkers preserve all of it;
   - the differential contract at scale: hundreds of random specs from
     all three classes through the full [Fuzz.run_case] pipeline — every
     evaluation mode and portfolio arm byte-identical — with zero
     unclassified failures;
   - the campaign is reproducible: same seed, same report bytes;
   - the AMBA-AHB workload suite synthesizes to its golden numbers. *)

let silent_sg stg =
  match Sg.of_stg ~warn:(fun _ -> ()) stg with
  | Ok sg -> sg
  | Error e -> Alcotest.fail (Format.asprintf "SG: %a" Sg.pp_error e)

(* ---- generator invariants ---------------------------------------- *)

let check_structure name stg ~free_choice ~asym_choice =
  let net = stg.Stg.net in
  Alcotest.(check bool) (name ^ " safe") true (Petri.is_safe net);
  Alcotest.(check bool) (name ^ " deadlock-free") true (Petri.deadlock_free net);
  Alcotest.(check bool) (name ^ " free-choice") free_choice
    (Petri.is_free_choice net);
  Alcotest.(check bool)
    (name ^ " asymmetric-choice") asym_choice
    (Petri.is_asymmetric_choice net);
  ignore (silent_sg stg)

let fc_invariants () =
  for seed = 1 to 100 do
    let stg = Gen.random_fc_stg ~max_signals:4 seed in
    (* Free choice implies asymmetric choice (containment is trivial). *)
    check_structure
      (Printf.sprintf "fc %d" seed)
      stg ~free_choice:true ~asym_choice:true
  done

let ac_invariants () =
  for seed = 1 to 100 do
    match Gen.random_case ~cls:`Ac seed with
    | Gen.Ac clients as case ->
        let stg = Gen.case_to_stg case in
        (* A single client has no competition, so the net degenerates to a
           free-choice (in fact marked-graph-like) cycle; with two or more
           the grant cell is properly asymmetric. *)
        check_structure
          (Printf.sprintf "ac %d" seed)
          stg
          ~free_choice:(List.length clients < 2)
          ~asym_choice:true
    | _ -> Alcotest.fail "random_case `Ac did not build an Ac case"
  done

let shrinker_preserves_invariants () =
  List.iter
    (fun cls ->
      for seed = 1 to 25 do
        let case = Gen.random_case ~cls seed in
        Gen.shrink_case case (fun case' ->
            let name =
              Printf.sprintf "%s %d ~> %s" (Gen.class_name cls) seed
                (Gen.case_to_string case')
            in
            let stg = Gen.case_to_stg case' in
            Alcotest.(check bool)
              (name ^ " class preserved") true
              (Gen.case_class case' = cls);
            Alcotest.(check bool) (name ^ " safe") true
              (Petri.is_safe stg.Stg.net);
            Alcotest.(check bool)
              (name ^ " deadlock-free") true
              (Petri.deadlock_free stg.Stg.net);
            ignore (silent_sg stg))
      done)
    Gen.all_classes

(* ---- the campaign at scale ---------------------------------------- *)

let outcome_total r =
  List.fold_left (fun acc (_, n) -> acc + n) 0 r.Fuzz.r_outcomes

let campaign_zero_failures () =
  let r = Fuzz.run ~count:210 ~seed:7 () in
  List.iter
    (fun f ->
      Printf.printf "unexpected failure: %s %d: %s\n%s\n"
        (Gen.class_name f.Fuzz.f_cls) f.Fuzz.f_seed
        (Fuzz.kind_tag f.Fuzz.f_kind) f.Fuzz.f_repro)
    r.Fuzz.r_failures;
  Alcotest.(check int) "no failures" 0 (List.length r.Fuzz.r_failures);
  Alcotest.(check int) "every case tallied" 210 (outcome_total r);
  Alcotest.(check int)
    "every class drawn" 3
    (List.length (List.filter (fun (_, n) -> n > 0) r.Fuzz.r_cases));
  (* The campaign records counters from the eval-mode searches. *)
  Alcotest.(check bool) "counters recorded" true (r.Fuzz.r_counters <> [])

let campaign_deterministic () =
  let run () = Fuzz.run ~count:50 ~seed:11 () in
  let a = Fuzz.report_to_json (run ()) and b = Fuzz.report_to_json (run ()) in
  Alcotest.(check string) "same seed, same report bytes" a b

let run_case_passes () =
  List.iter
    (fun cls ->
      let case = Gen.random_case ~cls 1 in
      Alcotest.(check string)
        (Gen.class_name cls ^ " seed 1 passes")
        "pass"
        (Fuzz.outcome_tag (Fuzz.run_case case)))
    Gen.all_classes

(* ---- the AMBA-AHB workload suite ---------------------------------- *)

let data f = Filename.concat (Test_roundtrip.examples_dir ()) f

let ahb_arbiter_golden () =
  let stg = Stg.Io.parse_file (data "ahb_arbiter.g") in
  Alcotest.(check bool) "not free-choice" false (Petri.is_free_choice stg.Stg.net);
  Alcotest.(check bool)
    "asymmetric-choice" true
    (Petri.is_asymmetric_choice stg.Stg.net);
  let sg = silent_sg stg in
  Alcotest.(check int) "states" 20 (Sg.n_states sg);
  Alcotest.(check bool)
    "output arbitration is not SI" false
    (Sg.is_speed_independent sg);
  (* The search still runs on the non-SI spec, and the best reduced SG is
     realizable by region synthesis. *)
  let o = Search.optimize ~w:0.8 ~size_frontier:3 sg in
  Alcotest.(check bool) "search reduced" true (o.Search.best.Search.applied <> []);
  match Regions.synthesize o.Search.best.Search.sg with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Regions.error_to_string e)

let ahb_master_golden () =
  let stg = Stg.Io.parse_file (data "ahb_master.g") in
  Alcotest.(check bool) "marked graph" true (Petri.is_marked_graph stg.Stg.net);
  let sg = silent_sg stg in
  Alcotest.(check int) "states" 12 (Sg.n_states sg);
  Alcotest.(check bool) "speed-independent" true (Sg.is_speed_independent sg);
  let direct = Core.implement ~name:"direct" sg in
  let optimized = Core.optimize ~name:"optimized" ~w:0.8 ~size_frontier:3 sg in
  Alcotest.(check (option int)) "direct area" (Some 88) direct.Core.area;
  Alcotest.(check (option int)) "optimized area" (Some 88) optimized.Core.area;
  Alcotest.(check (option bool)) "verified" (Some true) optimized.Core.verified;
  Alcotest.(check (option int)) "no CSC signals" (Some 0) optimized.Core.csc_signals

let ahb_master_spec_is_a_fixpoint () =
  let text = In_channel.with_open_text (data "ahb_master.g") In_channel.input_all in
  let printed = Stg.Io.print (Stg.Io.parse text) in
  Alcotest.(check string)
    "print (parse (print (parse spec))) = print (parse spec)" printed
    (Stg.Io.print (Stg.Io.parse printed))

let suite =
  [
    Alcotest.test_case "fc generator invariants" `Quick fc_invariants;
    Alcotest.test_case "ac generator invariants" `Quick ac_invariants;
    Alcotest.test_case "shrinkers preserve invariants" `Quick
      shrinker_preserves_invariants;
    Alcotest.test_case "210-case campaign has zero failures" `Slow
      campaign_zero_failures;
    Alcotest.test_case "campaign report is deterministic" `Slow
      campaign_deterministic;
    Alcotest.test_case "run_case passes on seed 1 of every class" `Quick
      run_case_passes;
    Alcotest.test_case "AHB arbiter golden flow" `Quick ahb_arbiter_golden;
    Alcotest.test_case "AHB master golden flow" `Quick ahb_master_golden;
    Alcotest.test_case "AHB master .g round-trip" `Quick
      ahb_master_spec_is_a_fixpoint;
  ]
