(* Cross-check of the three reachability engines over the same nets:

     - explicit marking enumeration ({!Petri.reachable}),
     - explicit state-graph construction ({!Sg.of_stg} — states are
       (marking, parity) pairs, so the DISTINCT MARKINGS among its states
       are compared, not the state count: toggle STGs visit a marking
       under several parities),
     - symbolic BDD fixpoint ({!Symbolic.Space}).

   All three must agree on the set of reachable markings; the symbolic
   deadlock verdict must match the explicit one.  Runs over every shipped
   example and over random safe nets from {!Gen}; two more nets, one too
   large to check by hand and one not safe, compare the explicit two
   alone. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Distinct markings among the SG's states, as sorted lists of token
   vectors. *)
let sg_markings sg =
  List.sort_uniq compare
    (List.map (fun s -> Array.to_list (Sg.marking sg s)) (Sg.states sg))

let explicit_deadlock net markings =
  List.exists (fun m -> Petri.enabled_all net m = []) markings

let crosscheck_net name net =
  let explicit = Petri.reachable net in
  let sp = Symbolic.Space.of_net net in
  check_int
    (name ^ ": symbolic count = explicit count")
    (List.length explicit)
    (Symbolic.Space.reachable_count sp);
  (* Every explicitly reachable marking is in the symbolic set (with equal
     counts this makes the sets equal). *)
  check
    (name ^ ": explicit markings symbolically reachable")
    true
    (List.for_all (fun m -> Symbolic.Space.marking_reachable sp m) explicit);
  check
    (name ^ ": deadlock verdicts agree")
    (explicit_deadlock net explicit)
    (Symbolic.Space.has_deadlock sp)

let crosscheck_stg name stg =
  crosscheck_net name stg.Stg.net;
  match Sg.of_stg stg with
  | Error _ -> () (* partial/inconsistent spec: no SG to compare *)
  | Ok sg ->
      let explicit =
        List.sort_uniq compare
          (List.map Array.to_list (Petri.reachable stg.Stg.net))
      in
      check
        (name ^ ": SG marking set = explicit marking set")
        true
        (sg_markings sg = explicit)

let test_examples () =
  let dir = Test_roundtrip.examples_dir () in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".g")
    |> List.sort compare
  in
  check "examples present" true (files <> []);
  List.iter
    (fun f -> crosscheck_stg f (Stg.Io.parse_file (Filename.concat dir f)))
    files

let test_named_specs () =
  List.iter
    (fun (name, stg) -> crosscheck_stg name stg)
    [
      ("fig1", Specs.fig1 ());
      ("lr", Expansion.four_phase Specs.lr);
      ("par", Expansion.four_phase Specs.par);
    ]

let prop_random_nets =
  QCheck.Test.make ~name:"engines agree on random nets" ~count:30
    (Gen.arb_sp ~max_signals:5 ())
    (fun sp ->
      let stg = Gen.stg_of_sp sp in
      let net = stg.Stg.net in
      (* The boolean encoding covers safe nets only (see symbolic.mli);
         [Gen] trees are 1-safe by construction, so only the encoding's
         place-count ceiling filters. *)
      QCheck.assume (Petri.n_places net <= 62 && Petri.is_safe net);
      let explicit = Petri.reachable net in
      let space = Symbolic.Space.of_net net in
      Symbolic.Space.reachable_count space = List.length explicit
      && List.for_all
           (fun m -> Symbolic.Space.marking_reachable space m)
           explicit
      && Symbolic.Space.has_deadlock space = explicit_deadlock net explicit
      &&
      match Sg.of_stg stg with
      | Error _ -> true
      | Ok sg ->
          sg_markings sg
          = List.sort_uniq compare (List.map Array.to_list explicit))

(* [Sg.of_stg] against [Petri.reachable] alone, on nets without toggles
   (each marking carries one parity): the same distinct markings, and as
   many SG states as markings.  A 7-way fork/join (3^7 + 3 states) runs
   far past the explorer's initial table sizes, so its state table and
   arrays grow several times; 300 tokens shuttled between two places by
   two dummies (301 states) give counts past one byte, which the symbolic
   engine cannot take: it encodes safe nets only.  Three one-token places
   merged into one and fed back out (20 markings) start safe, with 2-bit
   fields, and reach counts of 3, so the explorer widens its fields and
   starts over.  The 64-signal ring's 128 places take five marking
   words (its two-word codes are pinned by test_sg's show golden). *)
let test_of_stg_vs_reachable () =
  let shuttle =
    Stg.Io.parse
      ".model shuttle\n.dummy d u\n.graph\np d\nd q\nq u\nu p\n\
       .marking { p=300 }\n.end\n"
  in
  let merge =
    Stg.Io.parse
      ".model merge\n.dummy a1 a2 a3 b1 b2 b3\n.graph\n\
       p1 a1\na1 q\np2 a2\na2 q\np3 a3\na3 q\n\
       q b1\nb1 p1\nq b2\nb2 p2\nq b3\nb3 p3\n\
       .marking { p1 p2 p3 }\n.end\n"
  in
  List.iter
    (fun (name, stg, states) ->
      let explicit = Petri.reachable stg.Stg.net in
      check_int (name ^ ": reachable markings") states (List.length explicit);
      match Sg.of_stg stg with
      | Error e -> Alcotest.failf "%s: %a" name Sg.pp_error e
      | Ok sg ->
          check_int (name ^ ": SG states") states (Sg.n_states sg);
          check
            (name ^ ": SG marking set = explicit marking set")
            true
            (sg_markings sg
            = List.sort_uniq compare (List.map Array.to_list explicit)))
    [
      ("fork_join 7", Gen.fork_join 7, 2190);
      ("shuttle", shuttle, 301);
      ("merge", merge, 20);
      ("ring 64", Gen.ring ~inputs:1 64, 128);
    ]

let suite =
  [
    Alcotest.test_case "shipped examples" `Quick test_examples;
    Alcotest.test_case "named specs" `Quick test_named_specs;
    QCheck_alcotest.to_alcotest prop_random_nets;
    Alcotest.test_case "of_stg = reachable: wide fork, counts past 255"
      `Quick test_of_stg_vs_reachable;
  ]
