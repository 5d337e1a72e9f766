(* Tests for the STG layer: labels, signal partitions, the .g parser and
   printer, structural helpers. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let test_parse_label_name () =
  let open Stg in
  Alcotest.(check (option (pair string bool)))
    "rise"
    (Some ("req", true))
    (match parse_label_name "req+" with
    | Some (s, Plus) -> Some (s, true)
    | Some _ | None -> None);
  check "fall" true (parse_label_name "ack-" = Some ("ack", Minus));
  check "toggle" true (parse_label_name "x~" = Some ("x", Toggle));
  check "instance suffix stripped" true
    (parse_label_name "a+/12" = Some ("a", Plus));
  check "dummy" true (parse_label_name "eps" = None);
  check "empty" true (parse_label_name "" = None);
  check "lone sign" true (parse_label_name "+" = None)

let test_of_net () =
  let b = Petri.Builder.create () in
  let _ = Petri.Builder.add_trans b ~name:"a+" in
  let _ = Petri.Builder.add_trans b ~name:"a-" in
  let _ = Petri.Builder.add_trans b ~name:"eps" in
  let net = Petri.Builder.build b in
  let stg = Stg.of_net ~inputs:[ "a" ] ~outputs:[] net in
  check_int "one signal" 1 (Stg.n_signals stg);
  check "input" true (Stg.Signal.is_input (Stg.signal stg 0));
  check "a+ label" true (Stg.label stg 0 = Stg.Edge (0, Stg.Plus));
  check "eps dummy" true (Stg.label stg 2 = Stg.Dummy "eps");
  check "input trans" true (Stg.is_input_trans stg 0);
  check "dummy not input" false (Stg.is_input_trans stg 2);
  Alcotest.check_raises "undeclared signal"
    (Invalid_argument
       "Stg.of_net: transition b+ refers to undeclared signal b") (fun () ->
      let b = Petri.Builder.create () in
      let _ = Petri.Builder.add_trans b ~name:"b+" in
      ignore (Stg.of_net ~inputs:[] ~outputs:[] (Petri.Builder.build b)))

let test_instances_display () =
  let b = Petri.Builder.create () in
  let _ = Petri.Builder.add_trans b ~name:"a+/1" in
  let _ = Petri.Builder.add_trans b ~name:"a+/2" in
  let _ = Petri.Builder.add_trans b ~name:"a-" in
  let net = Petri.Builder.build b in
  let stg = Stg.of_net ~inputs:[] ~outputs:[ "a" ] net in
  Alcotest.(check (list int))
    "instances of a+" [ 0; 1 ]
    (Stg.instances stg (Stg.Edge (0, Stg.Plus)));
  check_str "display multi" "a+/1" (Stg.trans_display stg 0);
  check_str "display second" "a+/2" (Stg.trans_display stg 1);
  check_str "display single" "a-" (Stg.trans_display stg 2);
  check_int "labels deduplicated" 2 (List.length (Stg.all_labels stg))

let test_parse_fig1 () =
  let stg = Specs.fig1 () in
  check_int "signals" 2 (Stg.n_signals stg);
  check_int "transitions" 4 (Petri.n_trans stg.Stg.net);
  check_int "places" 5 (Petri.n_places stg.Stg.net);
  let m0 = Petri.initial_marking stg.Stg.net in
  check_int "two tokens" 2 (Array.fold_left ( + ) 0 m0);
  check "Req is input" true
    (Stg.Signal.is_input (Stg.signal stg (Stg.signal_of_name stg "Req")));
  check "Ack is output" false
    (Stg.Signal.is_input (Stg.signal stg (Stg.signal_of_name stg "Ack")))

let test_parse_errors () =
  let parse_fails text =
    match Stg.Io.parse text with
    | exception Stg.Io.Parse_error _ -> true
    | _ -> false
  in
  check "missing marking" true (parse_fails ".inputs a\n.graph\na+ a-\n.end\n");
  check "unknown directive" true
    (parse_fails ".bogus x\n.graph\n.marking { }\n.end\n");
  check "place-to-place arc" true
    (parse_fails
       ".inputs a\n.graph\np1 p2\n.marking { p1 }\n.end\n");
  check "marking of unknown place" true
    (parse_fails ".inputs a\n.graph\na+ a-\na- a+\n.marking { nope }\n.end\n");
  (* bad marking tokens are typed errors naming the token *)
  let parse_error text =
    match Stg.Io.parse text with
    | exception Stg.Io.Parse_error msg -> msg
    | _ -> "accepted"
  in
  let explicit marking =
    ".inputs a\n.outputs b\n.graph\na+ p1\np1 b+\nb+ a-\na- b-\nb- a+\n"
    ^ ".marking { " ^ marking ^ " }\n.end\n"
  in
  check_str "non-numeric token count"
    "bad token count in marking token p1=x"
    (parse_error (explicit "p1=x"));
  check_str "negative token count"
    "bad token count in marking token p1=-1"
    (parse_error (explicit "p1=-1"));
  check_str "unclosed implicit place"
    "unclosed implicit place token <b-,a+"
    (parse_error
       ".inputs a\n.outputs b\n.graph\na+ b+\nb+ a-\na- b-\nb- a+\n\
        .marking { <b-,a+ }\n.end\n")

let test_parse_explicit_places () =
  let text =
    {|
.inputs a
.outputs b
.graph
a+ p1
p1 b+
b+ a-
a- b-
b- a+
.marking { <b-,a+> }
.end
|}
  in
  let stg = Stg.Io.parse text in
  check_int "four places (one explicit, three implicit)" 4
    (Petri.n_places stg.Stg.net);
  check "p1 exists" true
    (Array.exists (String.equal "p1") stg.Stg.net.Petri.place_names)

let test_marking_multi_token () =
  let text =
    {|
.outputs a
.graph
a+ p
p a-
a- p2
p2 a+
.marking { p2=1 }
.end
|}
  in
  let stg = Stg.Io.parse text in
  let m0 = Petri.initial_marking stg.Stg.net in
  check_int "one token" 1 (Array.fold_left ( + ) 0 m0)

(* Round-trip: parse, print, re-parse — the SGs must be label-isomorphic. *)
let roundtrip_ok stg =
  let printed = Stg.Io.print stg in
  let stg' = Stg.Io.parse printed in
  match (Sg.of_stg stg, Sg.of_stg stg') with
  | Ok sg, Ok sg' -> String.equal (Sg.signature sg) (Sg.signature sg')
  | _, _ -> false

let test_roundtrip_fig1 () = check "fig1 roundtrip" true (roundtrip_ok (Specs.fig1 ()))

let test_roundtrip_lr () =
  check "LR 4-phase roundtrip" true
    (roundtrip_ok (Expansion.four_phase Specs.lr))

let test_roundtrip_par () =
  check "PAR 4-phase roundtrip" true
    (roundtrip_ok (Expansion.four_phase Specs.par))

let test_add_causality () =
  let stg = Specs.fig1 () in
  let req_plus = Petri.trans_of_name stg.Stg.net "Req+" in
  let ack_minus = Petri.trans_of_name stg.Stg.net "Ack-" in
  let stg' = Stg.add_causality stg ack_minus req_plus in
  check_int "one more place" (Petri.n_places stg.Stg.net + 1)
    (Petri.n_places stg'.Stg.net);
  (* Ack- -> Req+ serializes the only concurrent pair: 4 states. *)
  match Sg.of_stg stg' with
  | Ok sg ->
      check_int "four states" 4 (Sg.n_states sg);
      check "no concurrency left" true (Sg.concurrent_pairs sg = [])
  | Error _ -> Alcotest.fail "constrained STG inconsistent"

let test_label_names () =
  let stg = Specs.fig1 () in
  check_str "rise" "Req+" (Stg.label_name stg (Stg.Edge (0, Stg.Plus)));
  check_str "fall" "Ack-" (Stg.label_name stg (Stg.Edge (1, Stg.Minus)));
  check_str "dummy" "foo" (Stg.label_name stg (Stg.Dummy "foo"))

let prop_ring_roundtrip =
  QCheck.Test.make ~name:"random rings round-trip through .g format"
    ~count:30
    QCheck.(pair (int_range 1 6) (int_range 0 3))
    (fun (n, inputs) ->
      QCheck.assume (inputs <= n);
      roundtrip_ok (Gen.ring ~inputs n))

let prop_forkjoin_roundtrip =
  QCheck.Test.make ~name:"random fork-joins round-trip through .g format"
    ~count:20
    QCheck.(int_range 1 5)
    (fun width -> roundtrip_ok (Gen.fork_join width))

let suite =
  [
    Alcotest.test_case "parse_label_name" `Quick test_parse_label_name;
    Alcotest.test_case "of_net" `Quick test_of_net;
    Alcotest.test_case "instances and display" `Quick test_instances_display;
    Alcotest.test_case "parse fig1" `Quick test_parse_fig1;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "explicit places" `Quick test_parse_explicit_places;
    Alcotest.test_case "marking tokens" `Quick test_marking_multi_token;
    Alcotest.test_case "roundtrip fig1" `Quick test_roundtrip_fig1;
    Alcotest.test_case "roundtrip LR" `Quick test_roundtrip_lr;
    Alcotest.test_case "roundtrip PAR" `Quick test_roundtrip_par;
    Alcotest.test_case "add_causality" `Quick test_add_causality;
    Alcotest.test_case "label names" `Quick test_label_names;
    QCheck_alcotest.to_alcotest prop_ring_roundtrip;
    QCheck_alcotest.to_alcotest prop_forkjoin_roundtrip;
  ]

(* ---- parser edge cases ---- *)

let test_parser_edges () =
  (* Comments anywhere, tabs, .model ignored, multi-token markings. *)
  let text =
    ".model weird\n# a comment\n.inputs a\t b\n.outputs c\n.graph\n"
    ^ "a+ c+ # trailing comment\nc+ a-\na- c-\nc- a+\nb+ b-\nb- b+\n"
    ^ ".marking { <c-,a+> <b-,b+> }\n.end\n"
  in
  let stg = Stg.Io.parse text in
  check_int "three signals" 3 (Stg.n_signals stg);
  check "roundtrips" true (roundtrip_ok stg)

let test_parser_toggle_roundtrip () =
  check "toggle2 roundtrips" true (roundtrip_ok (Specs.Corpus.find "toggle2"))

let test_parse_file () =
  let stg = Stg.Io.parse_file
      (Filename.concat (Test_roundtrip.examples_dir ()) "fig1.g") in
  check_int "fig1 from disk" 4 (Petri.n_trans stg.Stg.net)

let test_dot_choice () =
  let dot = Stg.Io.to_dot (Specs.fig8 ()) in
  check "choice place rendered explicitly" true
    (let contains needle =
       let nh = String.length dot and nn = String.length needle in
       let rec go i =
         i + nn <= nh && (String.sub dot i nn = needle || go (i + 1))
       in
       go 0
     in
     contains "shape=circle")

let suite =
  suite
  @ [
      Alcotest.test_case "parser edge cases" `Quick test_parser_edges;
      Alcotest.test_case "toggle roundtrip" `Quick test_parser_toggle_roundtrip;
      Alcotest.test_case "parse from file" `Quick test_parse_file;
      Alcotest.test_case "dot with explicit places" `Quick test_dot_choice;
    ]
