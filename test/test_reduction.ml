(* Tests for forward concurrency reduction, validity and realization. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fig1 () =
  let stg = Specs.fig1 () in
  (stg, Gen.sg_exn stg)

let test_fwd_red_fig1 () =
  let stg, sg = fig1 () in
  let ack_minus = Core.lab stg "Ack-" and req_plus = Core.lab stg "Req+" in
  match Reduction.fwd_red sg ~a:ack_minus ~b:req_plus with
  | Ok reduced ->
      check_int "one state fewer" 4 (Sg.n_states reduced);
      check "no concurrency left" true (Sg.concurrent_pairs reduced = []);
      check "still speed-independent" true (Sg.is_speed_independent reduced);
      check "initial preserved" true (Sg.initial reduced = 0)
  | Error _ -> Alcotest.fail "reduction should be valid"

let test_input_rejected () =
  let stg, sg = fig1 () in
  match
    Reduction.fwd_red sg ~a:(Core.lab stg "Req+") ~b:(Core.lab stg "Ack-")
  with
  | Error Reduction.Input_event -> ()
  | Error _ | Ok _ -> Alcotest.fail "expected Input_event"

let test_not_concurrent () =
  let stg, sg = fig1 () in
  match
    Reduction.fwd_red sg ~a:(Core.lab stg "Ack-") ~b:(Core.lab stg "Ack+")
  with
  | Error Reduction.Not_concurrent -> ()
  | Error _ | Ok _ -> Alcotest.fail "expected Not_concurrent"

let test_back_reach () =
  let _, sg = fig1 () in
  let all = Sg.states sg in
  (* Backward closure of the initial state within the whole SG is all
     states (the SG is strongly connected). *)
  check_int "full closure" (Sg.n_states sg)
    (List.length (Reduction.back_reach sg ~within:all [ Sg.initial sg ]));
  (* Restricted to a singleton, only the target itself. *)
  check_int "singleton" 1
    (List.length (Reduction.back_reach sg ~within:[ 2 ] [ 2 ]))

let test_fig8_sweep () =
  let stg = Specs.fig8 () in
  let sg = Gen.sg_exn stg in
  let a = Core.lab stg "a~" and b = Core.lab stg "b~" in
  let d = Core.lab stg "d~" and e = Core.lab stg "e~" in
  check "a||b before" true (Sg.concurrent sg a b);
  check "a||d before" true (Sg.concurrent sg a d);
  match Reduction.fwd_red sg ~a ~b with
  | Ok reduced ->
      check "a||b gone" false (Sg.concurrent reduced a b);
      check "a||d gone (backward sweep)" false (Sg.concurrent reduced a d);
      check "a||e gone (backward sweep)" false (Sg.concurrent reduced e a);
      check "all events alive" true
        (List.for_all
           (fun lab -> Sg.er reduced lab <> [])
           (Stg.all_labels stg));
      check "no deadlocks" true (Sg.deadlocks reduced = [])
  | Error _ -> Alcotest.fail "fig8 reduction should be valid"

let test_event_vanishes () =
  (* Ordering a after b where b is only reachable through a would kill a;
     construct: c+ -> (a+ || b+), b+ consumes a place produced by a+?  Use
     instead: a enabled only inside ER overlapping b completely, so that
     removal empties ER(a): a and b concurrent, and every a-arc source is
     backward-reachable from the intersection. *)
  let stg =
    Stg.Io.parse
      {|
.outputs a b
.graph
p a+
p2 b+
a+ q
b+ q2
q a-
q2 b-
a- p
b- p2
.marking { p p2 }
.end
|}
  in
  let sg = Gen.sg_exn stg in
  let a = Core.lab stg "a+" and b = Core.lab stg "b+" in
  check "concurrent" true (Sg.concurrent sg a b);
  (* ER(a+) = states where a+ enabled: every such state can reach one where
     b+ is also enabled (b cycles independently), so ER_red is empty. *)
  match Reduction.fwd_red sg ~a ~b with
  | Error (Reduction.Event_vanishes _) -> ()
  | Error r ->
      Alcotest.failf "expected Event_vanishes, got %s"
        (Format.asprintf "%a" (Reduction.pp_invalid stg) r)
  | Ok reduced ->
      (* If the reduction went through, a+ must still exist. *)
      check "a+ survives" true (Sg.er reduced a <> [])

let test_realize_fig1 () =
  let stg, sg = fig1 () in
  let a = Core.lab stg "Ack-" and b = Core.lab stg "Req+" in
  match Reduction.fwd_red sg ~a ~b with
  | Error _ -> Alcotest.fail "reduction should be valid"
  | Ok reduced -> (
      match Reduction.realize ~applied:[ (a, b) ] reduced with
      | Ok stg' ->
          let sg' = Gen.sg_exn stg' in
          Alcotest.(check string)
            "label-isomorphic" (Sg.signature reduced) (Sg.signature sg')
      | Error msg -> Alcotest.fail msg)

let test_realize_lr_scripts () =
  let stg = Expansion.four_phase Specs.lr in
  let sg = Gen.sg_exn stg in
  let try_script script =
    let reduced, applied = Search.apply_script sg script in
    match Reduction.realize ~applied reduced with
    | Ok stg' ->
        String.equal (Sg.signature (Gen.sg_exn stg')) (Sg.signature reduced)
    | Error _ -> false
  in
  check "Q-module script realizes" true
    (try_script (Specs.lr_qmodule_script stg));
  check "full reduction script realizes" true
    (try_script (Specs.lr_full_reduction_script stg))

let test_apply_script_skips_invalid () =
  let stg, sg = fig1 () in
  let bogus = (Core.lab stg "Req+", Core.lab stg "Ack-") in
  (* Reducing an input is invalid and must be skipped. *)
  let _, applied = Search.apply_script sg [ bogus ] in
  check "skipped" true (applied = [])

(* Property: over the LR expansion, every valid single reduction preserves
   speed-independence, all events, deadlock-freedom — Prop. 6.1. *)
let prop_fwdred_validity =
  QCheck.Test.make ~name:"FwdRed validity (Prop 6.1) on LR pairs" ~count:1
    QCheck.unit
    (fun () ->
      let stg = Expansion.four_phase Specs.lr in
      let sg = Gen.sg_exn stg in
      let labels = Stg.all_labels stg in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              if a = b then true
              else
                match Reduction.fwd_red sg ~a ~b with
                | Error _ -> true
                | Ok reduced ->
                    Sg.is_speed_independent reduced
                    && Sg.deadlocks reduced = []
                    && List.for_all
                         (fun lab -> Sg.er reduced lab <> [])
                         labels)
            labels)
        labels)

let prop_reduction_monotone =
  QCheck.Test.make
    ~name:"reduction never adds states or arcs" ~count:1 QCheck.unit
    (fun () ->
      let stg = Expansion.four_phase Specs.par in
      let sg = Gen.sg_exn stg in
      let arcs g = Sg.n_arcs g in
      List.for_all
        (fun (a, b) ->
          match Reduction.fwd_red sg ~a ~b with
          | Error _ -> true
          | Ok reduced ->
              Sg.n_states reduced <= Sg.n_states sg && arcs reduced < arcs sg)
        (Sg.concurrent_pairs sg))

let suite =
  [
    Alcotest.test_case "FwdRed on fig1" `Quick test_fwd_red_fig1;
    Alcotest.test_case "input event rejected" `Quick test_input_rejected;
    Alcotest.test_case "non-concurrent rejected" `Quick test_not_concurrent;
    Alcotest.test_case "back_reach" `Quick test_back_reach;
    Alcotest.test_case "fig8 backward sweep" `Quick test_fig8_sweep;
    Alcotest.test_case "event vanishes" `Quick test_event_vanishes;
    Alcotest.test_case "realize fig1" `Quick test_realize_fig1;
    Alcotest.test_case "realize LR scripts" `Quick test_realize_lr_scripts;
    Alcotest.test_case "apply_script skips invalid" `Quick
      test_apply_script_skips_invalid;
    QCheck_alcotest.to_alcotest prop_fwdred_validity;
    QCheck_alcotest.to_alcotest prop_reduction_monotone;
  ]

(* ---- single-arc (backward-style) reduction ---- *)

let test_remove_arc_fig1 () =
  let stg, sg = fig1 () in
  let ack_minus = Core.lab stg "Ack-" in
  (* Ack- is enabled in two states (ER = {2, 3} in BFS order); removing it
     from the state it shares with Req+ orders them. *)
  let er = Sg.er sg ack_minus in
  check_int "two states enable Ack-" 2 (List.length er);
  let results =
    List.map (fun s -> Reduction.remove_arc sg ~state:s ~a:ack_minus) er
  in
  check "at least one single-arc removal is valid" true
    (List.exists Result.is_ok results);
  List.iter
    (function
      | Ok reduced ->
          check "valid result is speed-independent" true
            (Sg.is_speed_independent reduced);
          check "no deadlocks" true (Sg.deadlocks reduced = [])
      | Error _ -> ())
    results

let test_remove_arc_rejects_input () =
  let stg, sg = fig1 () in
  let req_plus = Core.lab stg "Req+" in
  let s = List.hd (Sg.er sg req_plus) in
  match Reduction.remove_arc sg ~state:s ~a:req_plus with
  | Error Reduction.Input_event -> ()
  | Error _ | Ok _ -> Alcotest.fail "expected Input_event"

let test_remove_arc_not_enabled () =
  let stg, sg = fig1 () in
  let ack_plus = Core.lab stg "Ack+" in
  (* Ack+ is not enabled in state 1. *)
  match Reduction.remove_arc sg ~state:1 ~a:ack_plus with
  | Error Reduction.Not_concurrent -> ()
  | Error _ | Ok _ -> Alcotest.fail "expected rejection"

let test_remove_arc_more_general () =
  (* A single FwdRed step removes a whole backward-swept set of arcs, so
     one-step outcome sets are incomparable; what makes arc removal more
     general is that it reaches configurations FwdRed cannot produce.
     Check that on the PAR expansion (on the LR expansion the two coincide
     because every excitation region has only two states). *)
  let stg = Expansion.four_phase Specs.par in
  let sg = Gen.sg_exn stg in
  let labels = Stg.all_labels stg in
  let fwd_outcomes =
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
  let arc_outcomes =
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
  check "both operations apply" true
    (fwd_outcomes <> [] && arc_outcomes <> []);
  check "arc removal reaches configurations FwdRed cannot" true
    (List.exists (fun s -> not (List.mem s fwd_outcomes)) arc_outcomes)

let suite =
  suite
  @ [
      Alcotest.test_case "remove_arc on fig1" `Quick test_remove_arc_fig1;
      Alcotest.test_case "remove_arc rejects input" `Quick
        test_remove_arc_rejects_input;
      Alcotest.test_case "remove_arc not enabled" `Quick
        test_remove_arc_not_enabled;
      Alcotest.test_case "remove_arc more general" `Quick
        test_remove_arc_more_general;
    ]
