(* Tests for the Petri net substrate. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A two-transition ring: t0 -> p0 -> t1 -> p1 -> t0, one token in p1. *)
let ring2 () =
  let b = Petri.Builder.create () in
  let t0 = Petri.Builder.add_trans b ~name:"t0" in
  let t1 = Petri.Builder.add_trans b ~name:"t1" in
  let p0 = Petri.Builder.add_place b ~name:"p0" ~tokens:0 in
  let p1 = Petri.Builder.add_place b ~name:"p1" ~tokens:1 in
  Petri.Builder.arc_tp b t0 p0;
  Petri.Builder.arc_pt b p0 t1;
  Petri.Builder.arc_tp b t1 p1;
  Petri.Builder.arc_pt b p1 t0;
  Petri.Builder.build b

let test_builder () =
  let net = ring2 () in
  check_int "places" 2 (Petri.n_places net);
  check_int "transitions" 2 (Petri.n_trans net);
  Alcotest.(check string) "place name" "p1" (Petri.place_name net 1);
  Alcotest.(check string) "trans name" "t1" (Petri.trans_name net 1);
  check_int "t0 by name" 0 (Petri.trans_of_name net "t0");
  Alcotest.check_raises "unknown name" Not_found (fun () ->
      ignore (Petri.trans_of_name net "nope"))

let test_enabled_fire () =
  let net = ring2 () in
  let m0 = Petri.initial_marking net in
  check "t0 enabled" true (Petri.enabled net m0 0);
  check "t1 disabled" false (Petri.enabled net m0 1);
  Alcotest.(check (list int)) "enabled_all" [ 0 ] (Petri.enabled_all net m0);
  let m1 = Petri.fire net m0 0 in
  check "token moved" true (m1.(0) = 1 && m1.(1) = 0);
  check "m0 unchanged" true (m0.(0) = 0 && m0.(1) = 1);
  Alcotest.check_raises "firing disabled transition"
    (Invalid_argument "Petri.fire: transition t1 not enabled") (fun () ->
      ignore (Petri.fire net m0 1))

let test_reachable () =
  let net = ring2 () in
  check_int "two reachable markings" 2 (List.length (Petri.reachable net))

let test_budget () =
  (* An unbounded net: one transition producing into a sink place. *)
  let b = Petri.Builder.create () in
  let t = Petri.Builder.add_trans b ~name:"gen" in
  let src = Petri.Builder.add_place b ~name:"src" ~tokens:1 in
  let sink = Petri.Builder.add_place b ~name:"sink" ~tokens:0 in
  Petri.Builder.arc_pt b src t;
  Petri.Builder.arc_tp b t src;
  Petri.Builder.arc_tp b t sink;
  let net = Petri.Builder.build b in
  Alcotest.check_raises "budget" (Petri.State_budget_exceeded 10) (fun () ->
      ignore (Petri.reachable ~budget:10 net))

let test_classes () =
  let net = ring2 () in
  check "marked graph" true (Petri.is_marked_graph net);
  check "free choice" true (Petri.is_free_choice net);
  check "safe" true (Petri.is_safe net);
  check "deadlock free" true (Petri.deadlock_free net)

let test_choice_net () =
  (* p marked feeding two transitions: free choice, not a marked graph. *)
  let b = Petri.Builder.create () in
  let t0 = Petri.Builder.add_trans b ~name:"t0" in
  let t1 = Petri.Builder.add_trans b ~name:"t1" in
  let p = Petri.Builder.add_place b ~name:"p" ~tokens:1 in
  Petri.Builder.arc_pt b p t0;
  Petri.Builder.arc_pt b p t1;
  let q = Petri.Builder.add_place b ~name:"q" ~tokens:0 in
  Petri.Builder.arc_tp b t0 q;
  Petri.Builder.arc_tp b t1 q;
  let net = Petri.Builder.build b in
  check "not a marked graph" false (Petri.is_marked_graph net);
  check "free choice" true (Petri.is_free_choice net);
  check "deadlocks" false (Petri.deadlock_free net)

let test_non_free_choice () =
  (* Two places feed t0; one of them also feeds t1: not free choice. *)
  let b = Petri.Builder.create () in
  let t0 = Petri.Builder.add_trans b ~name:"t0" in
  let t1 = Petri.Builder.add_trans b ~name:"t1" in
  let p = Petri.Builder.add_place b ~name:"p" ~tokens:1 in
  let q = Petri.Builder.add_place b ~name:"q" ~tokens:1 in
  Petri.Builder.arc_pt b p t0;
  Petri.Builder.arc_pt b q t0;
  Petri.Builder.arc_pt b p t1;
  let net = Petri.Builder.build b in
  check "not free choice" false (Petri.is_free_choice net)

let test_connect () =
  let b = Petri.Builder.create () in
  let t0 = Petri.Builder.add_trans b ~name:"a" in
  let t1 = Petri.Builder.add_trans b ~name:"b" in
  let p = Petri.Builder.connect b t0 t1 ~name:"mid" in
  let net = Petri.Builder.build b in
  check "arc a->mid" true (net.Petri.post.(t0) = [| p |]);
  check "arc mid->b" true (net.Petri.pre.(t1) = [| p |])

let test_unsafe_net () =
  (* Double producer into one place: 2 tokens accumulate. *)
  let b = Petri.Builder.create () in
  let t = Petri.Builder.add_trans b ~name:"t" in
  let u = Petri.Builder.add_trans b ~name:"u" in
  let p = Petri.Builder.add_place b ~name:"p" ~tokens:1 in
  let q = Petri.Builder.add_place b ~name:"q" ~tokens:1 in
  let r = Petri.Builder.add_place b ~name:"r" ~tokens:0 in
  Petri.Builder.arc_pt b p t;
  Petri.Builder.arc_tp b t r;
  Petri.Builder.arc_pt b q u;
  Petri.Builder.arc_tp b u r;
  let net = Petri.Builder.build b in
  check "unsafe: r accumulates two tokens" false (Petri.is_safe net);
  let m = Petri.fire net (Petri.fire net (Petri.initial_marking net) t) u in
  check_int "two tokens in r" 2 m.(r)

let test_marking_module () =
  let m1 = [| 0; 1; 2 |] and m2 = [| 0; 1; 2 |] and m3 = [| 1; 1; 2 |] in
  check "equal" true (Petri.Marking.equal m1 m2);
  check "not equal" false (Petri.Marking.equal m1 m3);
  check "hash equal" true (Petri.Marking.hash m1 = Petri.Marking.hash m2)

(* Property: in any marked-graph ring, the total token count is invariant
   under firing. *)
let prop_ring_token_invariant =
  QCheck.Test.make ~name:"ring: token count invariant under firing" ~count:50
    QCheck.(pair (int_range 1 6) (int_range 0 200))
    (fun (n, steps) ->
      let stg = Gen.ring ~inputs:0 n in
      let net = stg.Stg.net in
      let total m = Array.fold_left ( + ) 0 m in
      let rec run m k =
        if k = 0 then true
        else
          match Petri.enabled_all net m with
          | [] -> false (* rings never deadlock *)
          | t :: _ ->
              let m' = Petri.fire net m t in
              total m' = total m && run m' (k - 1)
      in
      run (Petri.initial_marking net) steps)

let prop_reachable_closed =
  QCheck.Test.make ~name:"reachability set is closed under firing" ~count:30
    QCheck.(int_range 1 5)
    (fun n ->
      let stg = Gen.fork_join n in
      let net = stg.Stg.net in
      let reach = Petri.reachable net in
      let mem m = List.exists (Petri.Marking.equal m) reach in
      List.for_all
        (fun m ->
          List.for_all
            (fun t -> mem (Petri.fire net m t))
            (Petri.enabled_all net m))
        reach)

let suite =
  [
    Alcotest.test_case "builder and names" `Quick test_builder;
    Alcotest.test_case "enabled and fire" `Quick test_enabled_fire;
    Alcotest.test_case "reachable markings" `Quick test_reachable;
    Alcotest.test_case "state budget" `Quick test_budget;
    Alcotest.test_case "structural classes" `Quick test_classes;
    Alcotest.test_case "choice net" `Quick test_choice_net;
    Alcotest.test_case "non free choice" `Quick test_non_free_choice;
    Alcotest.test_case "connect helper" `Quick test_connect;
    Alcotest.test_case "unsafe net" `Quick test_unsafe_net;
    Alcotest.test_case "marking module" `Quick test_marking_module;
    QCheck_alcotest.to_alcotest prop_ring_token_invariant;
    QCheck_alcotest.to_alcotest prop_reachable_closed;
  ]

