(* Tests for state graph generation and the implementability analyses. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fig1_sg () = Gen.sg_exn (Specs.fig1 ())

let test_fig1_generation () =
  let sg = fig1_sg () in
  check_int "five states" 5 (Sg.n_states sg);
  check_int "six arcs" 6 (Sg.n_arcs sg);
  Alcotest.(check string) "initial code display" "10*"
    (Sg.code_display sg (Sg.initial sg));
  check_int "Req initially 1" 1 (Sg.value sg (Sg.initial sg) 0);
  check_int "Ack initially 0" 0 (Sg.value sg (Sg.initial sg) 1)

let test_fig1_properties () =
  let sg = fig1_sg () in
  check "deterministic" true (Sg.is_deterministic sg);
  check "commutative" true (Sg.is_commutative sg);
  check "output persistent" true (Sg.is_output_persistent sg);
  check "speed independent" true (Sg.is_speed_independent sg);
  check "CSC violated" false (Sg.has_csc sg);
  check_int "one CSC conflict pair" 1 (List.length (Sg.csc_conflicts sg));
  check_int "one USC conflict pair" 1 (List.length (Sg.usc_conflicts sg));
  check "USC violated" false (Sg.has_usc sg);
  check "no deadlocks" true (Sg.deadlocks sg = []);
  (* Dropping s2's Req+ arc prunes s3, the USC twin of s1: its code stays
     behind as a ghost, which the child's USC verdict must not count. *)
  let req_plus = Core.lab (Sg.stg sg) "Req+" in
  let child, _ =
    Sg.filter_arcs sg ~keep:(fun s tr _ ->
        not (s = 2 && Stg.label (Sg.stg sg) tr = req_plus))
  in
  check_int "pruned twin: one ghost" 1 (Sg.n_ghosts child);
  check "pruned twin: USC holds" true (Sg.has_usc child)

let test_fig1_er_concurrency () =
  let stg = Specs.fig1 () in
  let sg = Gen.sg_exn stg in
  let req_plus = Core.lab stg "Req+" and ack_minus = Core.lab stg "Ack-" in
  check_int "ER(Req+) has 2 states" 2 (List.length (Sg.er sg req_plus));
  check_int "ER(Ack-) has 2 states" 2 (List.length (Sg.er sg ack_minus));
  check "Req+ || Ack-" true (Sg.concurrent sg req_plus ack_minus);
  check "symmetric" true (Sg.concurrent sg ack_minus req_plus);
  check "Req+ not concurrent with itself" false
    (Sg.concurrent sg req_plus req_plus);
  check "Req+ not concurrent with Ack+" false
    (Sg.concurrent sg req_plus (Core.lab stg "Ack+"));
  check_int "exactly one concurrent pair" 1
    (List.length (Sg.concurrent_pairs sg));
  (* ERs intersect iff concurrent (speed-independent SGs). *)
  let inter =
    List.filter (fun s -> List.mem s (Sg.er sg ack_minus)) (Sg.er sg req_plus)
  in
  check "ERs intersect" true (inter <> [])

(* [astg check] builds only the state graph, so it runs past the logic
   layer's signal limit: exit 0, the report of [Core.Cli.check_text]. *)
let test_check_past_signal_limit () =
  Test_serve.with_ring_past_limit @@ fun _ path ->
  let rc, out, err = Test_serve.run_cli [ "check"; path ] in
  check_int "check exits 0" 0 rc;
  Alcotest.(check string) "check stdout = check_text"
    (Core.Cli.check_text (Stg.Io.parse_file path))
    out;
  Alcotest.(check string) "check stderr" "" err;
  check "all 126 states" true
    (Test_serve.contains out "states:              126\n")

let test_inconsistent_plus_plus () =
  (* a+ twice in a row is inconsistent. *)
  let text =
    {|
.outputs a
.graph
a+/1 a+/2
a+/2 a+/1
.marking { <a+/2,a+/1> }
.end
|}
  in
  match Sg.of_stg (Stg.Io.parse text) with
  | Error (Sg.Inconsistent _) -> ()
  | Error (Sg.Unbounded _) -> Alcotest.fail "expected inconsistency"
  | Ok _ -> Alcotest.fail "expected inconsistency"

let test_budget_exceeded () =
  let stg = Expansion.four_phase Specs.mmu in
  match Sg.of_stg ~budget:10 stg with
  | Error (Sg.Unbounded n) -> Alcotest.(check int) "budget" 10 n
  | Error (Sg.Inconsistent _) | Ok _ -> Alcotest.fail "expected budget error"

let test_toggle_double_cycle () =
  (* A single toggling signal visits each marking twice. *)
  let text =
    {|
.outputs a b
.graph
a~ b~
b~ a~
.marking { <b~,a~> }
.end
|}
  in
  let sg = Gen.sg_exn (Stg.Io.parse text) in
  check_int "marking x parity product" 4 (Sg.n_states sg)

(* One place feeding two transitions with the SAME label but different
   continuations: the SG has two a+ arcs from the initial state. *)
let nondeterministic_sg () =
  let text =
    {|
.outputs a
.dummy d1 d2
.graph
p a+/1 a+/2
a+/1 q1
q1 a-/1
a-/1 p
a+/2 q2
q2 d1
d1 a-/2
a-/2 p
.marking { p }
.end
|}
  in
  Gen.sg_exn (Stg.Io.parse text)

let test_nondeterministic_sg () =
  check "nondeterministic" false (Sg.is_deterministic (nondeterministic_sg ()))

let test_persistency_violation () =
  (* Choice between two OUTPUT events: firing one disables the other. *)
  let text =
    {|
.outputs a b
.graph
p a+ b+
a+ a-
b+ b-
a- p
b- p
.marking { p }
.end
|}
  in
  let sg = Gen.sg_exn (Stg.Io.parse text) in
  check "not output persistent" false (Sg.is_output_persistent sg);
  check "violations reported" true (Sg.persistency_violations sg <> []);
  check "still deterministic" true (Sg.is_deterministic sg)

let test_input_choice_is_ok () =
  (* Free choice between two INPUT events is not a violation. *)
  let text =
    {|
.inputs a b
.graph
p a+ b+
a+ a-
b+ b-
a- p
b- p
.marking { p }
.end
|}
  in
  let sg = Gen.sg_exn (Stg.Io.parse text) in
  check "input choice allowed" true (Sg.is_output_persistent sg)

let test_filter_prunes () =
  let sg = fig1_sg () in
  (* Drop Req+ out of state 2: the state behind it becomes unreachable and
     must be pruned, and the surviving states renumbered from 0. *)
  let stg = Sg.stg sg in
  let sg', old_of_new =
    Sg.filter_arcs sg ~keep:(fun s tr _ ->
        not (s = 2 && Stg.label stg tr = Core.lab stg "Req+"))
  in
  check_int "one state pruned" 4 (Sg.n_states sg');
  check "initial preserved" true (Sg.initial sg' = 0);
  check_int "map covers survivors" 4 (Array.length old_of_new);
  check "map starts at old initial" true (old_of_new.(0) = Sg.initial sg);
  (* Codes and markings follow the renumbering. *)
  Array.iteri
    (fun s_new s_old ->
      Alcotest.(check string)
        "code preserved" (Sg.code sg s_old) (Sg.code sg' s_new))
    old_of_new

let test_signature_canonical () =
  let sg1 = fig1_sg () in
  let sg2 = fig1_sg () in
  Alcotest.(check string) "same signature" (Sg.signature sg1) (Sg.signature sg2);
  (* A reduced SG has a different signature. *)
  let stg = Specs.fig1 () in
  match
    Reduction.fwd_red sg1 ~a:(Core.lab stg "Ack-") ~b:(Core.lab stg "Req+")
  with
  | Ok reduced ->
      check "differs after reduction" false
        (String.equal (Sg.signature reduced) (Sg.signature sg1))
  | Error _ -> Alcotest.fail "reduction should apply"

let test_enabled_labels () =
  let stg = Specs.fig1 () in
  let sg = Gen.sg_exn stg in
  let labs = Sg.enabled_labels sg (Sg.initial sg) in
  check_int "one label enabled initially" 1 (List.length labs);
  check "it is Ack+" true (List.hd labs = Core.lab stg "Ack+");
  check "succ_by_label" true
    (List.length (Sg.succ_by_label sg (Sg.initial sg) (Core.lab stg "Ack+"))
    = 1)

(* Properties over generated families. *)

let prop_rings_implementable =
  QCheck.Test.make ~name:"rings are consistent and speed-independent"
    ~count:30
    QCheck.(pair (int_range 1 6) (int_range 0 2))
    (fun (n, inputs) ->
      QCheck.assume (inputs <= n);
      let sg = Gen.sg_exn (Gen.ring ~inputs n) in
      Sg.is_speed_independent sg
      && Sg.n_states sg = 2 * n
      && Sg.deadlocks sg = [] && Sg.concurrent_pairs sg = [])

let prop_forkjoin_concurrency =
  QCheck.Test.make
    ~name:"fork-join: branch events are pairwise concurrent" ~count:10
    QCheck.(int_range 2 5)
    (fun width ->
      let stg = Gen.fork_join width in
      let sg = Gen.sg_exn stg in
      let ok = ref (Sg.is_speed_independent sg) in
      for i = 0 to width - 1 do
        for j = i + 1 to width - 1 do
          let a = Core.lab stg (Printf.sprintf "w%d+" i) in
          let b = Core.lab stg (Printf.sprintf "w%d+" j) in
          ok := !ok && Sg.concurrent sg a b
        done
      done;
      !ok)

let prop_codes_consistent =
  QCheck.Test.make
    ~name:"codes: every arc flips exactly its signal's bit" ~count:20
    QCheck.(int_range 1 5)
    (fun width ->
      let stg = Gen.fork_join width in
      let sg = Gen.sg_exn stg in
      let ok = ref true in
      for s = 0 to Sg.n_states sg - 1 do
        Sg.iter_succ sg s (fun tr s' ->
            match Stg.label stg tr with
            | Stg.Edge (sigid, _) ->
                for v = 0 to Stg.n_signals stg - 1 do
                  let same = Sg.value sg s v = Sg.value sg s' v in
                  ok := !ok && if v = sigid then not same else same
                done
            | Stg.Dummy _ -> ())
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "fig1 generation" `Quick test_fig1_generation;
    Alcotest.test_case "fig1 properties" `Quick test_fig1_properties;
    Alcotest.test_case "fig1 ER and concurrency" `Quick test_fig1_er_concurrency;
    Alcotest.test_case "past 62 signals: check still runs" `Quick
      test_check_past_signal_limit;
    Alcotest.test_case "inconsistent a+ a+" `Quick test_inconsistent_plus_plus;
    Alcotest.test_case "state budget" `Quick test_budget_exceeded;
    Alcotest.test_case "toggle double cycle" `Quick test_toggle_double_cycle;
    Alcotest.test_case "nondeterminism detection" `Quick test_nondeterministic_sg;
    Alcotest.test_case "persistency violation" `Quick test_persistency_violation;
    Alcotest.test_case "input choice allowed" `Quick test_input_choice_is_ok;
    Alcotest.test_case "filter_arcs prunes unreachable" `Quick
      test_filter_prunes;
    Alcotest.test_case "canonical signature" `Quick test_signature_canonical;
    Alcotest.test_case "enabled labels" `Quick test_enabled_labels;
    QCheck_alcotest.to_alcotest prop_rings_implementable;
    QCheck_alcotest.to_alcotest prop_forkjoin_concurrency;
    QCheck_alcotest.to_alcotest prop_codes_consistent;
  ]

(* ---- more edge cases ---- *)

(* Two orders of concurrent events reaching different states: rewire the
   SG by hand via Sg.derive on a small artificial structure. *)
let noncommutative_sg () =
  let stg = Specs.fig1 () in
  let base = Gen.sg_exn stg in
  (* Corrupt: redirect the diamond's closing arc so orders disagree.
     States: 2 -Ack--> 4 and 2 -Req+-> 3; 4 -Req+-> 0, 3 -Ack--> 0.
     Point 3's Ack- to state 1 instead: orders now differ. *)
  let broken, _ =
    Sg.derive base ~arcs:(fun s ->
        Sg.fold_succ base s [] (fun acc tr s' ->
            let s' =
              if s = 3 && Stg.label stg tr = Core.lab stg "Ack-" then 1
              else s'
            in
            (tr, s') :: acc)
        |> List.rev)
  in
  broken

let test_commutativity_negative () =
  check "not commutative" false (Sg.is_commutative (noncommutative_sg ()))

let test_code_accessors () =
  let sg = fig1_sg () in
  check "code is 2 chars" true (String.length (Sg.code sg 0) = 2);
  check "display at least as long" true
    (String.length (Sg.code_display sg 0) >= 2);
  Alcotest.(check (list int)) "states list" [ 0; 1; 2; 3; 4 ] (Sg.states sg)

(* [Sg.of_arrays] over fig1's own arrays rebuilds fig1's graph; it
   rejects an arc target that is not a state, and a state that the
   initial one cannot reach (a copy of the last state, with no arc in or
   out). *)
let test_of_arrays () =
  let sg = fig1_sg () in
  let stg = Sg.stg sg and n = Sg.n_states sg in
  let w = Sg.code_words (Stg.n_signals stg) in
  let build ?(extra = 0) ?(retarget = fun _ d -> d) () =
    let last s = min s (n - 1) in
    Sg.of_arrays stg
      ~markings:(Array.init (n + extra) (fun s -> Sg.marking sg (last s)))
      ~codes:
        (Array.init
           ((n + extra) * w)
           (fun i -> Sg.code_word sg (last (i / w)) (i mod w)))
      ~off:(Array.init (n + extra + 1) (fun s -> Sg.first_arc sg (min s n)))
      ~arc_tr:(Array.init (Sg.n_arcs sg) (Sg.arc_trans sg))
      ~arc_dst:
        (Array.init (Sg.n_arcs sg) (fun k -> retarget k (Sg.arc_target sg k)))
      ~initial:(Sg.initial sg)
  in
  let dump g =
    ( Format.asprintf "%a" Sg.pp_full g,
      List.map (Sg.marking g) (Sg.states g),
      Sg.initial g )
  in
  check "same graph" true (dump (build ()) = dump sg);
  let rejected f =
    match f () with
    | exception Invalid_argument msg ->
        String.starts_with ~prefix:"Sg.of_arrays: " msg
    | _ -> false
  in
  check "arc target out of range" true
    (rejected (build ~retarget:(fun k d -> if k = 0 then n else d)));
  check "unreachable state" true (rejected (build ~extra:1))

let test_weak_bisim_vs_signature () =
  (* Equal signatures imply weak bisimilarity (no dummies here). *)
  let sg1 = fig1_sg () and sg2 = fig1_sg () in
  check "signature equal" true
    (String.equal (Sg.signature sg1) (Sg.signature sg2));
  check "weakly bisimilar" true (Sg.weak_bisimilar sg1 sg2)

let suite =
  suite
  @ [
      Alcotest.test_case "commutativity negative" `Quick
        test_commutativity_negative;
      Alcotest.test_case "code accessors" `Quick test_code_accessors;
      Alcotest.test_case "of_arrays checks" `Quick test_of_arrays;
      Alcotest.test_case "signature vs weak bisim" `Quick
        test_weak_bisim_vs_signature;
    ]

(* ---- cached concurrency relation vs direct Def. 2.1 diamonds ---- *)

(* The pre-cache implementation: scan every state for a diamond
   s -a-> s2, s -b-> s3, s2 -b-> x, s3 -a-> x.  The one-sweep cached
   relation must agree with it on every label pair. *)
let naive_concurrent sg a b =
  a <> b
  && List.exists
       (fun s ->
         let s2s = Sg.succ_by_label sg s a
         and s3s = Sg.succ_by_label sg s b in
         List.exists
           (fun s2 ->
             List.exists
               (fun s3 ->
                 let s4a = Sg.succ_by_label sg s2 b
                 and s4b = Sg.succ_by_label sg s3 a in
                 List.exists (fun x -> List.mem x s4b) s4a)
               s3s)
           s2s)
       (Sg.states sg)

let test_concurrency_matches_naive () =
  let cases =
    [
      ("fig1", Gen.sg_exn (Specs.fig1 ()));
      ("lr", Gen.sg_exn (Expansion.four_phase Specs.lr));
      ("par", Gen.sg_exn (Expansion.four_phase Specs.par));
      ("mmu", Gen.sg_exn (Expansion.four_phase Specs.mmu));
    ]
  in
  List.iter
    (fun (name, sg) ->
      let labels = Stg.all_labels (Sg.stg sg) in
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              check
                (Printf.sprintf "%s: %s || %s" name
                   (Stg.label_name (Sg.stg sg) a)
                   (Stg.label_name (Sg.stg sg) b))
                (naive_concurrent sg a b) (Sg.concurrent sg a b))
            labels)
        labels)
    cases

(* ---- unconstrained initial values ---- *)

(* Two toggle-only signals: no +/- edge ever constrains an initial value,
   so the encoding is genuinely underspecified. *)
let toggle_ring () =
  let b = Petri.Builder.create () in
  let ta = Petri.Builder.add_trans b ~name:"a~" in
  let tb = Petri.Builder.add_trans b ~name:"b~" in
  ignore (Petri.Builder.connect b ta tb ~name:"p1");
  let home = Petri.Builder.add_place b ~name:"home" ~tokens:1 in
  Petri.Builder.arc_tp b tb home;
  Petri.Builder.arc_pt b home ta;
  Stg.of_net ~inputs:[ "a" ] ~outputs:[ "b" ] (Petri.Builder.build b)

let test_unconstrained_initial_values () =
  let stg = toggle_ring () in
  let warnings = ref [] in
  let sg =
    match Sg.of_stg ~warn:(fun m -> warnings := m :: !warnings) stg with
    | Ok sg -> sg
    | Error e -> Alcotest.failf "of_stg: %a" Sg.pp_error e
  in
  Alcotest.(check (list int))
    "both signals unconstrained" [ 0; 1 ]
    (Sg.unconstrained_signals sg);
  (* only the non-input signal warrants a warning *)
  check_int "exactly one warning" 1 (List.length !warnings);
  check "warning names the output signal" true
    (match !warnings with
    | [ m ] ->
        List.exists
          (fun i -> String.length m >= i + 1 && m.[i] = 'b')
          (List.init (String.length m) Fun.id)
    | _ -> false);
  check_int "defaulted a" 0 (Sg.value sg (Sg.initial sg) 0);
  check_int "defaulted b" 0 (Sg.value sg (Sg.initial sg) 1)

let test_initial_values_override () =
  let stg = toggle_ring () in
  let warnings = ref [] in
  let sg =
    match
      Sg.of_stg
        ~initial_values:[ ("b", 1) ]
        ~warn:(fun m -> warnings := m :: !warnings)
        stg
    with
    | Ok sg -> sg
    | Error e -> Alcotest.failf "of_stg: %a" Sg.pp_error e
  in
  check_int "pinned b initially 1" 1 (Sg.value sg (Sg.initial sg) 1);
  Alcotest.(check (list int))
    "pinned signal no longer unconstrained" [ 0 ]
    (Sg.unconstrained_signals sg);
  check "no warning once pinned" true (!warnings = [])

let test_initial_values_conflict () =
  (* fig1 constrains Req to 1 initially (Req- is enabled); pinning it to 0
     must be rejected as inconsistent, pinning to 1 is a no-op. *)
  let stg = Specs.fig1 () in
  (match Sg.of_stg ~initial_values:[ ("Req", 0) ] stg with
  | Error (Sg.Inconsistent _) -> ()
  | Ok _ -> Alcotest.fail "conflicting override accepted"
  | Error e -> Alcotest.failf "wrong error: %a" Sg.pp_error e);
  (match Sg.of_stg ~initial_values:[ ("Req", 1) ] stg with
  | Ok sg -> check_int "consistent override kept" 1 (Sg.value sg (Sg.initial sg) 0)
  | Error e -> Alcotest.failf "consistent override rejected: %a" Sg.pp_error e);
  Alcotest.check_raises "unknown signal"
    (Invalid_argument "Sg.of_stg: unknown signal zz in initial_values")
    (fun () -> ignore (Sg.of_stg ~initial_values:[ ("zz", 1) ] stg));
  Alcotest.check_raises "value out of range"
    (Invalid_argument "Sg: initial_values entries must be 0 or 1") (fun () ->
      ignore (Sg.of_stg ~initial_values:[ ("Req", 2) ] stg))

let suite =
  suite
  @ [
      Alcotest.test_case "concurrency matches naive diamonds" `Quick
        test_concurrency_matches_naive;
      Alcotest.test_case "unconstrained initial values" `Quick
        test_unconstrained_initial_values;
      Alcotest.test_case "initial value override" `Quick
        test_initial_values_override;
      Alcotest.test_case "initial value conflicts" `Quick
        test_initial_values_conflict;
    ]

(* ---- packed determinism/commutativity vs the label-list scans ---- *)

let row sg s = List.rev (Sg.fold_succ sg s [] (fun acc tr d -> (tr, d) :: acc))

(* The checks as [Sg] made them before it read the packed label masks:
   label lists per row, polymorphic label compares and [succ_by_label]
   lists.  The oracle for the packed paths. *)
let row_labels sg s =
  List.map (fun (tr, d) -> (Stg.label (Sg.stg sg) tr, d)) (row sg s)

let scan_deterministic sg =
  List.for_all
    (fun s ->
      let rec distinct = function
        | [] | [ _ ] -> true
        | a :: (b :: _ as rest) -> a <> b && distinct rest
      in
      distinct (List.sort compare (List.map fst (row_labels sg s))))
    (Sg.states sg)

let scan_commutative sg =
  List.for_all
    (fun s ->
      let row = row_labels sg s in
      List.for_all
        (fun (a, s1) ->
          List.for_all
            (fun (b, s2) ->
              a = b
              ||
              match (Sg.succ_by_label sg s1 b, Sg.succ_by_label sg s2 a) with
              | [ x ], [ y ] -> x = y
              | [], _ | _, [] -> true
              | _ -> false)
            row)
        row)
    (Sg.states sg)

let packed_si_agrees sg =
  Sg.is_deterministic sg = scan_deterministic sg
  && Sg.is_commutative sg = scan_commutative sg

let distinct_labels sg =
  let seen = Hashtbl.create 64 in
  Sg.iter_arcs sg (fun _ tr _ ->
      Hashtbl.replace seen (Stg.label (Sg.stg sg) tr) ());
  Hashtbl.length seen

(* [sg] with [extra s] appended to each row [s]. *)
let with_arcs sg extra =
  fst (Sg.derive sg ~arcs:(fun s -> row sg s @ extra s))

(* [sg] with state [s]'s arc through [tr] redirected to [t], and with a
   second [tr] arc from [s] to [t]: the first mutant can break a diamond,
   the second breaks determinism. *)
let mutants sg s tr t =
  ( fst
      (Sg.derive sg ~arcs:(fun s' ->
           List.map
             (fun (tr', d) -> (tr', if s' = s && tr' = tr then t else d))
             (row sg s'))),
    with_arcs sg (fun s' -> if s' = s then [ (tr, t) ] else []) )

let test_packed_si_hand_built () =
  List.iter
    (fun (name, sg) ->
      check (name ^ ": scans agree") true (packed_si_agrees sg))
    [
      ("nondeterministic", nondeterministic_sg ());
      ("noncommutative", noncommutative_sg ());
      ("fig1", fig1_sg ());
    ]

let prop_packed_si_random =
  QCheck.Test.make ~name:"packed SI = list scans on random specs" ~count:40
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let sg = Gen.sg_exn (Expansion.four_phase (Gen.random_spec seed)) in
      let st = Random.State.make [| seed |] in
      let pick () = Random.State.int st (Sg.n_states sg) in
      let s = pick () and t = pick () in
      let tr =
        Sg.fold_succ sg s (-1) (fun acc tr _ -> if acc < 0 then tr else acc)
      in
      packed_si_agrees sg
      && (tr < 0
         ||
         let redirected, doubled = mutants sg s tr t in
         packed_si_agrees redirected && packed_si_agrees doubled))

(* Two independent rings of [k] signals each: 4k distinct labels and a
   diamond at every state. *)
let two_rings k =
  let ring p =
    let edges d = List.init k (fun i -> Printf.sprintf "%s%d%s" p i d) in
    let seq = edges "+" @ edges "-" in
    List.map2 (fun a b -> a ^ " " ^ b) seq (List.tl seq @ [ List.hd seq ])
  in
  let names p = String.concat " " (List.init k (Printf.sprintf "%s%d" p)) in
  let marking =
    Printf.sprintf ".marking { <x%d-,x0+> <y%d-,y0+> }" (k - 1) (k - 1)
  in
  Stg.Io.parse
    (String.concat "\n"
       ([ ".outputs " ^ names "x" ^ " " ^ names "y"; ".graph" ]
       @ ring "x" @ ring "y"
       @ [ marking; ".end"; "" ]))
  |> Gen.sg_exn

(* Mutants of the initial state's x0+/y0+ diamond: x0+ redirected past
   x1+, so the diamond no longer closes; a second x0+ arc there; and a
   second closing arc on both sides (y0+ after x0+, x0+ after y0+), so
   neither closing successor is unique. *)
let test_packed_si_rings () =
  List.iter
    (fun (k, fallback) ->
      let sg = two_rings k in
      let stg = Sg.stg sg and s0 = Sg.initial sg in
      let arc s name =
        let l = Core.lab stg name in
        List.find (fun (tr, _) -> Stg.label stg tr = l) (row sg s)
      in
      let x0, s1 = arc s0 "x0+" and y0, s2 = arc s0 "y0+" in
      let _, after_x1 = arc s1 "x1+" in
      let forked =
        with_arcs sg (fun s ->
            if s = s1 then [ (y0, s0) ]
            else if s = s2 then [ (x0, s0) ]
            else [])
      in
      let redirected, doubled = mutants sg s0 x0 after_x1 in
      List.iter
        (fun (what, m, det, comm) ->
          let what = Printf.sprintf "%d-signal rings, %s" k what in
          check (what ^ ": fallback") fallback (distinct_labels m > 62);
          check (what ^ ": deterministic") det (Sg.is_deterministic m);
          check (what ^ ": commutative") comm (Sg.is_commutative m);
          check (what ^ ": scans agree") true (packed_si_agrees m))
        [
          ("as built", sg, true, true);
          ("redirected", redirected, true, false);
          ("doubled", doubled, false, false);
          ("forked", forked, false, false);
        ])
    [ (2, false); (18, true) ]

let suite =
  suite
  @ [
      Alcotest.test_case "packed SI = list scans, hand-built graphs" `Quick
        test_packed_si_hand_built;
      QCheck_alcotest.to_alcotest prop_packed_si_random;
      Alcotest.test_case "packed SI = list scans, ring diamonds" `Quick
        test_packed_si_rings;
    ]

(* ---- state numbering, pinned ---- *)

(* [astg show] then [astg check] on every shipped spec, on four-phase LR,
   PAR and MMU, and on the 63- and 64-signal rings (markings past one
   word; the 64-signal ring's codes take two), each in a fresh process:
   the net, every state with its code and every row's arcs in order, then
   the implementability report.  Csc's product and every golden
   downstream read [Sg.of_stg]'s state numbers and row order, so a change
   to the explorer or to the analyses must print these bytes unchanged.
   Bless an intended change with ASYNC_REPRO_BLESS=1. *)
let test_show_golden () =
  let b = Buffer.create 65536 in
  List.iter
    (fun (name, spec) ->
      Test_obs.with_spec_file name spec @@ fun file ->
      List.iter
        (fun cmd ->
          let rc, out, err = Test_serve.run_cli [ cmd; file ] in
          Printf.bprintf b "== %s %s: exit %d\n%s" cmd name rc out;
          if err <> "" then Printf.bprintf b "-- stderr\n%s" err)
        [ "show"; "check" ])
    (List.map (fun (f, path) -> (f, `File path)) (Test_roundtrip.g_files ())
    @ [
        ("LR", `Printed (Expansion.four_phase Specs.lr));
        ("PAR", `Printed (Expansion.four_phase Specs.par));
        ("MMU", `Printed (Expansion.four_phase Specs.mmu));
        ("ring63", `Printed (Gen.ring ~inputs:1 63));
        ("ring64", `Printed (Gen.ring ~inputs:1 64));
      ]);
  Test_obs.check_golden "show.expected" (Buffer.contents b)

let suite =
  suite @ [ Alcotest.test_case "show golden" `Quick test_show_golden ]
