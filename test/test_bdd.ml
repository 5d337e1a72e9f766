(* Tests for the BDD engine and symbolic reachability. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_constants () =
  let man = Bdd.manager () in
  check "tru" true (Bdd.is_tru Bdd.tru);
  check "fls" true (Bdd.is_fls Bdd.fls);
  check "neg tru" true (Bdd.is_fls (Bdd.neg man Bdd.tru));
  check "tru <> fls" false (Bdd.equal Bdd.tru Bdd.fls)

let test_hash_consing () =
  let man = Bdd.manager () in
  let x = Bdd.var man 0 and y = Bdd.var man 1 in
  check "same var shared" true (Bdd.equal x (Bdd.var man 0));
  check "x /\\ y built twice is shared" true
    (Bdd.equal (Bdd.conj man x y) (Bdd.conj man x y));
  check "commutative ops canonical" true
    (Bdd.equal (Bdd.conj man x y) (Bdd.conj man y x));
  check "double negation" true (Bdd.equal (Bdd.neg man (Bdd.neg man x)) x)

let test_eval () =
  let man = Bdd.manager () in
  let x = Bdd.var man 0 and y = Bdd.var man 1 in
  let f = Bdd.xor man x y in
  check "xor 00" false (Bdd.eval f 0b00);
  check "xor 01" true (Bdd.eval f 0b01);
  check "xor 10" true (Bdd.eval f 0b10);
  check "xor 11" false (Bdd.eval f 0b11)

let test_restrict_quantify () =
  let man = Bdd.manager () in
  let x = Bdd.var man 0 and y = Bdd.var man 1 in
  let f = Bdd.conj man x y in
  check "restrict x=1" true (Bdd.equal (Bdd.restrict man f 0 true) y);
  check "restrict x=0" true (Bdd.is_fls (Bdd.restrict man f 0 false));
  check "exists x" true (Bdd.equal (Bdd.exists man [ 0 ] f) y);
  check "forall x of conj" true (Bdd.is_fls (Bdd.forall man [ 0 ] f));
  check "forall of disj" true
    (Bdd.equal (Bdd.forall man [ 0 ] (Bdd.disj man x y)) y)

let test_sat_count () =
  let man = Bdd.manager () in
  let x = Bdd.var man 0 and y = Bdd.var man 1 in
  check_int "x over 2 vars" 2 (Bdd.sat_count man ~nvars:2 x);
  check_int "x/\\y" 1 (Bdd.sat_count man ~nvars:2 (Bdd.conj man x y));
  check_int "x\\/y" 3 (Bdd.sat_count man ~nvars:2 (Bdd.disj man x y));
  check_int "tru over 5" 32 (Bdd.sat_count man ~nvars:5 Bdd.tru);
  check_int "fls" 0 (Bdd.sat_count man ~nvars:5 Bdd.fls)

let test_any_sat () =
  let man = Bdd.manager () in
  let x = Bdd.var man 0 and y = Bdd.var man 1 in
  let f = Bdd.conj man (Bdd.neg man x) y in
  (match Bdd.any_sat man f with
  | Some assignment ->
      check "x false" true (List.assoc 0 assignment = false);
      check "y true" true (List.assoc 1 assignment = true)
  | None -> Alcotest.fail "satisfiable");
  check "fls unsat" true (Bdd.any_sat man Bdd.fls = None)

let test_of_cover () =
  let man = Bdd.manager () in
  let cover = [ Boolf.Cube.of_string "10-"; Boolf.Cube.of_string "--1" ] in
  let f = Bdd.of_cover man cover in
  let rec loop m ok =
    if m >= 8 then ok
    else loop (m + 1) (ok && Bdd.eval f m = Boolf.Cover.covers cover m)
  in
  check "agrees with cover semantics" true (loop 0 true)

(* Random boolean expression ASTs evaluated both ways. *)
type expr = V of int | Not of expr | And of expr * expr | Or of expr * expr | Xor of expr * expr

let gen_expr nvars =
  QCheck.Gen.(
    sized_size (int_range 0 6) @@ fix (fun self n ->
        if n = 0 then map (fun v -> V v) (int_range 0 (nvars - 1))
        else
          frequency
            [
              (1, map (fun v -> V v) (int_range 0 (nvars - 1)));
              (2, map (fun e -> Not e) (self (n - 1)));
              (2, map2 (fun a b -> And (a, b)) (self (n / 2)) (self (n / 2)));
              (2, map2 (fun a b -> Or (a, b)) (self (n / 2)) (self (n / 2)));
              (1, map2 (fun a b -> Xor (a, b)) (self (n / 2)) (self (n / 2)));
            ]))

let rec build man = function
  | V v -> Bdd.var man v
  | Not e -> Bdd.neg man (build man e)
  | And (a, b) -> Bdd.conj man (build man a) (build man b)
  | Or (a, b) -> Bdd.disj man (build man a) (build man b)
  | Xor (a, b) -> Bdd.xor man (build man a) (build man b)

let rec eval_expr e m =
  match e with
  | V v -> m land (1 lsl v) <> 0
  | Not e -> not (eval_expr e m)
  | And (a, b) -> eval_expr a m && eval_expr b m
  | Or (a, b) -> eval_expr a m || eval_expr b m
  | Xor (a, b) -> eval_expr a m <> eval_expr b m

let prop_bdd_matches_truth_table =
  QCheck.Test.make ~name:"BDD agrees with the truth table" ~count:200
    (QCheck.make (gen_expr 5))
    (fun e ->
      let man = Bdd.manager () in
      let f = build man e in
      let rec loop m ok =
        if m >= 32 then ok
        else loop (m + 1) (ok && Bdd.eval f m = eval_expr e m)
      in
      loop 0 true)

let prop_bdd_canonical =
  QCheck.Test.make
    ~name:"equivalent expressions build the same node" ~count:100
    (QCheck.make QCheck.Gen.(pair (gen_expr 4) (gen_expr 4)))
    (fun (a, b) ->
      let man = Bdd.manager () in
      let fa = build man a and fb = build man b in
      let rec same m =
        m >= 16 || (eval_expr a m = eval_expr b m && same (m + 1))
      in
      Bdd.equal fa fb = same 0)

let prop_minimizer_vs_bdd =
  (* The two-level minimizer checked against an independent oracle. *)
  QCheck.Test.make ~name:"minimize agrees with the BDD oracle" ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 0 8) (int_range 0 31))
              (list_of_size Gen.(int_range 0 8) (int_range 0 31)))
    (fun (on, off) ->
      QCheck.assume (not (List.exists (fun m -> List.mem m off) on));
      let cover =
        Boolf.minimize ~n:5 ~on:(Array.of_list on) ~off:(Array.of_list off)
      in
      let man = Bdd.manager () in
      let f = Bdd.of_cover man cover in
      List.for_all (fun m -> Bdd.eval f m) on
      && not (List.exists (fun m -> Bdd.eval f m) off))

(* ---- symbolic reachability ---- *)

let test_symbolic_matches_explicit () =
  let nets =
    [
      ("fig1", (Specs.fig1 ()).Stg.net);
      ("LR", (Expansion.four_phase Specs.lr).Stg.net);
      ("PAR", (Expansion.four_phase Specs.par).Stg.net);
      ("vme-read", (Specs.Corpus.find "vme-read").Stg.net);
    ]
  in
  List.iter
    (fun (name, net) ->
      let explicit = List.length (Petri.reachable net) in
      let r = Symbolic.analyze net in
      Alcotest.(check int) (name ^ " counts agree") explicit
        r.Symbolic.reachable_count;
      check (name ^ " iterations positive") true (r.Symbolic.iterations > 0))
    nets

let test_symbolic_marking_reachable () =
  let net = (Specs.fig1 ()).Stg.net in
  (* One Space handle serves every query: the fixpoint runs once. *)
  let sp = Symbolic.Space.of_net net in
  check "initial reachable" true
    (Symbolic.Space.marking_reachable sp (Petri.initial_marking net));
  (* The all-places-marked marking is not reachable in a live STG. *)
  let bogus = Array.make (Petri.n_places net) 1 in
  check "bogus unreachable" false (Symbolic.Space.marking_reachable sp bogus);
  check "live via the same handle" false (Symbolic.Space.has_deadlock sp);
  check "memoized deadlock verdict stable" false
    (Symbolic.Space.has_deadlock sp);
  Alcotest.(check int)
    "Space.result = analyze"
    (Symbolic.analyze net).Symbolic.reachable_count
    (Symbolic.Space.result sp).Symbolic.reachable_count

let test_symbolic_deadlock () =
  check "fig1 live" false (Symbolic.has_deadlock (Specs.fig1 ()).Stg.net);
  (* A net that halts: one transition consuming the only token. *)
  let b = Petri.Builder.create () in
  let t = Petri.Builder.add_trans b ~name:"t" in
  let p = Petri.Builder.add_place b ~name:"p" ~tokens:1 in
  let q = Petri.Builder.add_place b ~name:"q" ~tokens:0 in
  Petri.Builder.arc_pt b p t;
  Petri.Builder.arc_tp b t q;
  check "halting net deadlocks" true
    (Symbolic.has_deadlock (Petri.Builder.build b))

let prop_symbolic_vs_explicit_forkjoins =
  QCheck.Test.make
    ~name:"symbolic reachability count = explicit on fork-joins" ~count:10
    QCheck.(int_range 1 5)
    (fun width ->
      let net = (Gen.fork_join width).Stg.net in
      Symbolic.(analyze net).reachable_count
      = List.length (Petri.reachable net))

let prop_symbolic_vs_explicit_mmu =
  QCheck.Test.make ~name:"symbolic = explicit on the MMU expansion" ~count:1
    QCheck.unit
    (fun () ->
      let net = (Expansion.four_phase Specs.mmu).Stg.net in
      Symbolic.(analyze net).reachable_count
      = List.length (Petri.reachable net))

let suite =
  [
    Alcotest.test_case "constants" `Quick test_constants;
    Alcotest.test_case "hash consing" `Quick test_hash_consing;
    Alcotest.test_case "eval" `Quick test_eval;
    Alcotest.test_case "restrict and quantify" `Quick test_restrict_quantify;
    Alcotest.test_case "sat count" `Quick test_sat_count;
    Alcotest.test_case "any sat" `Quick test_any_sat;
    Alcotest.test_case "of_cover" `Quick test_of_cover;
    QCheck_alcotest.to_alcotest prop_bdd_matches_truth_table;
    QCheck_alcotest.to_alcotest prop_bdd_canonical;
    QCheck_alcotest.to_alcotest prop_minimizer_vs_bdd;
    Alcotest.test_case "symbolic = explicit" `Quick
      test_symbolic_matches_explicit;
    Alcotest.test_case "symbolic marking query" `Quick
      test_symbolic_marking_reachable;
    Alcotest.test_case "symbolic deadlock" `Quick test_symbolic_deadlock;
    QCheck_alcotest.to_alcotest prop_symbolic_vs_explicit_forkjoins;
    QCheck_alcotest.to_alcotest prop_symbolic_vs_explicit_mmu;
  ]
