(* Differential tests for the incremental logic-cost evaluation.

   Three ways to cost an SG must agree exactly — not just on the total,
   but on every per-signal ON/OFF set, conflict count and minimized
   cover:

   - from scratch ([Logic.evaluate ~memo:false], the reference, equal to
     [Logic.estimate]);
   - through the cross-candidate cover cache ([~memo:true], {!Boolf.Memo});
   - incrementally from the parent configuration
     ([Logic.estimate_delta]), as the reduction search does.

   The same contract lifted to whole searches: [Search.optimize] outcomes
   must be byte-identical across the [`Scratch]/[`Delta] evaluation
   modes. *)

(* Full textual rendering of a logic evaluation: any divergence — a set,
   a conflict count, a cover cube, a literal count, the total — breaks
   string equality. *)
let eval_repr stg (e : Logic.eval) =
  let names = Array.map (fun s -> s.Stg.Signal.name) stg.Stg.signals in
  let ints l = String.concat "," (List.map string_of_int l) in
  let sig_repr (ps : Logic.per_sig) =
    Printf.sprintf "%s: on=[%s] off=[%s] conflicts=%d lits=%d cover=%s"
      names.(ps.Logic.ps_signal) (ints ps.Logic.ps_on) (ints ps.Logic.ps_off)
      ps.Logic.ps_conflicts ps.Logic.ps_literals
      (Boolf.Cover.render ~names ps.Logic.ps_cover)
  in
  Printf.sprintf "total=%d penalty=%d\n%s" e.Logic.e_total e.Logic.e_penalty
    (String.concat "\n" (List.map sig_repr e.Logic.e_sigs))

(* Every built reduction candidate of [sg] (validated or not — the delta
   estimator only depends on the graph), costed all three ways. *)
let check_logic_paths name stg =
  let sg = Gen.sg_exn stg in
  let parent = Logic.evaluate ~memo:false sg in
  Alcotest.(check int)
    (name ^ " evaluate = estimate") (Logic.estimate sg) (Logic.total parent);
  let try_one (a, b) =
    match Reduction.fwd_red_built sg ~a ~b with
    | Error _ -> ()
    | Ok built ->
        let sg' = built.Reduction.cand in
        let r = eval_repr stg in
        let scratch = Logic.evaluate ~memo:false sg' in
        let memo = Logic.evaluate ~memo:true sg' in
        let delta =
          Logic.estimate_delta ~parent ~delta:built.Reduction.delta sg'
        in
        let step =
          Printf.sprintf "%s FwdRed(%s,%s)" name (Stg.label_name stg a)
            (Stg.label_name stg b)
        in
        Alcotest.(check string) (step ^ ": memo = scratch") (r scratch) (r memo);
        Alcotest.(check string)
          (step ^ ": delta = scratch") (r scratch) (r delta)
  in
  List.iter
    (fun (a, b) ->
      try_one (a, b);
      try_one (b, a))
    (Sg.concurrent_pairs sg)

let named_specs = Test_search.named_specs

let test_logic_named () =
  List.iter (fun (name, stg) -> check_logic_paths name stg) (named_specs ())

(* Same over every shipped .g example with a valid SG. *)
let examples_dir () =
  match Sys.getenv_opt "ASYNC_REPRO_EXAMPLES" with
  | Some d -> d
  | None ->
      let rec up dir n =
        let cand = Filename.concat dir "examples/data" in
        if Sys.file_exists cand && Sys.is_directory cand then cand
        else if n = 0 || Filename.dirname dir = dir then
          Alcotest.fail "examples/data not found (set ASYNC_REPRO_EXAMPLES)"
        else up (Filename.dirname dir) (n - 1)
      in
      up (Sys.getcwd ()) 8

let test_logic_examples () =
  let dir = examples_dir () in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".g")
    |> List.sort compare
  in
  Alcotest.(check bool) "examples present" true (files <> []);
  List.iter
    (fun f ->
      let stg = Stg.Io.parse_file (Filename.concat dir f) in
      match Sg.of_stg ~warn:(fun _ -> ()) stg with
      | Error _ -> () (* partial/inconsistent spec: nothing to cost *)
      | Ok _ -> check_logic_paths f stg)
    files

(* 100 seeded random series-parallel STGs. *)
let test_logic_random () =
  for seed = 0 to 99 do
    check_logic_paths
      (Printf.sprintf "seed %d" seed)
      (Gen.random_stg ~max_signals:6 seed)
  done

(* ------------------------------------------------------------------ *)
(* Support tracking: [delta.support] really bounds the changing signals. *)

(* For every built candidate, any signal OUTSIDE the reported support must
   have a (ON, OFF, conflicts) triple identical to the parent's under the
   cost-side (ghost) extraction — the soundness condition that lets
   [Logic.estimate_delta] inherit those signals blindly (DESIGN.md,
   "Per-signal support tracking"). *)
let check_support_bound name stg =
  let sg = Gen.sg_exn stg in
  let parent = Logic.evaluate ~memo:false sg in
  let triples e =
    List.map
      (fun (ps : Logic.per_sig) ->
        (ps.Logic.ps_signal, (ps.Logic.ps_on, ps.Logic.ps_off, ps.Logic.ps_conflicts)))
      e.Logic.e_sigs
  in
  let parent_triples = triples parent in
  let try_one (a, b) =
    match Reduction.fwd_red_built sg ~a ~b with
    | Error _ -> ()
    | Ok built ->
        let d = built.Reduction.delta in
        let step =
          Printf.sprintf "%s FwdRed(%s,%s)" name (Stg.label_name stg a)
            (Stg.label_name stg b)
        in
        Alcotest.(check bool)
          (step ^ ": support tracked") true (d.Sg.support >= 0);
        if d.Sg.pruned > 0 then
          Alcotest.(check bool)
            (step ^ ": pruning changes a surviving row")
            true
            (Array.length d.Sg.rows_changed > 0);
        let child = Logic.evaluate ~memo:false built.Reduction.cand in
        List.iter2
          (fun (s, pt) (s', ct) ->
            Alcotest.(check int) (step ^ ": signal order") s s';
            if d.Sg.support land (1 lsl s) = 0 then
              Alcotest.(check bool)
                (Printf.sprintf "%s: signal %d outside support unchanged" step
                   s)
                true (pt = ct))
          parent_triples (triples child)
  in
  List.iter
    (fun (a, b) ->
      try_one (a, b);
      try_one (b, a))
    (Sg.concurrent_pairs sg)

let test_support_named () =
  List.iter (fun (name, stg) -> check_support_bound name stg) (named_specs ())

let test_support_random () =
  for seed = 0 to 99 do
    check_support_bound
      (Printf.sprintf "seed %d" seed)
      (Gen.random_stg ~max_signals:6 seed)
  done

(* The CSC-conflict count and the enabled masks a candidate inherits from
   its parent.  A candidate built from a parent whose masks are cached (as
   every search candidate is: pricing counts the CSC conflicts of every
   frontier graph, which fills its masks) reads its parent's label-bit
   numbering; one built from a fresh parent
   numbers its own labels.  Every mode builds candidates the same way, so
   the search-outcome differentials cannot catch a bias here: along a warm
   and a cold lineage of equal graphs, two levels deep, check the count
   against the pair-list oracle [List.length (Sg.csc_conflicts _)], and
   each warm graph against its cold twin on every check that reads the
   masks. *)
let check_csc_delta name stg =
  let depth_budget = ref 24 in
  (* Invariant: [warm]'s CSC conflicts are counted before its candidates
     are built (so they inherit its masks, like search candidates); [cold]'s
     candidates are built while nothing of it is cached. *)
  let rec go depth label (warm : Sg.t) (cold : Sg.t) =
    ignore (Sg.csc_conflict_count warm : int);
    let recs =
      if depth = 0 then []
      else
        List.filter_map
          (fun (a, b) ->
            if !depth_budget <= 0 then None
            else
              match
                ( Reduction.fwd_red_built warm ~a ~b,
                  Reduction.fwd_red_built cold ~a ~b )
              with
              | Ok w, Ok c ->
                  decr depth_budget;
                  Some
                    ( Printf.sprintf "%s/FwdRed(%s,%s)" label
                        (Stg.label_name stg a) (Stg.label_name stg b),
                      w.Reduction.cand,
                      c.Reduction.cand )
              | _ -> None)
          (Sg.concurrent_pairs warm)
    in
    let same what f =
      Alcotest.(check bool) (label ^ ": warm = cold " ^ what) true
        (f warm = f cold)
    in
    same "deterministic" Sg.is_deterministic;
    same "commutative" Sg.is_commutative;
    same "first persistency violation" Sg.first_persistency_violation;
    Alcotest.(check int)
      (label ^ ": warm csc = cold csc")
      (Sg.csc_conflict_count cold)
      (Sg.csc_conflict_count warm);
    Alcotest.(check int)
      (label ^ ": csc count = pair list")
      (List.length (Sg.csc_conflicts cold))
      (Sg.csc_conflict_count cold);
    List.iter (fun (lbl, w, c) -> go (depth - 1) lbl w c) recs
  in
  go 2 name (Gen.sg_exn stg) (Gen.sg_exn stg)

let test_csc_delta_named () =
  List.iter (fun (name, stg) -> check_csc_delta name stg) (named_specs ())

let test_csc_delta_random () =
  for seed = 0 to 99 do
    check_csc_delta
      (Printf.sprintf "seed %d" seed)
      (Gen.random_stg ~max_signals:6 seed)
  done

(* The ring a+ a- b+ b- of two outputs, whose code 00 enables a+ in one
   state and b+ in another, beside an independent ring of [k] outputs (as
   [two_rings] in test_sg.ml): 2 + k signals, 4 + 2k labels and one
   conflicting pair per state of the wide ring, 2k in all. *)
let conflict_beside_ring k =
  let edges d = List.init k (fun i -> Printf.sprintf "x%d%s" i d) in
  let seq = edges "+" @ edges "-" in
  let ring =
    List.map2 (fun a b -> a ^ " " ^ b) seq (List.tl seq @ [ List.hd seq ])
  in
  let names = String.concat " " (List.init k (Printf.sprintf "x%d")) in
  let marking = Printf.sprintf ".marking { <b-,a+> <x%d-,x0+> }" (k - 1) in
  Stg.Io.parse
    (String.concat "\n"
       ([ ".outputs a b " ^ names; ".graph" ]
       @ [ "a+ a-"; "a- b+"; "b+ b-"; "b- a+" ]
       @ ring
       @ [ marking; ".end"; "" ]))

(* The count's fallbacks off the direct path, each with conflicts to
   count: codes wider than 16 bits (the sort path, with label masks) and
   more labels than a mask word holds (no masks at all). *)
let test_csc_fallbacks () =
  List.iter
    (fun (k, what, on_path) ->
      let stg = conflict_beside_ring k in
      let sg = Gen.sg_exn stg in
      let name = Printf.sprintf "%d-signal ring beside a conflict" k in
      Alcotest.(check bool) (name ^ ": " ^ what) true (on_path sg);
      Alcotest.(check int) (name ^ ": csc count") (2 * k)
        (Sg.csc_conflict_count sg);
      check_csc_delta name stg)
    [
      (16, "more than 16 signals", fun sg -> Stg.n_signals (Sg.stg sg) > 16);
      ( 30,
        "more than 62 labels",
        fun sg -> List.length (Sg.arc_label_instances sg) > 62 );
    ]

(* Regression for the tentpole: on the MMU search the delta path must
   actually reuse — at least half of the per-signal slots inherited rather
   than re-derived.  (The measured fraction is ~0.75; the bound leaves
   headroom for cost-model tweaks without masking a recompute-everything
   regression.) *)
let test_mmu_inherit_fraction () =
  let sg = Gen.sg_exn (Expansion.four_phase Specs.mmu) in
  let counter name = List.assoc name (Obs.counters ()) in
  let inherited = counter "logic.delta.inherited"
  and recomputed = counter "logic.delta.recomputed" in
  Test_obs.with_enabled true (fun () ->
      ignore (Search.optimize ~eval_mode:`Delta sg));
  let inherited = counter "logic.delta.inherited" - inherited
  and recomputed = counter "logic.delta.recomputed" - recomputed in
  let total = inherited + recomputed in
  Alcotest.(check bool) "delta path exercised" true (total > 0);
  let fraction = float_of_int inherited /. float_of_int total in
  Alcotest.(check bool)
    (Printf.sprintf "inherited fraction %.3f >= 0.5" fraction)
    true (fraction >= 0.5)

(* ------------------------------------------------------------------ *)
(* Search-level: byte-identical outcomes across evaluation modes. *)

let modes = [ ("scratch", `Scratch); ("delta", `Delta) ]

let check_search_modes name stg =
  let sg = Gen.sg_exn stg in
  let run mode =
    Fuzz.outcome_repr stg
      (Search.optimize ~w:0.8 ~size_frontier:4 ~eval_mode:mode sg)
  in
  let reference = run `Scratch in
  List.iter
    (fun (mname, mode) ->
      Alcotest.(check string)
        (Printf.sprintf "%s %s" name mname)
        reference (run mode))
    modes

let test_search_named () =
  List.iter (fun (name, stg) -> check_search_modes name stg) (named_specs ())

let test_search_random () =
  for seed = 0 to 99 do
    let stg = Gen.random_stg ~max_signals:6 seed in
    let sg = Gen.sg_exn stg in
    let run mode =
      Fuzz.outcome_repr stg
        (Search.optimize ~size_frontier:3 ~eval_mode:mode sg)
    in
    let reference = run `Scratch in
    List.iter
      (fun (mname, mode) ->
        Alcotest.(check string)
          (Printf.sprintf "seed %d %s" seed mname)
          reference (run mode))
      modes
  done

(* A root with two same-label arcs out of one state: the search dedups
   by root arcs, which need not match the signature there; every mode
   must still agree. *)
let test_search_same_label_choice () =
  check_search_modes "same-label choice" (Test_search.same_label_choice ())

let suite =
  [
    Alcotest.test_case "logic paths agree: named specs" `Quick
      test_logic_named;
    Alcotest.test_case "logic paths agree: shipped examples" `Quick
      test_logic_examples;
    Alcotest.test_case "logic paths agree: 100 random specs" `Slow
      test_logic_random;
    Alcotest.test_case "support bounds changes: named specs" `Quick
      test_support_named;
    Alcotest.test_case "support bounds changes: 100 random specs" `Slow
      test_support_random;
    Alcotest.test_case "incremental csc agrees: named specs" `Quick
      test_csc_delta_named;
    Alcotest.test_case "incremental csc agrees: 100 random specs" `Slow
      test_csc_delta_random;
    Alcotest.test_case "MMU inherit fraction >= 0.5" `Quick
      test_mmu_inherit_fraction;
    Alcotest.test_case "search modes agree: named specs" `Slow
      test_search_named;
    Alcotest.test_case "search modes agree: 100 random specs" `Slow
      test_search_random;
    Alcotest.test_case "csc count fallbacks: >16 signals, >62 labels" `Quick
      test_csc_fallbacks;
    Alcotest.test_case "search modes agree: same-label choice" `Quick
      test_search_same_label_choice;
  ]
