(* Tests for the frontier (beam) search optimizer of Fig. 9. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let lr_sg () =
  let stg = Expansion.four_phase Specs.lr in
  (stg, Gen.sg_exn stg)

(* The paper's specs, as the differential suites run them. *)
let named_specs () =
  [
    ("fig1", Specs.fig1 ());
    ("LR", Expansion.four_phase Specs.lr);
    ("PAR", Expansion.four_phase Specs.par);
    ("MMU", Expansion.four_phase Specs.mmu);
  ]

let test_evaluate () =
  let _, sg = lr_sg () in
  let c = Search.evaluate sg in
  check "positive cost" true (c.Search.cost > 0.0);
  check_int "three csc pairs" 3 c.Search.csc_pairs;
  check "estimate positive" true (c.Search.logic_estimate > 0);
  (* w = 1 ignores conflicts; w = 0 ignores logic. *)
  let c1 = Search.evaluate ~w:1.0 sg and c0 = Search.evaluate ~w:0.0 sg in
  check "w=1 cost = logic" true
    (c1.Search.cost = float_of_int c1.Search.logic_estimate);
  check "w=0 cost = weighted conflicts" true
    (c0.Search.cost = 8.0 *. float_of_int c0.Search.csc_pairs)

let test_optimize_improves () =
  let _, sg = lr_sg () in
  let o = Search.optimize ~w:0.8 ~size_frontier:6 sg in
  check "best improves on initial" true
    (o.Search.best.Search.cost < o.Search.initial.Search.cost);
  check "explored several configurations" true (o.Search.explored > 5);
  check "levels advanced" true (o.Search.levels >= 1);
  check "applied steps recorded" true (o.Search.best.Search.applied <> [])

let test_keep_conc_enforced () =
  let stg, sg = lr_sg () in
  let pair = (Core.lab stg "lo-", Core.lab stg "ro-") in
  let o = Search.optimize ~w:0.8 ~size_frontier:6 ~keep_conc:[ pair ] sg in
  check "protected pair still concurrent" true
    (Sg.concurrent o.Search.best.Search.sg (fst pair) (snd pair));
  (* And never applied directly. *)
  check "protected pair never reduced" true
    (not
       (List.exists
          (fun (a, b) ->
            (a = fst pair && b = snd pair) || (a = snd pair && b = fst pair))
          o.Search.best.Search.applied))

let test_max_levels () =
  let _, sg = lr_sg () in
  let o = Search.optimize ~max_levels:1 sg in
  check "stopped at level 1" true (o.Search.levels <= 1);
  check "best applied at most one step" true
    (List.length o.Search.best.Search.applied <= 1)

let test_apply_script_order () =
  let stg, sg = lr_sg () in
  let l = Core.lab stg in
  let script = [ (l "lo+", l "ro-"); (l "lo+", l "ri-") ] in
  let reduced, applied = Search.apply_script sg script in
  check_int "both applied" 2 (List.length applied);
  check "fewer states" true (Sg.n_states reduced < Sg.n_states sg)

(* Logic synthesis spends one variable per signal: past
   [Boolf.max_vars] signals synth and reduce (whose search prices logic)
   end in a typed error that names the limit, exit 124 at the CLI,
   before anything past the state graph runs. *)
let test_past_signal_limit () =
  Test_serve.with_ring_past_limit @@ fun stg path ->
  let error = Error Test_serve.past_limit_error in
  Alcotest.(check (result string string)) "synth_text" error
    (Core.Cli.synth_text Core.Cli.default_synth stg);
  Alcotest.(check (result string string)) "reduce_text" error
    (Core.Cli.reduce_text Core.Cli.default_reduce stg);
  List.iter
    (fun args ->
      let name = String.concat " " args in
      let rc, out, err = Test_serve.run_cli (args @ [ path ]) in
      check_int (name ^ " exits 124") 124 rc;
      Alcotest.(check string) (name ^ " stdout") "" out;
      Alcotest.(check string) (name ^ " stderr")
        ("astg: " ^ Test_serve.past_limit_error ^ "\n")
        err)
    [
      [ "synth" ];
      [ "synth"; "--emit"; "verilog" ];
      [ "reduce" ];
      [ "reduce"; "--portfolio"; "0.3,0.8"; "--stg" ];
    ]

let test_wider_frontier_explores_more () =
  let _, sg = lr_sg () in
  let narrow = Search.optimize ~size_frontier:1 ~w:0.8 sg in
  let wide = Search.optimize ~size_frontier:16 ~w:0.8 sg in
  check "wider explores at least as much" true
    (wide.Search.explored >= narrow.Search.explored);
  check "wider finds at least as good" true
    (wide.Search.best.Search.cost <= narrow.Search.best.Search.cost)

let prop_search_monotone_cost_levels =
  (* The search is monotone: every neighbour has strictly fewer arcs, so
     the search always terminates; check termination + sane outcome on
     random specs. *)
  QCheck.Test.make ~name:"search terminates with valid best" ~count:8
    QCheck.(int_range 0 2_000)
    (fun seed ->
      let stg = Expansion.four_phase (Gen.random_spec seed) in
      let sg = Gen.sg_exn stg in
      QCheck.assume (Sg.n_states sg <= 150);
      let o = Search.optimize ~size_frontier:3 sg in
      o.Search.best.Search.cost <= o.Search.initial.Search.cost
      && Sg.deadlocks o.Search.best.Search.sg = [])

(* ---- the dedup key ---- *)

let is_input stg = function
  | Stg.Edge (s, _) -> Stg.Signal.is_input (Stg.signal stg s)
  | Stg.Dummy _ -> false

(* A replay of [Search.optimize] at its defaults (w = 0.5, frontier 4)
   from public steps, deduplicating by [key] (the signature unless
   given): every candidate SG the search builds with its key, the root
   first, the replay's explored count and best cost, and the
   configurations each level takes as parents, level by level. *)
let search_candidates ?(key = Sg.signature) sg0 =
  let w = 0.5 and size_frontier = 4 in
  let cost sg = (Search.evaluate ~w ~memo:true sg).Search.cost in
  let seen = Hashtbl.create 64 in
  let key0 = key sg0 in
  Hashtbl.replace seen key0 ();
  let built = ref [ (sg0, key0) ] and explored = ref 1 in
  let best = ref (cost sg0) and parents = ref [] in
  let rec level frontier =
    if frontier <> [] then begin
      parents := List.rev_append frontier !parents;
      let merged = ref [] in
      List.iter
        (fun sg ->
          let stg = Sg.stg sg in
          List.concat_map
            (fun (a, b) ->
              (if is_input stg a then [] else [ (a, b) ])
              @ if is_input stg b then [] else [ (b, a) ])
            (Sg.concurrent_pairs sg)
          |> List.iter (fun (a, b) ->
                 match Reduction.fwd_red_built sg ~a ~b with
                 | Error _ -> ()
                 | Ok cand -> (
                     let k = key cand.Reduction.cand in
                     built := (cand.Reduction.cand, k) :: !built;
                     if not (Hashtbl.mem seen k) then
                       match Reduction.validate ~source:sg cand with
                       | Error _ -> ()
                       | Ok sg' ->
                           Hashtbl.replace seen k ();
                           incr explored;
                           let c = cost sg' in
                           if c < !best then best := c;
                           merged := (c, sg') :: !merged)))
        frontier;
      List.rev !merged
      |> List.stable_sort (fun (c1, _) (c2, _) -> compare c1 c2)
      |> List.filteri (fun i _ -> i < size_frontier)
      |> List.map snd |> level
    end
  in
  level [ sg0 ];
  (List.rev !built, !explored, !best, List.rev !parents)

(* Over the candidates of one search: equal root-arc keys imply equal
   signatures, and with [exact] the converse too.  With [replay], also
   check that the replay explores what [Search.optimize] does.  Returns
   the number of candidates. *)
let check_keys ~exact ~replay name sg0 =
  let cands, explored, best, _ = search_candidates sg0 in
  if replay then begin
    let o = Search.optimize sg0 in
    check_int (name ^ ": the replay explores what the search does")
      o.Search.explored explored;
    check (name ^ ": the replay finds the search's best") true
      (best = o.Search.best.Search.cost)
  end;
  let by_key = Hashtbl.create 64 and by_sig = Hashtbl.create 64 in
  List.iter
    (fun (c, s) ->
      let k = Sg.root_arc_key c in
      (match Hashtbl.find_opt by_key k with
      | Some s' when not (String.equal s s') ->
          Alcotest.failf "%s: equal keys, different signatures" name
      | Some _ | None -> Hashtbl.replace by_key k s);
      match Hashtbl.find_opt by_sig s with
      | Some k' when exact && not (String.equal k k') ->
          Alcotest.failf "%s: equal signatures, different keys" name
      | Some _ | None -> Hashtbl.replace by_sig s k)
    cands;
  List.length cands

(* From a deterministic root, the search's key and the signature make the
   same dedup decisions: the paper's specs, then 300 specs of each
   generator family (every tenth also checked against the search). *)
let test_key_exact () =
  let exact ~replay name stg =
    let sg = Gen.sg_exn stg in
    check (name ^ ": deterministic root") true (Sg.is_deterministic sg);
    check_keys ~exact:true ~replay name sg
  in
  List.iter
    (fun (name, stg) -> ignore (exact ~replay:true name stg))
    (named_specs ());
  List.iter
    (fun (family, stg_of_seed) ->
      let total = ref 0 in
      for seed = 0 to 299 do
        total :=
          !total
          + exact ~replay:(seed mod 10 = 0)
              (Printf.sprintf "%s seed %d" family seed)
              (stg_of_seed seed)
      done;
      check (family ^ ": candidates checked") true (!total > 300))
    [
      ("sp", fun seed -> Gen.random_stg seed);
      ("fc", fun seed -> Gen.random_fc_stg seed);
      ("ac", Gen.random_ac_stg);
    ]

(* Two a+ arcs leave the initial state (a choice between two occurrences
   of one label), and each branch has concurrent events to reduce: a
   nondeterministic root, where the key may keep apart candidates with
   equal signatures but never merges two that differ. *)
let same_label_choice () =
  Stg.Io.parse
    (String.concat "\n"
       [
         ".outputs a b c d";
         ".graph";
         "p0 a+/1 a+/2";
         "a+/1 b+/1 c+/1 d+/1";
         "b+/1 a-/1";
         "c+/1 a-/1";
         "d+/1 a-/1";
         "a-/1 b-/1";
         "b-/1 c-/1";
         "c-/1 d-/1";
         "d-/1 p0";
         "a+/2 b+/2 c+/2";
         "b+/2 d+/2";
         "c+/2 d+/2";
         "d+/2 a-/2";
         "a-/2 b-/2 c-/2";
         "b-/2 d-/2";
         "c-/2 d-/2";
         "d-/2 p0";
         ".marking { p0 }";
         ".end";
         "";
       ])

let test_key_nondeterministic () =
  let sg = Gen.sg_exn (same_label_choice ()) in
  check "two arcs share a label" false (Sg.is_deterministic sg);
  check "some pair is concurrent" true (Sg.concurrent_pairs sg <> []);
  ignore (check_keys ~exact:false ~replay:false "same-label choice" sg)

let suite =
  [
    Alcotest.test_case "evaluate" `Quick test_evaluate;
    Alcotest.test_case "optimize improves" `Quick test_optimize_improves;
    Alcotest.test_case "keep_conc enforced" `Quick test_keep_conc_enforced;
    Alcotest.test_case "max levels" `Quick test_max_levels;
    Alcotest.test_case "apply script" `Quick test_apply_script_order;
    Alcotest.test_case "past 62 signals: synth and reduce exit 124" `Quick
      test_past_signal_limit;
    Alcotest.test_case "wider frontier" `Quick test_wider_frontier_explores_more;
    QCheck_alcotest.to_alcotest prop_search_monotone_cost_levels;
  ]

(* ---- performance-constrained search ---- *)

let test_max_cycle_constraint () =
  let stg, sg = lr_sg () in
  let delays = Timing.table_label_delays stg in
  (* Unconstrained best of the LR space is the two-wire full reduction
     (cycle 12 under uniform label delays); bounding the cycle at 10 must
     force a more concurrent (more expensive) solution. *)
  let loose = Search.optimize ~w:1.0 ~size_frontier:8 sg in
  let tight =
    Search.optimize ~w:1.0 ~size_frontier:8 ~perf_delays:delays ~max_cycle:10
      sg
  in
  let period cfg =
    match Timing.analyze_sg ~delays cfg.Search.sg with
    | Ok r -> r.Timing.period
    | Error _ -> max_int
  in
  check "tight bound respected" true (period tight.Search.best <= 10);
  check "tight costs at least as much" true
    (tight.Search.best.Search.logic_estimate
    >= loose.Search.best.Search.logic_estimate);
  (* An unsatisfiable bound is reported as infeasible: [best] falls back to
     the initial configuration for inspection, but [feasible] is false —
     the silent bound-violating "best" of the previous implementation was a
     bug. *)
  let impossible =
    Search.optimize ~perf_delays:delays ~max_cycle:1 sg
  in
  check "unsatisfiable bound falls back" true
    (impossible.Search.best.Search.applied = []);
  check "unsatisfiable bound reported infeasible" false
    impossible.Search.feasible;
  check "satisfiable bound reported feasible" true tight.Search.feasible

(* ---- invariant preservation ---- *)

(* Independently replay every reduction the search accepted and re-check
   the SG invariants from scratch on each intermediate graph.  A stale
   analysis cache in the search (say, a label mask a candidate inherited
   from its parent) could let an invalid reduction through — the fresh
   recomputation here would catch it. *)

let check_consistent stg sg =
  let n_sigs = Stg.n_signals stg in
  List.for_all
    (fun s ->
      let c = Sg.code sg s in
      List.for_all
        (fun (tr, s') ->
          let c' = Sg.code sg s' in
          match Stg.label stg tr with
          | Stg.Dummy _ -> String.equal c c'
          | Stg.Edge (sigid, dir) ->
              let others_fixed = ref true in
              for j = 0 to n_sigs - 1 do
                if j <> sigid && c.[j] <> c'.[j] then others_fixed := false
              done;
              let dir_ok =
                match dir with
                | Stg.Plus -> c.[sigid] = '0' && c'.[sigid] = '1'
                | Stg.Minus -> c.[sigid] = '1' && c'.[sigid] = '0'
                | Stg.Toggle -> c.[sigid] <> c'.[sigid]
              in
              !others_fixed && dir_ok)
        (Sg.fold_succ sg s [] (fun acc tr s' -> (tr, s') :: acc)))
    (Sg.states sg)

let conc_count sg = List.length (Sg.concurrent_pairs sg)

let prop_invariants =
  QCheck.Test.make ~count:40 ~name:"accepted reductions preserve invariants"
    (Gen.arb_sp ~max_signals:6 ())
    (fun sp ->
      let stg = Gen.stg_of_sp sp in
      let sg0 = Gen.sg_exn stg in
      let o = Search.optimize ~size_frontier:3 sg0 in
      (* The generator guarantees speed-independence by construction. *)
      if not (Sg.is_speed_independent sg0) then
        QCheck.Test.fail_report "generated source not speed-independent";
      let fail fmt = Printf.ksprintf QCheck.Test.fail_report fmt in
      let step_name (a, b) =
        Printf.sprintf "FwdRed(%s,%s)" (Stg.label_name stg a)
          (Stg.label_name stg b)
      in
      let rec replay sg = function
        | [] -> sg
        | ((a, b) as ab) :: rest -> (
            match Reduction.fwd_red sg ~a ~b with
            | Error r ->
                fail "accepted %s rejected on replay: %s" (step_name ab)
                  (Format.asprintf "%a" (Reduction.pp_invalid stg) r)
            | Ok sg' ->
                if not (Sg.is_deterministic sg') then
                  fail "%s broke determinism" (step_name ab);
                if not (Sg.is_commutative sg') then
                  fail "%s broke commutativity" (step_name ab);
                if not (Sg.is_output_persistent sg') then
                  fail "%s broke output persistency" (step_name ab);
                if not (check_consistent stg sg') then
                  fail "%s broke code consistency" (step_name ab);
                if Sg.deadlocks sg' <> [] then
                  fail "%s introduced a deadlock" (step_name ab);
                if conc_count sg' > conc_count sg then
                  fail "%s increased concurrency" (step_name ab);
                if Sg.n_states sg' > Sg.n_states sg then
                  fail "%s grew the state space" (step_name ab);
                replay sg' rest)
      in
      let final = replay sg0 o.Search.best.Search.applied in
      (* The replayed SG must be exactly what the search reported. *)
      if
        not
          (String.equal (Sg.signature final)
             (Sg.signature o.Search.best.Search.sg))
      then fail "replayed best differs from reported best";
      let ev = Search.evaluate final in
      if
        ev.Search.cost <> o.Search.best.Search.cost
        || ev.Search.logic_estimate <> o.Search.best.Search.logic_estimate
        || ev.Search.csc_pairs <> o.Search.best.Search.csc_pairs
      then fail "re-evaluated cost disagrees with reported cost";
      if o.Search.best.Search.cost > o.Search.initial.Search.cost then
        fail "unconstrained search returned a worse-than-initial best";
      true)

let suite =
  suite
  @ [
      Alcotest.test_case "max_cycle constraint" `Quick
        test_max_cycle_constraint;
      Alcotest.test_case "dedup key = signature from deterministic roots"
        `Slow test_key_exact;
      Alcotest.test_case "dedup key on a same-label choice" `Quick
        test_key_nondeterministic;
      QCheck_alcotest.to_alcotest prop_invariants;
    ]
