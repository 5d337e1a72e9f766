(* Differential tests for the parallel candidate-evaluation engine.

   The pool contract (Search.optimize ?pool) promises byte-identical
   outcomes with and without a pool, on any spec.  These tests hold the
   implementation to that promise on the named paper specs and on a swarm
   of seeded random STGs, and independently re-check every reduction the
   search accepted against the SG invariants — a validator or cache race
   in a worker domain would surface here as a divergence. *)

let jobs =
  match Sys.getenv_opt "ASYNC_REPRO_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j >= 1 -> j
      | _ -> 4)
  | None -> 4

let pool =
  lazy
    (let p = Pool.create ~jobs in
     at_exit (fun () -> Pool.shutdown p);
     p)

(* Full textual rendering of an outcome: any divergence between a parallel
   and a sequential run — cost, script, exploration trace, fan-out, the
   structure of the best SG, or the best configuration's per-signal
   covers — breaks string equality. *)
let outcome_repr stg (o : Search.outcome) =
  let names = Array.map (fun s -> s.Stg.Signal.name) stg.Stg.signals in
  let script cfg =
    cfg.Search.applied
    |> List.map (fun (a, b) ->
           Printf.sprintf "(%s,%s)" (Stg.label_name stg a)
             (Stg.label_name stg b))
    |> String.concat " "
  in
  let cfg c =
    Printf.sprintf "cost=%.9f logic=%d csc=%d states=%d applied=[%s]"
      c.Search.cost c.Search.logic_estimate c.Search.csc_pairs
      (Sg.n_states c.Search.sg) (script c)
  in
  let covers =
    o.Search.best.Search.logic.Logic.e_sigs
    |> List.map (fun (ps : Logic.per_sig) ->
           Printf.sprintf "%s: lits=%d conflicts=%d cover=%s"
             names.(ps.Logic.ps_signal) ps.Logic.ps_literals
             ps.Logic.ps_conflicts
             (Boolf.Cover.render ~names ps.Logic.ps_cover))
    |> String.concat "\n"
  in
  Printf.sprintf
    "feasible=%b explored=%d levels=%d fanout=[%s]\nbest: %s\ninitial: \
     %s\nbest-sig=%s\n%s"
    o.Search.feasible o.Search.explored o.Search.levels
    (String.concat ";" (List.map string_of_int o.Search.fanout))
    (cfg o.Search.best) (cfg o.Search.initial)
    (Sg.signature o.Search.best.Search.sg)
    covers

let named_specs () =
  [
    ("fig1", Specs.fig1 ());
    ("LR", Expansion.four_phase Specs.lr);
    ("PAR", Expansion.four_phase Specs.par);
    ("MMU", Expansion.four_phase Specs.mmu);
  ]

(* Parallel vs sequential Search.optimize on the paper's specs, at the
   bench's search parameters. *)
let test_differential_named () =
  let p = Lazy.force pool in
  List.iter
    (fun (name, stg) ->
      let sg = Gen.sg_exn stg in
      let seq = Search.optimize ~w:0.8 ~size_frontier:4 sg in
      let par = Search.optimize ~pool:p ~w:0.8 ~size_frontier:4 sg in
      Alcotest.(check string)
        (name ^ " outcome") (outcome_repr stg seq) (outcome_repr stg par))
    (named_specs ())

(* Performance-constrained search: the feasible flag and the bound-driven
   candidate filtering must also be identical (perf_delays runs inside
   worker domains). *)
let test_differential_perf () =
  let p = Lazy.force pool in
  let stg = Expansion.four_phase Specs.lr in
  let sg = Gen.sg_exn stg in
  let pd _ = 1 in
  List.iter
    (fun max_cycle ->
      let seq =
        Search.optimize ~w:0.8 ~size_frontier:4 ~perf_delays:pd ~max_cycle sg
      in
      let par =
        Search.optimize ~pool:p ~w:0.8 ~size_frontier:4 ~perf_delays:pd
          ~max_cycle sg
      in
      Alcotest.(check string)
        (Printf.sprintf "LR bound %d" max_cycle)
        (outcome_repr stg seq) (outcome_repr stg par))
    [ 1; 6; 100 ]

(* 100 seeded random series-parallel STGs; byte-identical outcomes. *)
let test_differential_random () =
  let p = Lazy.force pool in
  for seed = 0 to 99 do
    let stg = Gen.random_stg ~max_signals:6 seed in
    let sg = Gen.sg_exn stg in
    let seq = Search.optimize ~size_frontier:3 sg in
    let par = Search.optimize ~pool:p ~size_frontier:3 sg in
    Alcotest.(check string)
      (Printf.sprintf "seed %d" seed)
      (outcome_repr stg seq) (outcome_repr stg par)
  done

(* Full end-to-end reports (pretty-printed row + synthesized equations)
   through Core.optimize must match, pool or not. *)
let test_differential_report () =
  let p = Lazy.force pool in
  List.iter
    (fun (name, stg) ->
      let sg = Gen.sg_exn stg in
      let render (r : Core.report) =
        Format.asprintf "%a@.%s" Core.pp_report r r.Core.equations
      in
      let seq = Core.optimize ~w:0.8 ~size_frontier:4 ~name sg in
      let par = Core.optimize ~pool:p ~w:0.8 ~size_frontier:4 ~name sg in
      Alcotest.(check string) (name ^ " report") (render seq) (render par))
    (named_specs ())

(* ------------------------------------------------------------------ *)
(* Invariant preservation: independently replay every reduction the
   (parallel) search accepted and re-check the SG invariants from scratch
   on each intermediate graph.  A stale or corrupted analysis cache in the
   search (e.g. a race on a shared parent's memo) could let an invalid
   reduction through — the fresh recomputation here would catch it. *)

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
      let p = Lazy.force pool in
      let o = Search.optimize ~pool:p ~size_frontier:3 sg0 in
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
      (* The replayed SG must be exactly what the search reported — a
         mismatch means a worker evaluated against corrupted state. *)
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
  [
    Alcotest.test_case "differential: named specs" `Slow
      test_differential_named;
    Alcotest.test_case "differential: perf-constrained" `Quick
      test_differential_perf;
    Alcotest.test_case "differential: 100 random specs" `Slow
      test_differential_random;
    Alcotest.test_case "differential: Core reports" `Slow
      test_differential_report;
    QCheck_alcotest.to_alcotest prop_invariants;
  ]
