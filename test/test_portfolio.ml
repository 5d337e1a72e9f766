(* Tests for the portfolio search (Search.portfolio) and its substrate:
   the Stream_finished contract, the shared Smemo signature table — and
   the cross-signal netlist sharing that the literal-chaining reorder of
   Netlist.of_covers buys.

   The portfolio contract: every arm's outcome is byte-identical to its
   standalone Search.optimize run with the same parameters — sequential
   or pooled.  These tests hold it to that promise on the named paper
   specs and a swarm of seeded random STGs, pin the deterministic
   on_improvement stream, and check that `astg reduce --portfolio`
   prints the same bytes at any job count. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let pool = Test_parallel.pool
let outcome_repr = Test_parallel.outcome_repr
let named_specs = Test_parallel.named_specs

(* ---- Stream: typed close error ------------------------------------ *)

let test_stream_finished () =
  let p = Lazy.force pool in
  let s = Pool.Stream.start p in
  let r = Atomic.make 0 in
  Pool.Stream.submit s (fun () -> Atomic.set r 1);
  Pool.Stream.wait s (fun () -> Atomic.get r = 1);
  Pool.Stream.finish s;
  check "submit after finish raises Stream_finished" true
    (match Pool.Stream.submit s (fun () -> ()) with
    | () -> false
    | exception Pool.Stream_finished -> true)

(* ---- Core.Cli.reduce_text: --jobs never changes the bytes ---------- *)

(* The whole `astg reduce --portfolio` output, the cross-arm table line
   included, is the same at --jobs 2 as at --jobs 1: the table's hits
   and misses are counted in the deterministic merge order, not in the
   order the pool's domains happen to publish. *)
let test_reduce_text_jobs () =
  let micropipeline =
    Stg.Io.parse_file
      (Filename.concat (Test_delta.examples_dir ()) "micropipeline.g")
  in
  List.iter
    (fun (name, stg) ->
      List.iter
        (fun portfolio ->
          let text jobs =
            match
              Core.Cli.reduce_text
                { Core.Cli.default_reduce with portfolio; jobs }
                stg
            with
            | Ok s -> s
            | Error msg -> Alcotest.failf "%s: %s" name msg
          in
          Alcotest.(check string)
            (Printf.sprintf "%s --portfolio %s: jobs 2 = jobs 1" name
               (String.concat "," (List.map string_of_float portfolio)))
            (text 1) (text 2))
        [ [ 0.3; 0.8 ]; [ 0.2; 0.5; 0.8 ] ])
    [
      ("MMU", Expansion.four_phase Specs.mmu);
      ("PAR", Expansion.four_phase Specs.par);
      ("micropipeline", micropipeline);
      ("LR", Expansion.four_phase Specs.lr);
    ]

(* ---- Smemo: first-writer-wins shared table ------------------------- *)

let test_smemo () =
  let t = Pool.Smemo.create () in
  check "fresh publish inserts" true (Pool.Smemo.publish t "k" 1);
  check "second publish loses" false (Pool.Smemo.publish t "k" 2);
  Alcotest.(check (option int))
    "first writer wins" (Some 1) (Pool.Smemo.find t "k");
  Alcotest.(check (option int)) "absent key" None (Pool.Smemo.find t "nope");
  ignore (Pool.Smemo.publish t "k2" 3 : bool);
  check_int "length counts entries" 2 (Pool.Smemo.length t);
  (* Degenerate stripe count still behaves. *)
  let t1 = Pool.Smemo.create ~stripes:1 () in
  for i = 0 to 99 do
    ignore (Pool.Smemo.publish t1 (string_of_int i) i : bool)
  done;
  check_int "single stripe holds all keys" 100 (Pool.Smemo.length t1)

(* ---- portfolio vs standalone --------------------------------------- *)

let arms3 =
  [
    { Search.arm_w = 0.8; arm_area = `Tree };
    { Search.arm_w = 0.5; arm_area = `Tree };
    { Search.arm_w = 0.8; arm_area = `Shared };
  ]

let standalone_reprs ~size_frontier arms stg sg =
  List.map
    (fun a ->
      outcome_repr stg
        (Search.optimize ~w:a.Search.arm_w ~area_mode:a.Search.arm_area
           ~size_frontier sg))
    arms

let check_arms name refs stg (po : Search.portfolio_outcome) =
  List.iteri
    (fun i r ->
      Alcotest.(check string)
        (Printf.sprintf "%s arm %d" name i)
        r
        (outcome_repr stg po.Search.arms.(i).Search.outcome))
    refs

(* Every arm byte-identical to its standalone run: named paper specs,
   sequential and pooled. *)
let test_portfolio_named () =
  let p = Lazy.force pool in
  List.iter
    (fun (name, stg) ->
      let sg = Gen.sg_exn stg in
      let refs = standalone_reprs ~size_frontier:4 arms3 stg sg in
      check_arms (name ^ " seq") refs stg
        (Search.portfolio ~size_frontier:4 ~arms:arms3 sg);
      check_arms (name ^ " pooled") refs stg
        (Search.portfolio ~pool:p ~size_frontier:4 ~arms:arms3 sg))
    (named_specs ())

(* 100 seeded random STGs, two tree arms. *)
let test_portfolio_random () =
  let p = Lazy.force pool in
  let arms =
    [ { Search.arm_w = 0.8; arm_area = `Tree };
      { Search.arm_w = 0.5; arm_area = `Tree } ]
  in
  for seed = 0 to 99 do
    let stg = Gen.random_stg ~max_signals:6 seed in
    let sg = Gen.sg_exn stg in
    let refs = standalone_reprs ~size_frontier:3 arms stg sg in
    let name = Printf.sprintf "seed %d" seed in
    check_arms (name ^ " seq") refs stg
      (Search.portfolio ~size_frontier:3 ~arms sg);
    check_arms (name ^ " pooled") refs stg
      (Search.portfolio ~pool:p ~size_frontier:3 ~arms sg)
  done

(* Winner selection and the cross-arm table actually sharing work. *)
let test_winner_and_stats () =
  let stg = Expansion.four_phase Specs.mmu in
  let sg = Gen.sg_exn stg in
  let po = Search.portfolio ~size_frontier:4 ~arms:arms3 sg in
  let won = po.Search.arms.(po.Search.winner) in
  check "winner is feasible" true won.Search.outcome.Search.feasible;
  Array.iter
    (fun a ->
      if a.Search.outcome.Search.feasible then
        check "winner has the least yardstick" true
          (won.Search.yardstick <= a.Search.yardstick))
    po.Search.arms;
  let st = po.Search.stats in
  check "cross-arm table shares evaluations" true (st.Search.table_hits > 0);
  check "table sees misses too" true (st.Search.table_misses > 0);
  let pooled =
    Search.portfolio ~pool:(Lazy.force pool) ~size_frontier:4 ~arms:arms3 sg
  in
  check "pooled table stats = sequential table stats" true
    (pooled.Search.stats = st)

(* The anytime stream: deterministic across runs and backends, strictly
   improving per arm, first event per arm is its initial configuration. *)
let test_on_improvement () =
  let p = Lazy.force pool in
  let stg = Expansion.four_phase Specs.mmu in
  let sg = Gen.sg_exn stg in
  let trace ?pool () =
    let buf = Buffer.create 256 in
    let last = Hashtbl.create 4 in
    ignore
      (Search.portfolio ?pool ~size_frontier:4
         ~on_improvement:(fun ~arm cfg ->
           (match Hashtbl.find_opt last arm with
           | Some prev ->
               check "per-arm improvements strictly decrease" true
                 (cfg.Search.cost < prev)
           | None -> ());
           Hashtbl.replace last arm cfg.Search.cost;
           Buffer.add_string buf
             (Printf.sprintf "%d %.9f %d\n" arm cfg.Search.cost
                (List.length cfg.Search.applied)))
         ~arms:arms3 sg
        : Search.portfolio_outcome);
    Buffer.contents buf
  in
  let seq = trace () in
  Alcotest.(check string) "pooled stream = sequential stream" seq
    (trace ~pool:p ());
  Alcotest.(check string) "repeat run = first run" seq (trace ~pool:p ())

(* ---- Core / CLI plumbing ------------------------------------------- *)

let test_core_portfolio () =
  let stg = Expansion.four_phase Specs.lr in
  let sg = Gen.sg_exn stg in
  let render (r : Core.report) =
    Format.asprintf "%a@.%s" Core.pp_report r r.Core.equations
  in
  let report, po =
    Core.optimize_portfolio ~arms:arms3 ~name:"LR" sg
  in
  (* The portfolio report implements the winning arm's best — identical
     to a standalone Core.optimize run at the winning arm's parameters. *)
  let won = po.Search.arms.(po.Search.winner).Search.arm in
  let solo =
    Core.optimize ~w:won.Search.arm_w ~area_mode:won.Search.arm_area
      ~size_frontier:4 ~name:"LR" sg
  in
  Alcotest.(check string) "report = winning arm standalone" (render solo)
    (render report);
  (* optimize_all ~arms routes through the portfolio. *)
  match Core.optimize_all ~arms:arms3 [ ("LR", sg) ] with
  | [ batch ] ->
      Alcotest.(check string) "optimize_all ~arms = portfolio" (render report)
        (render batch)
  | _ -> Alcotest.fail "optimize_all returned the wrong shape"

(* ---- netlist literal-chaining reorder ------------------------------ *)

let cover s = List.map Boolf.Cube.of_string s

let test_cross_signal_sharing () =
  (* sig3 = a b, sig4 = a b c: canonical ascending-uid chaining makes the
     second cube extend the first's chain, so the a&b node is shared
     across signals.  2 live gates, not 3. *)
  let nl =
    Netlist.of_covers ~nsig:3
      [ (1, cover [ "11-" ]); (2, cover [ "111" ]) ]
  in
  check_int "positive chains share across signals" 2 (Netlist.gate_count nl);
  check_int "shared area prices the common cone once" 32 (Netlist.area nl);
  (* Trailing negations share too: a b' and a b' c' reuse the a&b' node. *)
  let nl2 =
    Netlist.of_covers ~nsig:3
      [ (1, cover [ "10-" ]); (2, cover [ "100" ]) ]
  in
  (* 2 inverters + and(a,b') + and(ab',c') = 4 live gates. *)
  check_int "negated chains share their positive prefix" 4
    (Netlist.gate_count nl2);
  (* The builder pre-interns the rails: constants and every input are
     present from creation, so first use is a hit, not a miss. *)
  let b = Netlist.Builder.create ~nsig:3 in
  check_int "input rails are pre-interned" (3 + 2)
    (Netlist.Builder.n_nodes b)

let suite =
  [
    Alcotest.test_case "Stream_finished on closed session" `Quick
      test_stream_finished;
    Alcotest.test_case "reduce_text --portfolio: jobs 2 = jobs 1" `Slow
      test_reduce_text_jobs;
    Alcotest.test_case "Smemo first-writer-wins" `Quick test_smemo;
    Alcotest.test_case "portfolio = standalone: named specs" `Slow
      test_portfolio_named;
    Alcotest.test_case "portfolio = standalone: 100 random specs" `Slow
      test_portfolio_random;
    Alcotest.test_case "winner selection and shared-table stats" `Slow
      test_winner_and_stats;
    Alcotest.test_case "anytime improvement stream is deterministic" `Slow
      test_on_improvement;
    Alcotest.test_case "Core portfolio wiring" `Slow test_core_portfolio;
    Alcotest.test_case "cross-signal netlist sharing" `Quick
      test_cross_signal_sharing;
  ]
