(* Tests for the portfolio search (Search.portfolio), its cross-arm
   evaluation table, the pool's shutdown contract — and the
   cross-signal netlist sharing that the literal-chaining reorder of
   Netlist.of_covers buys.

   The portfolio contract: every arm's outcome is byte-identical to its
   standalone Search.optimize run with the same parameters.  These tests
   hold it to that promise on the named paper specs and a swarm of seeded
   random STGs, pin the deterministic on_improvement stream, and check
   that `astg reduce --portfolio` prints the same bytes at any --jobs. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let outcome_repr = Fuzz.outcome_repr
let named_specs = Test_search.named_specs

(* ---- Pool: shutdown runs every job, then refuses more -------------- *)

let test_pool_shutdown () =
  let p = Pool.create ~jobs:Test_obs.jobs in
  let ran = Atomic.make 0 in
  for i = 1 to 16 do
    Pool.submit p (fun () ->
        Atomic.incr ran;
        if i = 1 then failwith "a job that raises")
  done;
  Pool.shutdown p;
  check_int "shutdown runs every submitted job, past one that raises" 16
    (Atomic.get ran);
  check "submit after shutdown raises" true
    (match Pool.submit p ignore with
    | () -> false
    | exception Invalid_argument _ -> true)

(* ---- Core.Cli.reduce_text: --jobs never changes the bytes ---------- *)

(* --jobs is accepted and ignored: the whole `astg reduce --portfolio`
   output, the cross-arm table line included, is the same at --jobs 2 as
   at --jobs 1. *)
let test_reduce_text_jobs () =
  let micropipeline =
    Stg.Io.parse_file
      (Filename.concat (Test_roundtrip.examples_dir ()) "micropipeline.g")
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

(* ---- the cross-arm table ------------------------------------------ *)

(* Two identical arms walk the same lineage, and the second takes its
   turn at each level after the first: every lookup of the first arm
   misses and every lookup of the second hits.  One lookup per accepted
   candidate, so the totals are each arm's explored count less its
   initial configuration. *)
let test_twin_arm_hits () =
  let sg = Gen.sg_exn (Expansion.four_phase Specs.mmu) in
  let arm = { Search.arm_w = 0.8; arm_area = `Tree } in
  let po = Search.portfolio ~size_frontier:4 ~arms:[ arm; arm ] sg in
  let explored i = po.Search.arms.(i).Search.outcome.Search.explored in
  check "the arms explore" true (explored 0 > 1);
  check_int "the twin explores what the first arm does" (explored 0)
    (explored 1);
  check_int "misses: the first arm's lookups" (explored 0 - 1)
    po.Search.stats.Search.table_misses;
  check_int "hits: the twin's lookups" (explored 1 - 1)
    po.Search.stats.Search.table_hits

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

(* Every arm byte-identical to its standalone run: named paper specs.
   The one-arm set compares the engine with the cross-arm table against
   [Search.optimize], the same engine without it. *)
let test_portfolio_named () =
  List.iter
    (fun (name, stg) ->
      let sg = Gen.sg_exn stg in
      List.iter
        (fun (set, arms) ->
          let name = Printf.sprintf "%s %s" name set in
          let refs = standalone_reprs ~size_frontier:4 arms stg sg in
          check_arms name refs stg
            (Search.portfolio ~size_frontier:4 ~arms sg))
        [ ("3 arms", arms3); ("1 arm", [ List.hd arms3 ]) ])
    (named_specs ())

(* 100 seeded random STGs, two tree arms. *)
let test_portfolio_random () =
  let arms =
    [ { Search.arm_w = 0.8; arm_area = `Tree };
      { Search.arm_w = 0.5; arm_area = `Tree } ]
  in
  for seed = 0 to 99 do
    let stg = Gen.random_stg ~max_signals:6 seed in
    let sg = Gen.sg_exn stg in
    let refs = standalone_reprs ~size_frontier:3 arms stg sg in
    check_arms (Printf.sprintf "seed %d" seed) refs stg
      (Search.portfolio ~size_frontier:3 ~arms sg)
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
  check "table sees misses too" true (st.Search.table_misses > 0)

(* The anytime stream: deterministic across runs, strictly improving per
   arm, first event per arm is its initial configuration. *)
let test_on_improvement () =
  let stg = Expansion.four_phase Specs.mmu in
  let sg = Gen.sg_exn stg in
  let trace () =
    let buf = Buffer.create 256 in
    let last = Hashtbl.create 4 in
    ignore
      (Search.portfolio ~size_frontier:4
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
  let first = trace () in
  Alcotest.(check string) "repeat run = first run" first (trace ())

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

(* ---- a pool past the domain limit ---------------------------------- *)

(* A pool wider than the runtime's limit on live domains (128 on OCaml 5)
   runs with the workers it could spawn.  Portfolio runs submitted as its
   jobs, as [astg serve] submits its computes, print what they print on
   the caller. *)
let test_wide_pool () =
  let specs = named_specs () in
  let text stg =
    Core.Cli.reduce_text
      { Core.Cli.default_reduce with portfolio = [ 0.3; 0.8 ] }
      stg
  in
  let got = Array.make (List.length specs) (Error "not run") in
  let p = Pool.create ~jobs:200 in
  List.iteri
    (fun i (_, stg) -> Pool.submit p (fun () -> got.(i) <- text stg))
    specs;
  Pool.shutdown p;
  List.iteri
    (fun i (name, stg) ->
      match text stg with
      | Error msg -> Alcotest.failf "%s: %s" name msg
      | Ok want ->
          Alcotest.(check (result string string))
            (name ^ " portfolio 0.3,0.8: jobs 200 = jobs 1")
            (Ok want) got.(i))
    specs

let suite =
  [
    Alcotest.test_case "pool shutdown runs every job" `Quick
      test_pool_shutdown;
    Alcotest.test_case "reduce_text --portfolio: jobs 2 = jobs 1" `Slow
      test_reduce_text_jobs;
    Alcotest.test_case "cross-arm table: a twin arm only hits" `Quick
      test_twin_arm_hits;
    Alcotest.test_case "portfolio = standalone: named specs" `Slow
      test_portfolio_named;
    Alcotest.test_case "portfolio = standalone: 100 random specs" `Slow
      test_portfolio_random;
    Alcotest.test_case "winner selection and shared-table stats" `Slow
      test_winner_and_stats;
    Alcotest.test_case "anytime improvement stream is deterministic" `Slow
      test_on_improvement;
    Alcotest.test_case "cross-signal netlist sharing" `Quick
      test_cross_signal_sharing;
    Alcotest.test_case "pool past the domain limit: jobs 200 = jobs 1"
      `Quick test_wide_pool;
  ]
