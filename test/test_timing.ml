(* Tests for the timed simulation and critical-cycle extraction. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let buffer_stg () =
  Stg.Io.parse
    {|
.inputs in
.outputs out
.graph
in+ out+
out+ in-
in- out-
out- in+
.marking { <out-,in+> }
.end
|}

let test_buffer_period () =
  let stg = buffer_stg () in
  (* Sequential 4-event cycle: 2 inputs * 2 + 2 outputs * 1 = 6. *)
  match Timing.analyze ~delays:(Timing.table_delays stg) stg with
  | Ok r ->
      check_int "period" 6 r.Timing.period;
      check_int "two input events on cycle" 2 r.Timing.input_events_on_cycle;
      check_int "four firings per period" 4 r.Timing.firings_per_period;
      check_int "cycle has 4 events" 4 (List.length r.Timing.cycle_events)
  | Error msg -> Alcotest.fail msg

let test_custom_delays () =
  let stg = buffer_stg () in
  match Timing.analyze ~delays:(fun _ -> 5) stg with
  | Ok r -> check_int "uniform delays" 20 r.Timing.period
  | Error msg -> Alcotest.fail msg

let test_zero_delay_outputs () =
  let stg = buffer_stg () in
  let delays t = if Stg.is_input_trans stg t then 2 else 0 in
  match Timing.analyze ~delays stg with
  | Ok r -> check_int "only inputs cost" 4 r.Timing.period
  | Error msg -> Alcotest.fail msg

let test_parallel_cycle () =
  (* Fork-join: the period is the slowest branch, not the sum. *)
  let stg = Gen.fork_join 3 in
  let delays t = if Stg.is_input_trans stg t then 2 else 1 in
  match Timing.analyze ~delays stg with
  | Ok r ->
      (* cycle: t+(2) -> wi+(1) -> wi-(1) -> j+(1) -> t-(2) -> j-(1): 8. *)
      check_int "period" 8 r.Timing.period;
      check_int "inputs on cycle" 2 r.Timing.input_events_on_cycle
  | Error msg -> Alcotest.fail msg

let test_deadlock_error () =
  let b = Petri.Builder.create () in
  let t = Petri.Builder.add_trans b ~name:"a+" in
  let p = Petri.Builder.add_place b ~name:"p" ~tokens:1 in
  let q = Petri.Builder.add_place b ~name:"q" ~tokens:0 in
  Petri.Builder.arc_pt b p t;
  Petri.Builder.arc_tp b t q;
  let stg = Stg.of_net ~inputs:[] ~outputs:[ "a" ] (Petri.Builder.build b) in
  match Timing.analyze ~delays:(fun _ -> 1) stg with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected deadlock error"

let test_lr_table_delays () =
  (* The LR max-concurrency expansion under the Table 1 model. *)
  let stg = Expansion.four_phase Specs.lr in
  match Timing.analyze ~delays:(Timing.table_delays stg) stg with
  | Ok r ->
      check_int "period" 9 r.Timing.period;
      check_int "inputs on critical cycle" 3 r.Timing.input_events_on_cycle
  | Error msg -> Alcotest.fail msg

let test_choice_simulation () =
  (* Deterministic earliest-first policy resolves free choice: the
     simulation still finds a period. *)
  let stg =
    Stg.Io.parse
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
  match Timing.analyze ~delays:(fun _ -> 1) stg with
  | Ok r -> check "positive period" true (r.Timing.period > 0)
  | Error msg -> Alcotest.fail msg

let prop_ring_period_sum =
  QCheck.Test.make
    ~name:"sequential ring: period = sum of all delays" ~count:30
    QCheck.(pair (int_range 1 5) (int_range 1 2))
    (fun (n, inputs) ->
      QCheck.assume (inputs <= n);
      let stg = Gen.ring ~inputs n in
      let delays = Timing.table_delays stg in
      match Timing.analyze ~delays stg with
      | Ok r ->
          let expected =
            List.init (Petri.n_trans stg.Stg.net) delays
            |> List.fold_left ( + ) 0
          in
          r.Timing.period = expected
          && r.Timing.input_events_on_cycle = 2 * inputs
      | Error _ -> false)

let prop_scaling =
  QCheck.Test.make ~name:"doubling all delays doubles the period" ~count:20
    QCheck.(int_range 1 4)
    (fun width ->
      let stg = Gen.fork_join width in
      let d1 t = if Stg.is_input_trans stg t then 2 else 1 in
      let d2 t = 2 * d1 t in
      match
        ( Timing.analyze ~delays:d1 stg,
          Timing.analyze ~delays:d2 stg )
      with
      | Ok r1, Ok r2 -> r2.Timing.period = 2 * r1.Timing.period
      | _, _ -> false)

(* ---- exact MCR cross-checks ---- *)

let test_mcr_buffer () =
  let stg = buffer_stg () in
  match Timing.mcr ~delays:(Timing.table_delays stg) stg with
  | Ok (p, q) ->
      check_int "numerator" 6 p;
      check_int "denominator" 1 q
  | Error msg -> Alcotest.fail msg

let test_mcr_lr () =
  let stg = Expansion.four_phase Specs.lr in
  match Timing.mcr ~delays:(Timing.table_delays stg) stg with
  | Ok (p, q) -> check "matches simulation (9)" true (p = 9 && q = 1)
  | Error msg -> Alcotest.fail msg

let test_mcr_two_tokens () =
  (* A ring with 2 tokens: pipeline parallelism halves the cycle time.
     4 transitions of delay 1 in a ring with tokens on opposite places:
     cycle ratio = 4/2 = 2. *)
  let b = Petri.Builder.create () in
  let ts =
    List.init 4 (fun i ->
        Petri.Builder.add_trans b ~name:(Printf.sprintf "s%d~" i))
  in
  let arr = Array.of_list ts in
  for k = 0 to 3 do
    let p =
      Petri.Builder.add_place b
        ~name:(Printf.sprintf "p%d" k)
        ~tokens:(if k mod 2 = 0 then 1 else 0)
    in
    Petri.Builder.arc_tp b arr.(k) p;
    Petri.Builder.arc_pt b p arr.((k + 1) mod 4)
  done;
  let stg =
    Stg.of_net ~inputs:[]
      ~outputs:[ "s0"; "s1"; "s2"; "s3" ]
      (Petri.Builder.build b)
  in
  match Timing.mcr ~delays:(fun _ -> 1) stg with
  | Ok (p, q) -> check "ratio 2/1" true (p = 2 && q = 1)
  | Error msg -> Alcotest.fail msg

let test_mcr_not_marked_graph () =
  let stg =
    Stg.Io.parse
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
  match Timing.mcr ~delays:(fun _ -> 1) stg with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "choice nets are not marked graphs"

let prop_mcr_equals_simulation =
  QCheck.Test.make
    ~name:"exact MCR equals simulated period on marked graphs" ~count:25
    QCheck.(pair (int_range 1 5) (int_range 0 2))
    (fun (width, extra) ->
      let stg = Gen.fork_join width in
      let delays t = if Stg.is_input_trans stg t then 2 + extra else 1 in
      match
        (Timing.mcr ~delays stg, Timing.analyze ~delays stg)
      with
      | Ok (p, q), Ok r -> p = r.Timing.period * q
      | _, _ -> false)

let suite =
  [
    Alcotest.test_case "buffer period" `Quick test_buffer_period;
    Alcotest.test_case "custom delays" `Quick test_custom_delays;
    Alcotest.test_case "zero-delay outputs" `Quick test_zero_delay_outputs;
    Alcotest.test_case "parallel cycle" `Quick test_parallel_cycle;
    Alcotest.test_case "deadlock error" `Quick test_deadlock_error;
    Alcotest.test_case "LR table delays" `Quick test_lr_table_delays;
    Alcotest.test_case "choice simulation" `Quick test_choice_simulation;
    QCheck_alcotest.to_alcotest prop_ring_period_sum;
    QCheck_alcotest.to_alcotest prop_scaling;
    Alcotest.test_case "mcr buffer" `Quick test_mcr_buffer;
    Alcotest.test_case "mcr LR" `Quick test_mcr_lr;
    Alcotest.test_case "mcr pipelined ring" `Quick test_mcr_two_tokens;
    Alcotest.test_case "mcr rejects non-MG" `Quick test_mcr_not_marked_graph;
    QCheck_alcotest.to_alcotest prop_mcr_equals_simulation;
  ]


(* ---- timed replay on state graphs ---- *)

let test_analyze_sg_buffer () =
  let stg = buffer_stg () in
  let sg = Gen.sg_exn stg in
  match Timing.analyze_sg ~delays:(Timing.table_label_delays stg) sg with
  | Ok r ->
      check_int "period matches STG simulation" 6 r.Timing.period;
      check_int "inputs on cycle" 2 r.Timing.input_events_on_cycle
  | Error msg -> Alcotest.fail msg

let test_analyze_sg_lr () =
  let stg = Expansion.four_phase Specs.lr in
  let sg = Gen.sg_exn stg in
  match Timing.analyze_sg ~delays:(Timing.table_label_delays stg) sg with
  | Ok r ->
      check_int "period 9 like the STG simulation" 9 r.Timing.period;
      check_int "3 inputs on critical cycle" 3 r.Timing.input_events_on_cycle
  | Error msg -> Alcotest.fail msg

let test_analyze_sg_after_reduction () =
  (* The point of the SG replay: evaluate reduced SGs without realizing an
     STG first.  Full-reduction LR must time like the realized version
     (cycle 8 under wire-aware delays is flow-level; with uniform label
     delays both give 4*2 + 4*1 = 12). *)
  let stg = Expansion.four_phase Specs.lr in
  let sg = Gen.sg_exn stg in
  let reduced, applied =
    Search.apply_script sg (Specs.lr_full_reduction_script stg)
  in
  let direct =
    match Timing.analyze_sg ~delays:(Timing.table_label_delays stg) reduced with
    | Ok r -> r.Timing.period
    | Error msg -> Alcotest.fail msg
  in
  match Reduction.realize ~applied reduced with
  | Error msg -> Alcotest.fail msg
  | Ok stg' -> (
      match Timing.analyze ~delays:(Timing.table_delays stg') stg' with
      | Ok r ->
          check_int "SG replay = realized STG simulation" r.Timing.period
            direct
      | Error msg -> Alcotest.fail msg)

let prop_sg_replay_matches_stg =
  QCheck.Test.make
    ~name:"SG replay period = STG simulation period on fork-joins" ~count:10
    QCheck.(int_range 1 4)
    (fun width ->
      let stg = Gen.fork_join width in
      let sg = Gen.sg_exn stg in
      match
        ( Timing.analyze ~delays:(Timing.table_delays stg) stg,
          Timing.analyze_sg ~delays:(Timing.table_label_delays stg) sg )
      with
      | Ok a, Ok b -> a.Timing.period = b.Timing.period
      | _, _ -> false)

let suite =
  suite
  @ [
      Alcotest.test_case "SG replay buffer" `Quick test_analyze_sg_buffer;
      Alcotest.test_case "SG replay LR" `Quick test_analyze_sg_lr;
      Alcotest.test_case "SG replay after reduction" `Quick
        test_analyze_sg_after_reduction;
      QCheck_alcotest.to_alcotest prop_sg_replay_matches_stg;
    ]
