(* Tests for next-state function derivation and the area model. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A buffer: in+ -> out+ -> in- -> out- (fully sequential): out = in. *)
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

let test_buffer_is_wire () =
  let sg = Gen.sg_exn (buffer_stg ()) in
  let impl = Logic.synthesize sg in
  check_int "one implemented signal" 1 (List.length impl.Logic.per_signal);
  let si = List.hd impl.Logic.per_signal in
  check "wire" true si.Logic.is_wire;
  check "no conflicts" true (si.Logic.conflict_codes = 0);
  check_int "area zero" 0 (Logic.area impl);
  Alcotest.(check string) "equation" "out = in" (Logic.render impl);
  Alcotest.(check (list int)) "zero delay" [ 1 ]
    (Logic.zero_delay_signals impl)

let test_inverter () =
  (* out+ when in goes low: out = in'. *)
  let stg =
    Stg.Io.parse
      {|
.inputs in
.outputs out
.graph
in- out+
out+ in+
in+ out-
out- in-
.marking { <out-,in-> }
.end
|}
  in
  let sg = Gen.sg_exn stg in
  let impl = Logic.synthesize sg in
  check_int "inverter area" Logic.gate_cost_inverter (Logic.area impl);
  let si = List.hd impl.Logic.per_signal in
  check "not a wire" false si.Logic.is_wire

let test_fig1_conflicts () =
  let sg = Gen.sg_exn (Specs.fig1 ()) in
  let impl = Logic.synthesize sg in
  check "conflicts found" true (Logic.conflicts impl > 0);
  check "area undefined" true (Logic.area_opt impl = None);
  Alcotest.check_raises "area raises"
    (Invalid_argument "Logic.area: 1 CSC-conflicting codes remain") (fun () ->
      ignore (Logic.area impl))

let test_estimate_drops_after_reduction () =
  (* Reducing concurrency cannot increase the number of reachable codes;
     here it resolves the conflict and the penalty disappears.  Measured
     with [~ghosts:false] (the reachable-code semantics synthesis sees):
     the cost-side default deliberately keeps pruned codes as frozen
     ghosts so the don't-care universe never shrinks along a reduction
     lineage — under that measure this inequality need not hold. *)
  let stg = Specs.fig1 () in
  let sg = Gen.sg_exn stg in
  let before = Logic.estimate sg in
  match
    Reduction.fwd_red sg ~a:(Core.lab stg "Ack-") ~b:(Core.lab stg "Req+")
  with
  | Ok reduced ->
      check "estimate not larger" true
        (Logic.estimate ~ghosts:false reduced <= before)
  | Error _ -> Alcotest.fail "reduction should apply"

let test_cover_area_model () =
  let cube = Boolf.Cube.of_string in
  check_int "constant zero" 0 (Logic.cover_area []);
  check_int "constant one" 0 (Logic.cover_area [ Boolf.Cube.top ]);
  check_int "positive literal = wire" 0 (Logic.cover_area [ cube "1--" ]);
  check_int "negative literal = inverter" Logic.gate_cost_inverter
    (Logic.cover_area [ cube "0--" ]);
  (* Two 2-literal cubes, one OR, one negated variable:
     3 gates * 16 + 1 inverter * 8. *)
  check_int "sop cost"
    ((3 * Logic.gate_cost_2input) + Logic.gate_cost_inverter)
    (Logic.cover_area [ cube "11-"; cube "-01" ])

let test_lr_full_reduction_wires () =
  let stg = Expansion.four_phase Specs.lr in
  let sg = Gen.sg_exn stg in
  let reduced, applied =
    Search.apply_script sg (Specs.lr_full_reduction_script stg)
  in
  check_int "both reductions applied" 2 (List.length applied);
  match Reduction.realize ~applied reduced with
  | Ok stg' ->
      let impl = Logic.synthesize (Gen.sg_exn stg') in
      check_int "two wires: zero area" 0 (Logic.area impl);
      check_int "both signals zero delay" 2
        (List.length (Logic.zero_delay_signals impl))
  | Error msg -> Alcotest.fail msg

let prop_ring_outputs_cheap =
  QCheck.Test.make
    ~name:"sequential rings synthesize without conflicts" ~count:20
    QCheck.(pair (int_range 2 6) (int_range 1 2))
    (fun (n, inputs) ->
      QCheck.assume (inputs <= n);
      let sg = Gen.sg_exn (Gen.ring ~inputs n) in
      let impl = Logic.synthesize sg in
      Logic.conflicts impl = 0 && Logic.area_opt impl <> None)

let suite =
  [
    Alcotest.test_case "buffer is a wire" `Quick test_buffer_is_wire;
    Alcotest.test_case "inverter" `Quick test_inverter;
    Alcotest.test_case "fig1 conflicts" `Quick test_fig1_conflicts;
    Alcotest.test_case "estimate after reduction" `Quick
      test_estimate_drops_after_reduction;
    Alcotest.test_case "cover area model" `Quick test_cover_area_model;
    Alcotest.test_case "LR full reduction = wires" `Quick
      test_lr_full_reduction_wires;
    QCheck_alcotest.to_alcotest prop_ring_outputs_cheap;
  ]

(* ---- generalized C-element style ---- *)

let test_gc_buffer () =
  let sg = Gen.sg_exn (buffer_stg ()) in
  let impl = Logic.synthesize ~style:`Generalized_c sg in
  let si = List.hd impl.Logic.per_signal in
  (match si.Logic.driver with
  | Logic.Gc { set; reset } ->
      let names = [| "in"; "out" |] in
      Alcotest.(check string) "set network" "in"
        (Boolf.Cover.render ~names set);
      Alcotest.(check string) "reset network" "in'"
        (Boolf.Cover.render ~names reset)
  | Logic.Sop _ -> Alcotest.fail "expected a C-element driver");
  (* area: set is a wire (0), reset an inverter (8), plus the C-element. *)
  check_int "gc area"
    (Logic.gate_cost_inverter + Logic.gate_cost_celement)
    (Logic.area impl);
  Alcotest.(check string) "rendering" "out = C(in / in')" (Logic.render impl)

let test_gc_circuit_conforms () =
  let sg = Gen.sg_exn (buffer_stg ()) in
  let impl = Logic.synthesize ~style:`Generalized_c sg in
  let c = Circuit.of_impl impl in
  check "conforms" true (Circuit.conforms c = Ok ());
  check_int "area matches" (Logic.area impl) (Circuit.area c);
  let v = Circuit.to_verilog c in
  let contains needle =
    let nh = String.length v and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub v i nn = needle || go (i + 1)) in
    go 0
  in
  (* set is the wire [in]; reset is the inverter net feeding the
     feedback term *)
  check "c-element feedback" true
    (contains "assign out = in | (out & ~")

let test_gc_lr () =
  let stg = Expansion.four_phase Specs.lr in
  let sg = Gen.sg_exn stg in
  match Csc.resolve sg with
  | Error m -> Alcotest.fail m
  | Ok r ->
      let impl = Logic.synthesize ~style:`Generalized_c r.Csc.sg in
      check "no conflicts" true (Logic.conflicts impl = 0);
      let c = Circuit.of_impl impl in
      check "gc LR conforms" true (Circuit.conforms c = Ok ());
      check "gc area positive" true (Circuit.area c > 0)

let prop_gc_conforms =
  QCheck.Test.make ~name:"gC circuits conform on rings" ~count:15
    QCheck.(pair (int_range 1 5) (int_range 0 2))
    (fun (n, inputs) ->
      QCheck.assume (inputs <= n);
      let sg = Gen.sg_exn (Gen.ring ~inputs n) in
      let impl = Logic.synthesize ~style:`Generalized_c sg in
      let c = Circuit.of_impl impl in
      Circuit.conforms c = Ok () && Circuit.area c <= Logic.area impl)

let suite =
  suite
  @ [
      Alcotest.test_case "gC buffer" `Quick test_gc_buffer;
      Alcotest.test_case "gC circuit conforms" `Quick test_gc_circuit_conforms;
      Alcotest.test_case "gC LR" `Quick test_gc_lr;
      QCheck_alcotest.to_alcotest prop_gc_conforms;
    ]

(* ---- bounded evaluation ---- *)

(* [evaluate_bounded ~bound sg] is [Some t] exactly when [t], the total of
   [evaluate sg], is below [bound]: checked at the extremes, around the
   total and at [extra]. *)
let bounded_agrees ?(extra = 0) sg =
  let t = Logic.total (Logic.evaluate sg) in
  List.for_all
    (fun bound ->
      Logic.evaluate_bounded ~bound sg = if t < bound then Some t else None)
    [ min_int; 0; 1; t - 1; t; t + 1; max_int; extra ]

(* Every first-level CSC child of PAR, as [Csc.resolve] scores them. *)
let test_bounded_par_children () =
  let stg = Expansion.four_phase Specs.par in
  let sg = Gen.sg_exn stg in
  let children = ref 0 in
  Test_csc.iter_children stg (fun set reset ->
      match Csc.product sg ~set ~reset ~name:"z" with
      | Some (Ok sg') ->
          incr children;
          if not (bounded_agrees sg') then
            Alcotest.failf "PAR child %d: bounded total differs" !children
      | Some (Error _) | None -> ());
  check "some children" true (!children > 0)

(* Random specifications, and one pruning reduction of each, whose ghost
   codes the cost-side extraction keeps. *)
let prop_bounded_random =
  QCheck.Test.make ~name:"evaluate_bounded = evaluate below the bound"
    ~count:30
    QCheck.(pair (int_range 0 10_000) (int_range 0 200))
    (fun (seed, extra) ->
      let sg = Gen.sg_exn (Expansion.four_phase (Gen.random_spec seed)) in
      bounded_agrees ~extra sg
      &&
      match Sg.concurrent_pairs sg with
      | (a, b) :: _ -> (
          match Reduction.fwd_red sg ~a ~b with
          | Ok reduced -> bounded_agrees ~extra reduced
          | Error _ -> true)
      | [] -> true)

let suite =
  suite
  @ [
      Alcotest.test_case "evaluate_bounded on PAR's CSC children" `Quick
        test_bounded_par_children;
      QCheck_alcotest.to_alcotest prop_bounded_random;
    ]
