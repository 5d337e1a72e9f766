(* Tests for the hash-consed netlist IR: constructor normalization and
   sharing invariants, simulation against direct cover evaluation, the
   shared-vs-tree area bound on the paper examples, and the emitters
   (micro-interpreters for the emitted Verilog and BLIF must agree with
   the IR simulator on every reachable state). *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cover s = List.map Boolf.Cube.of_string s

(* ---- constructor invariants --------------------------------------- *)

let test_hash_consing () =
  let b = Netlist.Builder.create ~nsig:4 in
  let x = Netlist.Builder.input b 0 and y = Netlist.Builder.input b 1 in
  check_int "same input, same uid" x (Netlist.Builder.input b 0);
  check_int "and2 is commutative" (Netlist.Builder.and2 b x y)
    (Netlist.Builder.and2 b y x);
  check_int "or2 is commutative" (Netlist.Builder.or2 b x y)
    (Netlist.Builder.or2 b y x);
  check_int "double inverter folds" x
    (Netlist.Builder.inv b (Netlist.Builder.inv b x));
  check_int "x & x = x" x (Netlist.Builder.and2 b x x);
  check_int "x | x = x" x (Netlist.Builder.or2 b x x);
  let t = Netlist.Builder.const b true
  and f = Netlist.Builder.const b false in
  check_int "x & ~x = 0" f (Netlist.Builder.and2 b x (Netlist.Builder.inv b x));
  check_int "x | ~x = 1" t (Netlist.Builder.or2 b x (Netlist.Builder.inv b x));
  check_int "x & 1 = x" x (Netlist.Builder.and2 b x t);
  check_int "x & 0 = 0" f (Netlist.Builder.and2 b x f);
  check_int "x | 0 = x" x (Netlist.Builder.or2 b x f);
  check_int "x | 1 = 1" t (Netlist.Builder.or2 b x t);
  check_int "~1 = 0" f (Netlist.Builder.inv b t);
  (* C-element folds. *)
  check_int "celem set=1 is const 1" t
    (Netlist.Builder.celem b ~set:t ~reset:x ~sig_:2);
  check_int "celem reset=1 is set" x
    (Netlist.Builder.celem b ~set:x ~reset:t ~sig_:2);
  check_int "celem 0/0 holds state"
    (Netlist.Builder.input b 2)
    (Netlist.Builder.celem b ~set:f ~reset:f ~sig_:2);
  (* State-holding nodes never merge across signals, even with equal
     set/reset networks. *)
  check "celem keyed by its signal" true
    (Netlist.Builder.celem b ~set:x ~reset:y ~sig_:2
    <> Netlist.Builder.celem b ~set:x ~reset:y ~sig_:3);
  check "same celem, same uid" true
    (Netlist.Builder.celem b ~set:x ~reset:y ~sig_:2
    = Netlist.Builder.celem b ~set:x ~reset:y ~sig_:2)

let test_children_smaller () =
  (* Children strictly smaller than parents: ascending uid is
     topological order. *)
  let nl =
    Netlist.of_covers ~nsig:3
      [ (1, cover [ "1-0"; "01-" ]); (2, cover [ "1-0"; "-11" ]) ]
  in
  Netlist.iter nl (fun u nd ->
      let child a = check ("child of " ^ string_of_int u) true (a < u) in
      match nd with
      | Netlist.Input _ | Netlist.Const _ -> ()
      | Netlist.Inv a -> child a
      | Netlist.And2 (a, c) | Netlist.Or2 (a, c) ->
          child a;
          child c
      | Netlist.Celem { set; reset; _ } ->
          child set;
          child reset)

let test_cross_signal_sharing () =
  (* Two signals with the same cover share one driver cone; the area is
     that of a single copy. *)
  let c = cover [ "11--"; "--00" ] in
  let one = Netlist.of_covers ~nsig:4 [ (2, c) ] in
  let two = Netlist.of_covers ~nsig:4 [ (2, c); (3, c) ] in
  check "shared driver" true
    (Netlist.driver two 2 = Netlist.driver two 3);
  check_int "one copy paid" (Netlist.area one) (Netlist.area two);
  check "driver fanout counts both outputs" true
    (match Netlist.driver two 2 with
    | Some u -> Netlist.fanout two u = 2
    | None -> false)

(* ---- simulation against direct cover evaluation ------------------- *)

(* Next value of every signal straight from the synthesized covers,
   bypassing the netlist entirely. *)
let direct_next impl rsg s =
  let code = Sg.code_bits rsg s in
  List.map
    (fun si ->
      let ev c = Boolf.Cover.covers c code in
      ( si.Logic.signal,
        match si.Logic.driver with
        | Logic.Sop c -> ev c
        | Logic.Gc { set; reset } ->
            ev set || (Sg.value rsg s si.Logic.signal = 1 && not (ev reset)) ))
    impl.Logic.per_signal
  |> List.sort compare

(* CSC resolution dominates this suite's runtime, and several tests walk
   the same three examples — resolve each spec once. *)
let resolved_impl =
  let tbl = Hashtbl.create 4 in
  fun name spec ->
    match Hashtbl.find_opt tbl name with
    | Some r -> r
    | None ->
        let sg = Gen.sg_exn (Expansion.four_phase spec) in
        let r =
          match Csc.resolve sg with
          | Error m -> Alcotest.fail m
          | Ok r -> (r.Csc.sg, Logic.synthesize r.Csc.sg)
        in
        Hashtbl.replace tbl name r;
        r

let test_sim_matches_covers () =
  let rsg, impl = resolved_impl "lr" Specs.lr in
  let nl = Netlist.of_impl impl in
  let c = Circuit.of_impl impl in
  for s = 0 to Sg.n_states rsg - 1 do
    let expect = direct_next impl rsg s in
    let got =
      Netlist.next_values nl ~current:(fun i -> Sg.value rsg s i = 1)
      |> List.sort compare
    in
    check ("state " ^ string_of_int s) true (got = expect);
    check "Circuit.next_values agrees" true
      (List.sort compare (Circuit.next_values c ~state:s) = expect)
  done

(* ---- shared area <= tree area on the paper examples --------------- *)

let tree_area impl =
  List.fold_left
    (fun acc si -> acc + Logic.driver_area si.Logic.driver)
    0 impl.Logic.per_signal

let test_shared_le_tree_examples () =
  List.iter
    (fun (name, spec) ->
      let _, impl = resolved_impl name spec in
      let shared = Netlist.area (Netlist.of_impl impl) in
      check (name ^ ": shared <= tree") true (shared <= tree_area impl);
      check (name ^ ": sharing strictly helps") true (shared < tree_area impl))
    [ ("lr", Specs.lr); ("par", Specs.par); ("mmu", Specs.mmu) ];
  (* AHB arbiter keeps CSC conflicts: the netlist is still well-defined
     logic, and sharing still never loses to the tree sum. *)
  let stg = Stg.Io.parse_file "../../../examples/data/ahb_arbiter.g" in
  match Sg.of_stg ~warn:(fun _ -> ()) stg with
  | Error e -> Alcotest.fail (Format.asprintf "SG: %a" Sg.pp_error e)
  | Ok sg ->
      let impl = Logic.synthesize sg in
      let shared = Netlist.area (Netlist.of_impl impl) in
      check "ahb_arbiter: shared <= tree" true (shared <= tree_area impl)

(* ---- simplify ----------------------------------------------------- *)

let test_simplify () =
  let covers =
    [ (1, cover [ "1--"; "-1-" ]); (2, cover [ "1--"; "--1" ]) ]
  in
  let nl = Netlist.of_covers ~nsig:3 covers in
  let s1 = Netlist.simplify nl in
  (* Fresh netlists are already in normal form: simplify only compacts.
     The constant and input rails are permanent fixtures of the store
     (pre-interned by the builder), so the compaction floor is the rail
     set plus the live gates. *)
  check_int "area preserved" (Netlist.area nl) (Netlist.area s1);
  check_int "compacts to the rails plus live gates"
    (3 + 2 + Netlist.gate_count nl)
    (Netlist.node_count s1);
  let s2 = Netlist.simplify s1 in
  check_int "idempotent (nodes)" (Netlist.node_count s1)
    (Netlist.node_count s2);
  check_int "idempotent (area)" (Netlist.area s1) (Netlist.area s2);
  (* Semantics preserved on every input assignment. *)
  for code = 0 to 7 do
    let current i = (code lsr i) land 1 = 1 in
    check ("assignment " ^ string_of_int code) true
      (Netlist.next_values nl ~current = Netlist.next_values s1 ~current)
  done

(* ---- emitters: micro-interpreters vs the IR simulator ------------- *)

(* Both emitters promise: a signal-named net is written at most once and
   read only for the signal's current value, so one in-order pass over
   the text reproduces [Netlist.eval].  The interpreters below implement
   exactly that convention: operand lookup resolves signal names in the
   current-state environment and "n<uid>" nets in the computed-net
   environment; assignments to signal names land in a next-state map. *)

type env = {
  cur : (string, bool) Hashtbl.t;  (** signal name -> current value *)
  net : (string, bool) Hashtbl.t;  (** fresh net -> computed value *)
  next : (string, bool) Hashtbl.t;  (** signal name -> next value *)
}

let env_make names sg s =
  let cur = Hashtbl.create 16 in
  Array.iteri (fun i n -> Hashtbl.replace cur n (Sg.value sg s i = 1)) names;
  { cur; net = Hashtbl.create 16; next = Hashtbl.create 16 }

let lookup e name =
  match Hashtbl.find_opt e.cur name with
  | Some v -> v
  | None -> (
      match Hashtbl.find_opt e.net name with
      | Some v -> v
      | None -> Alcotest.fail ("net read before write: " ^ name))

let store e name v =
  if Hashtbl.mem e.cur name then Hashtbl.replace e.next name v
  else Hashtbl.replace e.net name v

let next_of e names outputs =
  List.map
    (fun (s, _) ->
      match Hashtbl.find_opt e.next names.(s) with
      | Some v -> (s, v)
      | None -> Alcotest.fail ("signal never assigned: " ^ names.(s)))
    outputs

let split_on_substring ~sep s =
  let n = String.length s and k = String.length sep in
  let rec find i =
    if i + k > n then None
    else if String.sub s i k = sep then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i -> Some (String.sub s 0 i, String.sub s (i + k) (n - i - k))

(* One pass over the emitted Verilog.  Recognizes exactly the forms the
   emitter produces: constants, ~a, a & b, a | b, the C-element feedback
   equation [set | (sig & ~reset)], and plain aliases. *)
let run_verilog text names sg s outputs =
  let e = env_make names sg s in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         let line = String.trim line in
         match split_on_substring ~sep:" = " line with
         | Some (lhs, rhs)
           when String.length lhs > 7 && String.sub lhs 0 7 = "assign " ->
             let lhs = String.sub lhs 7 (String.length lhs - 7) in
             let rhs = String.sub rhs 0 (String.length rhs - 1) (* ';' *) in
             let v =
               if rhs = "1'b0" then false
               else if rhs = "1'b1" then true
               else
                 match split_on_substring ~sep:" | (" rhs with
                 | Some (set, rest) ->
                     (* C-element: "set | (sig & ~reset)" *)
                     let inner = String.sub rest 0 (String.length rest - 1) in
                     let sig_, reset =
                       match split_on_substring ~sep:" & ~" inner with
                       | Some p -> p
                       | None -> Alcotest.fail ("bad celem rhs: " ^ rhs)
                     in
                     lookup e set || (lookup e sig_ && not (lookup e reset))
                 | None -> (
                     match split_on_substring ~sep:" & " rhs with
                     | Some (a, b) -> lookup e a && lookup e b
                     | None -> (
                         match split_on_substring ~sep:" | " rhs with
                         | Some (a, b) -> lookup e a || lookup e b
                         | None ->
                             if String.length rhs > 0 && rhs.[0] = '~' then
                               not
                                 (lookup e
                                    (String.sub rhs 1 (String.length rhs - 1)))
                             else lookup e rhs))
             in
             store e lhs v
         | _ -> ());
  next_of e names outputs

(* One pass over the emitted BLIF: evaluate each [.names] truth table in
   order (OR over rows of AND over literal columns). *)
let run_blif text names sg s outputs =
  let e = env_make names sg s in
  let lines = String.split_on_char '\n' text in
  let flush = function
    | None -> ()
    | Some (ins, out, rows) ->
        let v =
          List.exists
            (fun row ->
              match ins with
              | [] -> row = "1"
              | _ ->
                  let pat =
                    match String.index_opt row ' ' with
                    | Some i -> String.sub row 0 i
                    | None -> Alcotest.fail ("bad BLIF row: " ^ row)
                  in
                  List.for_all2
                    (fun name c ->
                      match c with
                      | '1' -> lookup e name
                      | '0' -> not (lookup e name)
                      | _ -> true)
                    ins
                    (List.init (String.length pat) (String.get pat)))
            rows
        in
        store e out v
  in
  let block = ref None in
  List.iter
    (fun line ->
      let line = String.trim line in
      if String.length line > 6 && String.sub line 0 7 = ".names " then begin
        flush !block;
        let parts =
          String.split_on_char ' ' line
          |> List.filter (fun w -> w <> "" && w <> ".names")
        in
        match List.rev parts with
        | out :: rev_ins -> block := Some (List.rev rev_ins, out, [])
        | [] -> Alcotest.fail "empty .names"
      end
      else if String.length line > 0 && line.[0] = '.' then begin
        flush !block;
        block := None
      end
      else if line <> "" then
        match !block with
        | Some (ins, out, rows) -> block := Some (ins, out, rows @ [ line ])
        | None -> ())
    lines;
  flush !block;
  next_of e names outputs

let test_emitters_agree name spec () =
  let rsg, impl = resolved_impl name spec in
  let c = Circuit.of_impl impl in
  let names = c.Circuit.signal_names in
  let outputs = Netlist.outputs (Circuit.netlist c) in
  let v = Circuit.to_verilog ~module_name:name c in
  let bl = Circuit.to_blif ~model_name:name c in
  for s = 0 to Sg.n_states rsg - 1 do
    let expect = List.sort compare (Circuit.next_values c ~state:s) in
    let from_v = List.sort compare (run_verilog v names rsg s outputs) in
    let from_b = List.sort compare (run_blif bl names rsg s outputs) in
    check
      (Printf.sprintf "%s: verilog sim, state %d" name s)
      true (from_v = expect);
    check
      (Printf.sprintf "%s: blif sim, state %d" name s)
      true (from_b = expect)
  done

(* ---- technology mapping over the shared graph --------------------- *)

let test_map_netlist_le_tree () =
  List.iter
    (fun (name, spec) ->
      let _, impl = resolved_impl name spec in
      let dag = Techmap.map_netlist (Netlist.of_impl impl) in
      let tre = Techmap.map_impl_tree impl in
      let best = Techmap.map_impl impl in
      check (name ^ ": map_impl <= tree") true
        (best.Techmap.area <= tre.Techmap.area);
      check (name ^ ": map_impl <= dag") true
        (best.Techmap.area <= dag.Techmap.area))
    [ ("lr", Specs.lr); ("par", Specs.par); ("mmu", Specs.mmu) ]

let prop_map_cover_le_naive =
  let gen =
    QCheck.Gen.(
      int_range 1 5 >>= fun nvars ->
      list_size (int_range 0 5)
        (string_size ~gen:(oneofl [ '0'; '1'; '-' ]) (return nvars))
      >>= fun rows -> return (nvars, rows))
  in
  let arb =
    QCheck.make
      ~print:(fun (n, rows) ->
        Printf.sprintf "nvars=%d [%s]" n (String.concat "; " rows))
      gen
  in
  QCheck.Test.make ~name:"mapped cover area <= naive tree decomposition"
    ~count:300 arb (fun (nvars, rows) ->
      let c = cover rows in
      (Techmap.map_cover ~nvars c).Techmap.area
      <= Logic.driver_area (Logic.Sop c))

(* ---- the [`Shared] search objective ------------------------------- *)

let test_shared_mode_deterministic () =
  let sg = Gen.sg_exn (Expansion.four_phase Specs.lr) in
  let repr (o : Search.outcome) =
    ( o.Search.best.Search.cost,
      o.Search.best.Search.logic_estimate,
      o.Search.best.Search.csc_pairs,
      o.Search.best.Search.applied )
  in
  let run mode =
    repr
      (Search.optimize ~w:0.5 ~size_frontier:3 ~eval_mode:mode
         ~area_mode:`Shared sg)
  in
  let reference = run `Scratch in
  check "delta matches scratch" true (run `Delta = reference);
  (* [`Shared] prices in gate-cost units (unlike [`Tree]'s literal
     counts), and evaluate is deterministic in both memo modes. *)
  let e1 = Search.evaluate ~area_mode:`Shared sg in
  let e2 = Search.evaluate ~memo:true ~area_mode:`Shared sg in
  check "evaluate memo-independent" true
    (e1.Search.logic_estimate = e2.Search.logic_estimate
    && e1.Search.cost = e2.Search.cost)

let suite =
  [
    Alcotest.test_case "hash-consing invariants" `Quick test_hash_consing;
    Alcotest.test_case "children precede parents" `Quick test_children_smaller;
    Alcotest.test_case "cross-signal sharing" `Quick test_cross_signal_sharing;
    Alcotest.test_case "simulator matches covers (LR)" `Quick
      test_sim_matches_covers;
    Alcotest.test_case "shared area <= tree area on examples" `Quick
      test_shared_le_tree_examples;
    Alcotest.test_case "simplify compacts and preserves" `Quick test_simplify;
    Alcotest.test_case "emitters agree with IR (LR)" `Quick
      (test_emitters_agree "lr" Specs.lr);
    Alcotest.test_case "emitters agree with IR (PAR)" `Quick
      (test_emitters_agree "par" Specs.par);
    Alcotest.test_case "DAG mapping never loses to trees" `Quick
      test_map_netlist_le_tree;
    QCheck_alcotest.to_alcotest prop_map_cover_le_naive;
    Alcotest.test_case "`Shared pricing is mode-independent" `Quick
      test_shared_mode_deterministic;
  ]
