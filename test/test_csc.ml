(* Tests for CSC conflict resolution by state-signal insertion. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let lr_sg () =
  let stg = Expansion.four_phase Specs.lr in
  (stg, Gen.sg_exn stg)

let test_sites () =
  let stg, _ = lr_sg () in
  let sites = Csc.sites stg in
  check "some sites" true (List.length sites > 0);
  (* No site may directly delay an input transition. *)
  let delays_input = function
    | Csc.After t ->
        Array.exists
          (fun p ->
            Array.exists
              (fun t' -> Stg.is_input_trans stg t')
              stg.Stg.net.Petri.consumers.(p))
          stg.Stg.net.Petri.post.(t)
    | Csc.On_arc p ->
        Stg.is_input_trans stg stg.Stg.net.Petri.consumers.(p).(0)
  in
  check "no site delays an input" true
    (not (List.exists delays_input sites))

let test_insert_after () =
  let stg, _ = lr_sg () in
  (* Pick two legal series sites (lo+ precedes inputs, so use the sites
     enumerator rather than guessing). *)
  let set, reset =
    match
      List.filter (function Csc.After _ -> true | Csc.On_arc _ -> false)
        (Csc.sites stg)
    with
    | s :: r :: _ -> (s, r)
    | [ _ ] | [] -> Alcotest.fail "expected at least two After sites"
  in
  let stg' = Csc.insert_signal stg ~set ~reset ~name:"x" in
  check_int "two more transitions" (Petri.n_trans stg.Stg.net + 2)
    (Petri.n_trans stg'.Stg.net);
  check "x internal" true
    ((Stg.signal stg' (Stg.signal_of_name stg' "x")).Stg.Signal.kind
    = Stg.Signal.Internal);
  match Sg.of_stg stg' with
  | Ok sg -> check "consistent" true (Sg.n_states sg > 0)
  | Error _ -> Alcotest.fail "series insertion must stay consistent"

let test_insert_errors () =
  let stg, _ = lr_sg () in
  let lo_plus = Petri.trans_of_name stg.Stg.net "lo+" in
  check "coinciding sites" true
    (match
       Csc.insert_signal stg ~set:(Csc.After lo_plus)
         ~reset:(Csc.After lo_plus) ~name:"x"
     with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check "existing signal name" true
    (match
       Csc.insert_signal stg ~set:(Csc.After lo_plus)
         ~reset:(Csc.After (Petri.trans_of_name stg.Stg.net "ro+"))
         ~name:"lo"
     with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* ro+ directly precedes the input ri+: inserting after it is illegal. *)
  let ro_plus = Petri.trans_of_name stg.Stg.net "ro+" in
  check "delaying an input rejected" true
    (match
       Csc.insert_signal stg ~set:(Csc.After ro_plus)
         ~reset:(Csc.After lo_plus) ~name:"x"
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_resolve_lr () =
  let _, sg = lr_sg () in
  match Csc.resolve sg with
  | Ok r ->
      check_int "two state signals (Table 1 max concurrency)" 2
        (List.length r.Csc.inserted);
      check "result satisfies CSC" true (Sg.has_csc r.Csc.sg);
      check "result speed-independent" true
        (Sg.is_speed_independent r.Csc.sg);
      (* The I/O interface is unchanged: same input/output signals. *)
      let io stg =
        Array.to_list stg.Stg.signals
        |> List.filter (fun s -> s.Stg.Signal.kind <> Stg.Signal.Internal)
        |> List.map (fun s -> s.Stg.Signal.name)
      in
      check "I/O preserved" true (io r.Csc.stg = io (Sg.stg sg))
  | Error msg -> Alcotest.fail msg

let test_resolve_noop () =
  (* A CSC-clean SG resolves with zero insertions. *)
  let stg =
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
  in
  let sg = Gen.sg_exn stg in
  match Csc.resolve sg with
  | Ok r -> check_int "no signals needed" 0 (List.length r.Csc.inserted)
  | Error msg -> Alcotest.fail msg

let test_resolve_unresolvable () =
  (* Fig. 1: the conflict window contains only input events; resolution
     must fail, before the search, rather than delay an input. *)
  let sg = Gen.sg_exn (Specs.fig1 ()) in
  match Csc.resolve ~max_signals:2 ~work:2_000 sg with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "fig1 should be unresolvable without input delay"

let test_site_display () =
  let stg, _ = lr_sg () in
  let lo_plus = Petri.trans_of_name stg.Stg.net "lo+" in
  let s = Format.asprintf "%a" (Csc.pp_site stg) (Csc.After lo_plus) in
  check "after site renders" true (s = "after lo+")

let prop_insertion_only_delays =
  (* Inserting a signal never changes the projection of traces onto the
     original signals: check that the original labels' arc counts per label
     survive, and the result (when consistent) has at least as many states. *)
  QCheck.Test.make ~name:"insertion preserves original events" ~count:10
    QCheck.(int_range 0 1_000)
    (fun seed ->
      let stg = Expansion.four_phase (Gen.random_spec seed) in
      let sg = Gen.sg_exn stg in
      let sites = Array.of_list (Csc.sites stg) in
      QCheck.assume (Array.length sites >= 2);
      let st = Random.State.make [| seed |] in
      let i = Random.State.int st (Array.length sites) in
      let j = Random.State.int st (Array.length sites) in
      QCheck.assume (i <> j);
      match Csc.insert_signal stg ~set:sites.(i) ~reset:sites.(j) ~name:"z" with
      | exception Invalid_argument _ -> true
      | stg' -> (
          match Sg.of_stg stg' with
          | Error _ -> true (* inconsistent insertions are rejected upstream *)
          | Ok sg' ->
              Sg.n_states sg' >= Sg.n_states sg
              || List.length (Stg.all_labels stg')
                 = List.length (Stg.all_labels stg) + 2))

let suite =
  [
    Alcotest.test_case "sites" `Quick test_sites;
    Alcotest.test_case "insert after" `Quick test_insert_after;
    Alcotest.test_case "insert errors" `Quick test_insert_errors;
    Alcotest.test_case "resolve LR" `Quick test_resolve_lr;
    Alcotest.test_case "resolve no-op" `Quick test_resolve_noop;
    Alcotest.test_case "resolve unresolvable" `Quick test_resolve_unresolvable;
    Alcotest.test_case "site display" `Quick test_site_display;
    QCheck_alcotest.to_alcotest prop_insertion_only_delays;
  ]

(* [Csc.insert_signal] as it was before it built the refined net from its
   parent's arrays: every place, transition and arc through
   [Petri.Builder], and every transition name parsed again by
   [Stg.of_net] with the signals regrouped by kind.  It takes a valid
   pair of sites (no checks). *)
let reference_insert_signal stg ~set ~reset ~name =
  let net = stg.Stg.net in
  let b = Petri.Builder.create () in
  for p = 0 to Petri.n_places net - 1 do
    ignore
      (Petri.Builder.add_place b ~name:(Petri.place_name net p)
         ~tokens:net.Petri.initial.(p))
  done;
  for t = 0 to Petri.n_trans net - 1 do
    ignore (Petri.Builder.add_trans b ~name:(Petri.trans_name net t))
  done;
  let t_plus = Petri.Builder.add_trans b ~name:(name ^ "+") in
  let t_minus = Petri.Builder.add_trans b ~name:(name ^ "-") in
  let edge_of = function s when s = set -> t_plus | _ -> t_minus in
  (* On_arc sites: the producer's arc to the place is re-routed through
     the new edge, t1 -> q -> c± -> p *)
  let rerouted = Hashtbl.create 4 in
  List.iter
    (fun s ->
      match s with
      | Csc.On_arc p -> Hashtbl.replace rerouted p (edge_of s)
      | Csc.After _ -> ())
    [ set; reset ];
  for t = 0 to Petri.n_trans net - 1 do
    Array.iter (fun p -> Petri.Builder.arc_pt b p t) net.Petri.pre.(t);
    let series_edge =
      match (set, reset) with
      | Csc.After ts, _ when ts = t -> Some t_plus
      | _, Csc.After tr when tr = t -> Some t_minus
      | (Csc.After _ | Csc.On_arc _), (Csc.After _ | Csc.On_arc _) -> None
    in
    match series_edge with
    | Some edge ->
        let q =
          Petri.Builder.add_place b
            ~name:(Printf.sprintf "q_%s_%s" name (Petri.trans_name net t))
            ~tokens:0
        in
        Petri.Builder.arc_tp b t q;
        Petri.Builder.arc_pt b q edge;
        Array.iter (fun p -> Petri.Builder.arc_tp b edge p) net.Petri.post.(t)
    | None ->
        Array.iter
          (fun p ->
            match Hashtbl.find_opt rerouted p with
            | Some edge ->
                let q =
                  Petri.Builder.add_place b
                    ~name:
                      (Printf.sprintf "q_%s_%s" name (Petri.place_name net p))
                    ~tokens:0
                in
                Petri.Builder.arc_tp b t q;
                Petri.Builder.arc_pt b q edge;
                Petri.Builder.arc_tp b edge p
            | None -> Petri.Builder.arc_tp b t p)
          net.Petri.post.(t)
  done;
  let kind_names k =
    Array.to_list stg.Stg.signals
    |> List.filter_map (fun s ->
           if s.Stg.Signal.kind = k then Some s.Stg.Signal.name else None)
  in
  Stg.of_net
    ~inputs:(kind_names Stg.Signal.Input)
    ~outputs:(kind_names Stg.Signal.Output)
    ~internals:(kind_names Stg.Signal.Internal @ [ name ])
    (Petri.Builder.build b)

(* [Csc.insert_signal] builds the reference's STG, [=] on [Stg.t], for
   every ordered pair of sites of every shipped spec, of four-phase LR,
   PAR and MMU, of eight generated specs of each choice class (whose
   merge places fed by two [After] sites list both new edges as
   producers), and of a first-level child of each: the child of the
   first pair, whose net already carries [q_] places and an internal
   [csc0] to insert [csc1] after. *)
let test_insert_signal_reference () =
  let pairs = ref 0 in
  let check_spec what stg ~name =
    let sites = Csc.sites stg in
    List.iter
      (fun set ->
        List.iter
          (fun reset ->
            if set <> reset then begin
              incr pairs;
              if
                Csc.insert_signal stg ~set ~reset ~name
                <> reference_insert_signal stg ~set ~reset ~name
              then
                Alcotest.failf "%s: set %s reset %s" what
                  (Format.asprintf "%a" (Csc.pp_site stg) set)
                  (Format.asprintf "%a" (Csc.pp_site stg) reset)
            end)
          sites)
      sites;
    match sites with
    | set :: reset :: _ -> Some (Csc.insert_signal stg ~set ~reset ~name)
    | [] | [ _ ] -> None
  in
  List.iter
    (fun (what, stg) ->
      match check_spec what stg ~name:"csc0" with
      | Some child -> ignore (check_spec (what ^ " child") child ~name:"csc1")
      | None -> ())
    (List.map
       (fun (f, path) -> (f, Stg.Io.parse_file path))
       (Test_roundtrip.g_files ())
    @ [
        ("LR", Expansion.four_phase Specs.lr);
        ("PAR", Expansion.four_phase Specs.par);
        ("MMU", Expansion.four_phase Specs.mmu);
      ]
    @ List.concat_map
        (fun cls ->
          List.init 8 (fun seed ->
              ( Printf.sprintf "%s %d" (Gen.class_name cls) seed,
                Gen.case_to_stg (Gen.random_case ~max_signals:4 ~cls seed) )))
        Gen.all_classes);
  check "some pairs" true (!pairs > 1000)

let test_on_arc_site_display () =
  let stg, _ = lr_sg () in
  match
    List.find_opt
      (function Csc.On_arc _ -> true | Csc.After _ -> false)
      (Csc.sites stg)
  with
  | Some site ->
      let s = Format.asprintf "%a" (Csc.pp_site stg) site in
      check "renders with arrow" true
        (String.length s > 3 && String.sub s 0 3 = "on ")
  | None -> Alcotest.fail "expected at least one arc site"

let test_resolve_deterministic () =
  (* Same input, same resolution (the search is deterministic). *)
  let _, sg = lr_sg () in
  match (Csc.resolve sg, Csc.resolve sg) with
  | Ok a, Ok b ->
      check "same insertions" true (a.Csc.inserted = b.Csc.inserted)
  | _, _ -> Alcotest.fail "resolution should succeed"

let suite =
  suite
  @ [
      Alcotest.test_case "on-arc site display" `Quick test_on_arc_site_display;
      Alcotest.test_case "insert_signal = Builder reference" `Quick
        test_insert_signal_reference;
      Alcotest.test_case "deterministic resolution" `Quick
        test_resolve_deterministic;
    ]

(* ------------------------------------------------------------------ *)
(* Child state graphs by product (Csc.product) against re-exploration *)

let data f = Filename.concat (Test_roundtrip.examples_dir ()) f

let first_level_specs () =
  [
    ("LR", Expansion.four_phase Specs.lr);
    ("PAR", Expansion.four_phase Specs.par);
    ("fig1", Specs.fig1 ());
    ("ahb_arbiter", Stg.Io.parse_file (data "ahb_arbiter.g"));
    ("ahb_master", Stg.Io.parse_file (data "ahb_master.g"));
    ("micropipeline", Stg.Io.parse_file (data "micropipeline.g"));
  ]

(* Structural equality through the public API: state numbering, initial
   state, codes, markings, arc rows and unconstrained signals. *)
let same_sg a b =
  let row sg s =
    List.rev (Sg.fold_succ sg s [] (fun acc t d -> (t, d) :: acc))
  in
  Sg.n_states a = Sg.n_states b
  && Sg.initial a = Sg.initial b
  && Sg.unconstrained_signals a = Sg.unconstrained_signals b
  && List.for_all
       (fun s ->
         Sg.code a s = Sg.code b s
         && Sg.marking a s = Sg.marking b s
         && row a s = row b s)
       (Sg.states a)

let error_string e = Format.asprintf "%a" Sg.pp_error e

(* [Some true]: the product matches [Sg.of_stg] (graph or error), and its
   conflict count, counted before the child is built, is the built
   child's; [Some false]: it does not; [None]: the product fell back. *)
let product_agrees sg ~set ~reset =
  let stg' = Csc.insert_signal (Sg.stg sg) ~set ~reset ~name:"z" in
  match
    (Csc.product sg ~set ~reset ~name:"z", Sg.of_stg ~warn:ignore stg')
  with
  | None, _ -> None
  | Some (Ok a), Ok b ->
      Some
        (same_sg a b
        && Csc.product_conflicts sg ~set ~reset
           = Some (Sg.csc_conflict_count b))
  | Some (Error e1), Error e2 -> Some (error_string e1 = error_string e2)
  | Some (Ok _), Error _ | Some (Error _), Ok _ -> Some false

(* [f set reset] on every valid first-level insertion into [stg]. *)
let iter_children stg f =
  let sites = Csc.sites stg in
  List.iter
    (fun set ->
      List.iter
        (fun reset ->
          if set <> reset then
            match Csc.insert_signal stg ~set ~reset ~name:"z" with
            | exception Invalid_argument _ -> ()
            | _ -> f set reset)
        sites)
    sites

let test_product_first_level () =
  List.iter
    (fun (name, stg) ->
      let sg = Gen.sg_exn stg in
      let pairs = ref 0 and fallbacks = ref 0 in
      iter_children stg (fun set reset ->
          incr pairs;
          match product_agrees sg ~set ~reset with
          | Some true -> ()
          | None -> incr fallbacks
          | Some false ->
              Alcotest.failf "%s: product differs on set %s reset %s" name
                (Format.asprintf "%a" (Csc.pp_site stg) set)
                (Format.asprintf "%a" (Csc.pp_site stg) reset));
      check (name ^ ": some pairs") true (!pairs > 0);
      check_int (name ^ ": no fallbacks") 0 !fallbacks)
    (first_level_specs ())

(* The packed determinism and commutativity checks agree with the list
   scans on every child the first CSC level builds — ahb_arbiter's are all
   non-SI. *)
let test_packed_si_first_level () =
  List.iter
    (fun (name, stg) ->
      let sg = Gen.sg_exn stg in
      let not_si = ref 0 in
      iter_children stg (fun set reset ->
          match Csc.product sg ~set ~reset ~name:"z" with
          | Some (Ok sg') ->
              if not (Test_sg.packed_si_agrees sg') then
                Alcotest.failf "%s: packed SI differs from the scans" name;
              if not (Sg.is_speed_independent sg') then incr not_si
          | Some (Error _) | None -> ());
      if name = "ahb_arbiter" then check_int "ahb_arbiter: non-SI" 96 !not_si)
    (first_level_specs ())

let prop_product_random =
  QCheck.Test.make ~name:"product = of_stg on random specs" ~count:30
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let stg = Expansion.four_phase (Gen.random_spec seed) in
      let sg = Gen.sg_exn stg in
      let sites = Array.of_list (Csc.sites stg) in
      QCheck.assume (Array.length sites >= 2);
      let st = Random.State.make [| seed |] in
      List.for_all
        (fun _ ->
          let i = Random.State.int st (Array.length sites) in
          let j = Random.State.int st (Array.length sites) in
          i = j
          ||
          match product_agrees sg ~set:sites.(i) ~reset:sites.(j) with
          | exception Invalid_argument _ -> true
          | agrees -> agrees <> Some false)
        (List.init 8 Fun.id))

(* A 2-bounded place [p] between dummies: [d1] may fire twice (two slots
   in [s0]) before [d2], which a one-token [turn] serializes with the
   handshake of output [x]. *)
let two_slot_buffer () =
  let b = Petri.Builder.create () in
  let place name tokens = Petri.Builder.add_place b ~name ~tokens in
  let s0 = place "s0" 2 and p = place "p" 0 and turn = place "turn" 1 in
  let w = place "w" 0 and v = place "v" 0 in
  let trans name = Petri.Builder.add_trans b ~name in
  let d1 = trans "d1" and d2 = trans "d2" in
  let xp = trans "x+" and xm = trans "x-" in
  Petri.Builder.arc_pt b s0 d1;
  Petri.Builder.arc_tp b d1 p;
  Petri.Builder.arc_pt b p d2;
  Petri.Builder.arc_pt b turn d2;
  Petri.Builder.arc_tp b d2 w;
  Petri.Builder.arc_pt b w xp;
  Petri.Builder.arc_tp b xp v;
  Petri.Builder.arc_pt b v xm;
  Petri.Builder.arc_tp b xm s0;
  Petri.Builder.arc_tp b xm turn;
  let stg = Stg.of_net ~inputs:[] ~outputs:[ "x" ] (Petri.Builder.build b) in
  (stg, s0, p, xp, xm)

let test_product_fallbacks () =
  let stg, s0, p, xp, xm = two_slot_buffer () in
  let sg = Gen.sg_exn stg in
  (* the inserted place after d1 takes a second token *)
  let set = Csc.On_arc p and reset = Csc.After xp in
  check "second token falls back" true
    (Csc.product sg ~set ~reset ~name:"c" = None);
  check "and is not counted" true (Csc.product_conflicts sg ~set ~reset = None);
  check "of_stg rejects it" true
    (Result.is_error
       (Sg.of_stg ~warn:ignore (Csc.insert_signal stg ~set ~reset ~name:"c")));
  (* degenerate pair: s0 lies in x-'s postset, so the reset edge gets no
     place at all; the product fires it everywhere, as the net does *)
  check "degenerate pair agrees" true
    (product_agrees sg ~set:(Csc.After xm) ~reset:(Csc.On_arc s0) = Some true);
  (* 62 controlled labels: the child is built by product but not counted
     on it ([resolve] counts it with [Sg]) *)
  let ring = Gen.ring ~inputs:0 31 in
  let sg = Gen.sg_exn ring in
  (match Csc.sites ring with
  | set :: reset :: _ ->
      check "wide parent is not counted" true
        (Csc.product_conflicts sg ~set ~reset = None);
      check "wide parent is built" true
        (match
           ( Csc.product sg ~set ~reset ~name:"z",
             Sg.of_stg ~warn:ignore
               (Csc.insert_signal ring ~set ~reset ~name:"z") )
         with
        | Some (Ok a), Ok b -> same_sg a b
        | _ -> false)
  | [] | [ _ ] -> Alcotest.fail "expected two sites");
  (* a toggle-only (unconstrained) signal falls back so that of_stg's
     warning is kept *)
  let stg =
    Stg.Io.parse
      {|
.inputs a
.outputs x y
.graph
a+ x+
x+ y~
y~ a-
a- x-
x- a+
.marking { <x-,a+> }
.end
|}
  in
  let sg =
    match Sg.of_stg ~warn:ignore stg with
    | Ok sg -> sg
    | Error e -> Alcotest.fail (error_string e)
  in
  match Csc.sites stg with
  | set :: reset :: _ ->
      check "unconstrained signal falls back" true
        (Csc.product sg ~set ~reset ~name:"c" = None)
  | [] | [ _ ] -> Alcotest.fail "expected two sites"

let explore _ ~set:_ ~reset:_ ~name:_ stg' = Sg.of_stg ~warn:ignore stg'

(* The product, which "product = of_stg" checks against [explore]: cheaper
   where the oracle's tree of children is large. *)
let by_product sg ~set ~reset ~name stg' =
  match Csc.product sg ~set ~reset ~name with
  | Some r -> r
  | None -> explore sg ~set ~reset ~name stg'

(* The resolve loop as it was before child SGs were derived by product:
   every candidate re-explores its refined net ([child], [explore] by
   default), is checked for speed-independence before its conflicts are
   counted on the sorted pair list, and is scored with the unmemoized
   estimator; the work budget runs out pair by pair.  [on_level] sees each
   level's pair count as it starts. *)
let reference_resolve ?(on_level = ignore) ?(child = explore) ?(max_signals = 6)
    ?(work = 20_000) sg0 =
  let exception Out_of_work in
  let work_left = ref work in
  let rec solve stg sg depth inserted =
    let conflicts = List.length (Sg.csc_conflicts sg) in
    if conflicts = 0 then Ok (stg, sg, List.rev inserted)
    else if depth = 0 then Error "signal budget exhausted"
    else begin
      let name = Printf.sprintf "csc%d" (List.length inserted) in
      let all_sites = Csc.sites stg in
      let ns = List.length all_sites in
      on_level (ns * (ns - 1));
      let candidates = ref [] in
      List.iter
        (fun set ->
          List.iter
            (fun reset ->
              if set <> reset then begin
                decr work_left;
                if !work_left < 0 then raise Out_of_work;
                match Csc.insert_signal stg ~set ~reset ~name with
                | exception Invalid_argument _ -> ()
                | stg' -> (
                    match child sg ~set ~reset ~name stg' with
                    | Error _ -> ()
                    | Ok sg' ->
                        if Sg.is_speed_independent sg' then
                          let c = List.length (Sg.csc_conflicts sg') in
                          if c <= conflicts then
                            candidates :=
                              ((c, Logic.estimate sg'), stg', sg', set, reset)
                              :: !candidates)
              end)
            all_sites)
        all_sites;
      let sorted =
        List.sort (fun (s1, _, _, _, _) (s2, _, _, _, _) -> compare s1 s2)
          !candidates
      in
      let rec try_best = function
        | [] -> Error "no valid insertion found"
        | (_, stg', sg', set, reset) :: rest -> (
            let show = Format.asprintf "%a" (Csc.pp_site stg) in
            let step = (name, show set, show reset) in
            match solve stg' sg' (depth - 1) (step :: inserted) with
            | Ok r -> Ok r
            | Error _ -> try_best rest)
      in
      try_best (List.filteri (fun i _ -> i < 5) sorted)
    end
  in
  match solve (Sg.stg sg0) sg0 max_signals [] with
  | result -> result
  | exception Out_of_work -> Error "insertion work budget exhausted"

(* [Ok ()] when [Csc.resolve] and the oracle agree on [Ok]/[Error], the
   error string, the insertions, the STG and the final SG.  On an
   input-separated spec [resolve] stops before the search with its own
   message, so there both must fail and the messages may differ. *)
let agrees_with_reference ?child ~max_signals ~work stg =
  let sg = Gen.sg_exn stg in
  let separated = Csc.input_separated sg <> None in
  match
    ( Csc.resolve ~max_signals ~work sg,
      reference_resolve ?child ~max_signals ~work sg )
  with
  | Ok r, Ok (stg', sg', inserted) ->
      if r.Csc.inserted <> inserted then Error "inserted"
      else if Stg.Io.print r.Csc.stg <> Stg.Io.print stg' then Error "STG"
      else if not (same_sg r.Csc.sg sg') then Error "final SG"
      else Ok ()
  | Error _, Error _ when separated -> Ok ()
  | Error e1, Error e2 ->
      if e1 = e2 then Ok ()
      else Error (Printf.sprintf "error %S, oracle %S" e1 e2)
  | Ok _, Error e -> Error ("only the reference failed: " ^ e)
  | Error e, Ok _ -> Error ("only resolve failed: " ^ e)

let check_reference ?child (name, stg, max_signals, work) =
  match agrees_with_reference ?child ~max_signals ~work stg with
  | Ok () -> ()
  | Error what -> Alcotest.failf "%s: %s" name what

(* Cumulative pair counts at the ends of the oracle's first levels on
   [stg]: a work budget equal to one ends exactly at a level boundary. *)
let level_boundaries ?child ~max_signals ~work stg =
  let ends = ref [] and total = ref 0 in
  ignore
    (reference_resolve ?child ~max_signals ~work
       ~on_level:(fun pairs ->
         total := !total + pairs;
         if !total <= work then ends := !total :: !ends)
       (Gen.sg_exn stg));
  List.rev !ends

let test_resolve_reference () =
  let lr = Expansion.four_phase Specs.lr
  and par = Expansion.four_phase Specs.par in
  List.iter check_reference
    [
      ("LR", lr, 6, 20_000);
      ("PAR", par, 6, 20_000);
      ("fig1", Specs.fig1 (), 2, 2_000);
      ("ahb_arbiter", Stg.Io.parse_file (data "ahb_arbiter.g"), 6, 20_000);
      ("ahb_master", Stg.Io.parse_file (data "ahb_master.g"), 6, 20_000);
      ("buffer", Stg.Io.parse_file (data "buffer.g"), 6, 20_000);
      (* the last signal must clear every conflict: exactly the signals
         needed, and one fewer *)
      ("LR at 2", lr, 2, 20_000);
      ("LR at 1", lr, 1, 20_000);
    ];
  (* PAR at 4 tries the same 1,760 children as at 6, which [explore]
     already builds above; one signal short, its whole tree is 14,570 *)
  List.iter
    (check_reference ~child:by_product)
    [ ("PAR at 4", par, 4, 20_000); ("PAR at 3", par, 3, 20_000) ]

(* The work budget is checked once per level: budgets ending one pair
   before, exactly at and one pair after a level boundary end the way the
   pair-by-pair oracle ends — on PAR at 3 signals (a failing plateau search
   of 14,570 candidates, children by product) at its third level, on LR at
   the level whose best candidate resolves it.  PAR at 3 also ends one
   pair short of its whole tree as the oracle does: its last level is
   reached only after backtracking took picks whose first score had been
   cut off by the bound. *)
let test_resolve_work_boundaries () =
  let par = Expansion.four_phase Specs.par
  and lr = Expansion.four_phase Specs.lr in
  let around ?child name stg ~max_signals b =
    List.iter
      (fun work ->
        check_reference ?child
          (Printf.sprintf "%s, work %d" name work, stg, max_signals, work))
      [ b - 1; b; b + 1 ]
  in
  (match
     level_boundaries ~child:by_product ~max_signals:3 ~work:20_000 par
   with
  | (_ :: _ :: b :: _) as ends ->
      around ~child:by_product "PAR at 3" par ~max_signals:3 b;
      let short = List.nth ends (List.length ends - 1) - 1 in
      check_reference ~child:by_product
        (Printf.sprintf "PAR at 3, work %d" short, par, 3, short)
  | _ -> Alcotest.fail "PAR at 3: expected three levels within the budget");
  match List.rev (level_boundaries ~max_signals:6 ~work:20_000 lr) with
  | b :: _ ->
      around "LR" lr ~max_signals:6 b;
      let resolves work = Result.is_ok (Csc.resolve ~work (Gen.sg_exn lr)) in
      check "LR resolves at the boundary" true (resolves b);
      check "LR runs out one pair short" false (resolves (b - 1))
  | [] -> Alcotest.fail "LR: no level within the budget"

let prop_resolve_reference_random =
  QCheck.Test.make ~name:"resolve = reference loop on random specs" ~count:20
    QCheck.(triple (int_range 0 10_000) (int_range 1 3) (int_range 0 300))
    (fun (seed, max_signals, work) ->
      let stg = Expansion.four_phase (Gen.random_spec seed) in
      match agrees_with_reference ~max_signals ~work stg with
      | Ok () -> true
      | Error what -> QCheck.Test.fail_report what)

let decision_counters =
  [
    "csc.insertions.tried";
    "csc.reject.sg_error";
    "csc.reject.not_si";
    "csc.reject.more_conflicts";
    "csc.reject.not_final";
    "csc.accepted";
    "csc.unexamined";
    "csc.scored";
    "csc.child.product";
    "csc.child.fallback";
    "csc.child.shared";
    "csc.fail.input_separated";
  ]

(* Counter deltas over one [Csc.resolve], in [decision_counters] order. *)
let counter_deltas ?max_signals ?work sg =
  let snapshot () =
    List.map (fun n -> Obs.Counter.value (Obs.Counter.make n)) decision_counters
  in
  let was = Obs.enabled () in
  Obs.set_enabled true;
  let before = snapshot () in
  ignore
    (Fun.protect
       ~finally:(fun () -> Obs.set_enabled was)
       (fun () -> Csc.resolve ?max_signals ?work sg));
  List.map2 ( - ) (snapshot ()) before

(* Every tried candidate lands in exactly one decision counter: a
   rejection, [accepted], or [unexamined]. *)
let partitioned deltas =
  let v name = List.assoc name (List.combine decision_counters deltas) in
  v "csc.insertions.tried"
  = List.fold_left
      (fun acc name -> acc + v name)
      0
      [
        "csc.reject.sg_error";
        "csc.reject.not_si";
        "csc.reject.more_conflicts";
        "csc.reject.not_final";
        "csc.accepted";
        "csc.unexamined";
      ]

let check_counters want got =
  check "tried = rejected + accepted + unexamined" true (partitioned got);
  List.iter2
    (fun name (want, got) -> check_int name want got)
    decision_counters (List.combine want got)

(* Every candidate of PAR's resolution is judged by product: 442 explore
   their child, the other 1,318 share the judgement of an earlier one
   with the same edge pair.  The search reaches 28 of the 212 that pass
   the count — those with the smallest count at each of its four levels,
   since every level's first pick succeeds — and scores 14 of them: the
   other 14 insert the same edges as one scored before. *)
let test_decision_counters () =
  let sg = Gen.sg_exn (Expansion.four_phase Specs.par) in
  check_counters
    [ 1760; 980; 0; 568; 0; 28; 184; 14; 442; 0; 1318; 0 ]
    (counter_deltas sg)

(* LR at two signals: most candidates for the second signal leave a
   conflict and are rejected as not final; 8 of the 20 that pass are
   reached, and 4 scored. *)
let test_decision_counters_lr () =
  let sg = Gen.sg_exn (Expansion.four_phase Specs.lr) in
  check_counters
    [ 228; 96; 0; 28; 84; 8; 12; 4; 49; 0; 179; 0 ]
    (counter_deltas ~max_signals:2 sg)

(* fig1's conflict is separated only by input events: resolve fails
   before trying any candidate. *)
let test_decision_counters_fig1 () =
  let sg = Gen.sg_exn (Specs.fig1 ()) in
  check_counters
    [ 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 1 ]
    (counter_deltas ~max_signals:2 ~work:2_000 sg)

(* The partition holds however the search ends: resolved, out of signals,
   or out of work below a level whose unreached candidates must still be
   counted — budgets up to 2,000 run out past the root. *)
let prop_decision_counters_random =
  QCheck.Test.make ~name:"decision counters partition the tried" ~count:20
    QCheck.(triple (int_range 0 10_000) (int_range 1 3) (int_range 0 2_000))
    (fun (seed, max_signals, work) ->
      let sg = Gen.sg_exn (Expansion.four_phase (Gen.random_spec seed)) in
      partitioned (counter_deltas ~max_signals ~work sg))

(* [astg synth micropipeline.g], byte for byte: the search reaches 34 of
   the 986 candidates that pass the count, and the [Sg.of_stg] oracle is
   too slow to cover it here. *)
let test_micropipeline_golden () =
  match Test_serve.run_cli [ "synth"; data "micropipeline.g" ] with
  | 0, out, _ -> Test_obs.check_golden "synth_micropipeline.expected" out
  | rc, _, err -> Alcotest.failf "astg synth exited %d: %s" rc err

(* [Core.Cli.synth_text] on the four-phase MMU, byte for byte: five
   signals deep, where ranking every passing candidate eagerly took
   seconds. *)
let test_mmu_golden () =
  match
    Core.Cli.synth_text Core.Cli.default_synth
      (Expansion.four_phase Specs.mmu)
  with
  | Ok out -> Test_obs.check_golden "synth_mmu.expected" out
  | Error msg -> Alcotest.fail msg

(* Synth's decisions, pinned like reduce's: the [counters:] block of
   [astg synth --metrics] on the paper's specs and the shipped ones —
   candidates tried, judged by product or shared, rejected by reason,
   reached, scored, and the logic and netlist work after CSC. *)
let test_synth_counters_golden () =
  let shipped f = (f, `File (data f)) in
  Test_obs.check_counters_golden "synth_counters.expected" ~command:"synth"
    ~flag_sets:[ [] ]
    [
      ("LR", `Printed (Expansion.four_phase Specs.lr));
      ("PAR", `Printed (Expansion.four_phase Specs.par));
      ("MMU", `Printed (Expansion.four_phase Specs.mmu));
      shipped "micropipeline.g";
      shipped "ahb_master.g";
      shipped "ahb_arbiter.g";
      shipped "fig1.g";
    ]

(* [astg synth --emit verilog fig1.g], byte for byte: the one output that
   names the input-separated conflict. *)
let test_fig1_emit_golden () =
  match Test_serve.run_cli [ "synth"; "--emit"; "verilog"; data "fig1.g" ] with
  | 0, out, _ -> Test_obs.check_golden "synth_fig1_emit.expected" out
  | rc, _, err -> Alcotest.failf "astg synth exited %d: %s" rc err

(* An inserted signal takes the first free [csc<j>]: LR with its output
   [lo] renamed [csc0] resolves as LR does. *)
let test_resolve_name_clash () =
  let stg =
    Stg.Io.parse
      {|
.inputs li ri
.outputs csc0 ro
.graph
li+ ro+
ro+ ri+
ri+ csc0+ ro-
csc0+ li+ li-
ro- ri-
li- csc0-
ri- ro+
csc0- li+
.marking { <csc0+,li+> <ri-,ro+> <csc0-,li+> }
.end
|}
  in
  let sg = Gen.sg_exn stg in
  let report = Core.implement ~name:"lr" sg in
  check "two state signals" true (report.Core.csc_signals = Some 2);
  check "area 264" true (report.Core.area = Some 264);
  match Csc.resolve sg with
  | Ok r ->
      let names = List.map (fun (name, _, _) -> name) r.Csc.inserted in
      check "no clash with the spec" true
        (List.for_all
           (fun name ->
             match Stg.signal_of_name stg name with
             | _ -> false
             | exception Not_found -> true)
           names);
      check "first free names" true (names = [ "csc1"; "csc2" ])
  | Error msg -> Alcotest.fail msg

(* Fig. 1 started from another marking: its conflict pair is states 1
   and 4, and the input path Req-, Req+ runs from 4 back to 1. *)
let fig1_rotated () =
  Stg.Io.parse
    {|
.inputs Req
.outputs Ack
.graph
Req+ Ack+
Ack+ Req-
Req- Ack- Req+
Ack- Ack+
.marking { <Req-,Ack-> <Req-,Req+> }
.end
|}

(* Of the shipped specifications only fig1 is input-separated: the root
   check never cuts off a search that can succeed.  The check follows
   input paths both ways from a pair's first state. *)
let test_input_separated_specs () =
  let fig1 = Gen.sg_exn (Specs.fig1 ()) in
  (match Csc.input_separated fig1 with
  | Some (a, b) ->
      check "fig1: a conflict pair" true
        (List.mem (a, b) (Sg.csc_conflicts fig1))
  | None -> Alcotest.fail "fig1 should be input-separated");
  check "fig1, path back to the first state" true
    (Csc.input_separated (Gen.sg_exn (fig1_rotated ())) = Some (1, 4));
  List.iter
    (fun (name, stg) ->
      check name true (Csc.input_separated (Gen.sg_exn stg) = None))
    [
      ("LR", Expansion.four_phase Specs.lr);
      ("PAR", Expansion.four_phase Specs.par);
      ("MMU", Expansion.four_phase Specs.mmu);
      ("micropipeline", Stg.Io.parse_file (data "micropipeline.g"));
      ("ahb_master", Stg.Io.parse_file (data "ahb_master.g"));
      ("ahb_arbiter", Stg.Io.parse_file (data "ahb_arbiter.g"));
      ("buffer", Stg.Io.parse_file (data "buffer.g"));
    ]

(* The induction step behind [resolve]'s early [Error]: every first-level
   child of an input-separated root, built by the [Sg.of_stg] oracle, still
   has a conflict and is input-separated.  The same children also check
   the product and its conflict count on choice nets. *)
let test_input_separated_children () =
  let roots = ref 0 in
  let check_spec name stg =
    let sg = Gen.sg_exn stg in
    if Csc.input_separated sg <> None then begin
      incr roots;
      iter_children stg (fun set reset ->
          let stg' = Csc.insert_signal stg ~set ~reset ~name:"z" in
          (match Sg.of_stg ~warn:ignore stg' with
          | Error _ -> ()
          | Ok sg' ->
              if Sg.csc_conflict_count sg' = 0 then
                Alcotest.failf "%s: a child resolves every conflict" name;
              if Csc.input_separated sg' = None then
                Alcotest.failf "%s: a child is no longer input-separated" name);
          if product_agrees sg ~set ~reset = Some false then
            Alcotest.failf "%s: product differs from of_stg" name)
    end
  in
  check_spec "fig1" (Specs.fig1 ());
  check_spec "fig1 rotated" (fig1_rotated ());
  List.iter
    (fun cls ->
      for seed = 0 to 23 do
        check_spec
          (Printf.sprintf "%s %d" (Gen.class_name cls) seed)
          (Gen.case_to_stg (Gen.random_case ~max_signals:4 ~cls seed))
      done)
    Gen.all_classes;
  check "some roots are input-separated" true (!roots > 1)

(* ------------------------------------------------------------------ *)
(* What [resolve] judges once per edge pair *)

(* The edge [site] inserts, [other] being the pair's other site, as the
   product reads it: the transition that marks its place and the places
   that place holds back — none for a free edge, on the arc out of the
   other site's [After] transition. *)
let inserted_edge stg site ~other =
  let net = stg.Stg.net in
  match (site, other) with
  | Csc.After t, _ -> (t, Array.to_list net.Petri.post.(t))
  | Csc.On_arc p, Csc.After t when net.Petri.producers.(p).(0) = t -> (-1, [])
  | Csc.On_arc p, (Csc.After _ | Csc.On_arc _) ->
      (net.Petri.producers.(p).(0), [ p ])

(* [Ok (mirrors, equal)] when, over every first-level pair of [stg]:
   - a pair and its mirror agree on [product_conflicts], on the
     [product] outcome (graph, error or fallback) and, for graphs, on
     the conflict count and speed-independence;
   - a pair that inserts the same two edges as an earlier one gets the
     same outcome and, for graphs, identical states, codes, markings and
     arcs and an equal logic total.
   [mirrors] and [equal] count the graphs compared each way. *)
let judged_once_agrees stg =
  let sg = Gen.sg_exn stg in
  let show (set, reset) =
    Format.asprintf "set %a reset %a" (Csc.pp_site stg) set (Csc.pp_site stg)
      reset
  in
  let child (set, reset) = Csc.product sg ~set ~reset ~name:"z" in
  let outcome = function
    | None -> "fallback"
    | Some (Ok _) -> "graph"
    | Some (Error _) -> "error"
  in
  let total sg = Logic.total (Logic.evaluate sg) in
  let pairs = ref [] in
  iter_children stg (fun set reset -> pairs := (set, reset) :: !pairs);
  let first = Hashtbl.create 64 in
  let mirrors = ref 0 and equal = ref 0 in
  let check_pair ((set, reset) as pair) =
    let key =
      (inserted_edge stg set ~other:reset, inserted_edge stg reset ~other:set)
    in
    let mirror_differs =
      compare set reset < 0
      &&
      let a = child pair and b = child (reset, set) in
      Csc.product_conflicts sg ~set ~reset
      <> Csc.product_conflicts sg ~set:reset ~reset:set
      || outcome a <> outcome b
      ||
      match (a, b) with
      | Some (Ok a), Some (Ok b) ->
          incr mirrors;
          Sg.csc_conflict_count a <> Sg.csc_conflict_count b
          || Sg.is_speed_independent a <> Sg.is_speed_independent b
      | _ -> false
    in
    if mirror_differs then Some ("mirror differs: " ^ show pair)
    else
      match Hashtbl.find_opt first key with
      | None ->
          Hashtbl.add first key pair;
          None
      | Some earlier ->
          let a = child earlier and b = child pair in
          let differs =
            outcome a <> outcome b
            ||
            match (a, b) with
            | Some (Ok a), Some (Ok b) ->
                incr equal;
                (not (same_sg a b)) || total a <> total b
            | _ -> false
          in
          if differs then
            Some
              (Printf.sprintf "equal edges differ: %s, %s" (show earlier)
                 (show pair))
          else None
  in
  match List.find_map check_pair (List.rev !pairs) with
  | Some what -> Error what
  | None -> Ok (!mirrors, !equal)

let test_judged_once_named () =
  List.iter
    (fun (name, stg) ->
      match judged_once_agrees stg with
      | Error what -> Alcotest.failf "%s: %s" name what
      | Ok (mirrors, equal) ->
          check (name ^ ": mirror graphs compared") true (mirrors > 0);
          check (name ^ ": equal-edge graphs compared") true (equal > 0))
    [
      ("LR", Expansion.four_phase Specs.lr);
      ("PAR", Expansion.four_phase Specs.par);
      ("MMU", Expansion.four_phase Specs.mmu);
      ("micropipeline", Stg.Io.parse_file (data "micropipeline.g"));
      ("ahb_arbiter", Stg.Io.parse_file (data "ahb_arbiter.g"));
      ("ahb_master", Stg.Io.parse_file (data "ahb_master.g"));
    ]

let prop_judged_once_random =
  QCheck.Test.make ~name:"mirrored and equal edges agree on random specs"
    ~count:50 QCheck.(int_range 0 10_000)
    (fun seed ->
      let stg = Expansion.four_phase (Gen.random_spec seed) in
      match judged_once_agrees stg with
      | Ok _ -> true
      | Error what -> QCheck.Test.fail_report what)

let suite =
  suite
  @ [
      Alcotest.test_case "decision counters on PAR" `Quick
        test_decision_counters;
      Alcotest.test_case "decision counters on LR at 2" `Quick
        test_decision_counters_lr;
      Alcotest.test_case "decision counters on fig1" `Quick
        test_decision_counters_fig1;
      QCheck_alcotest.to_alcotest prop_decision_counters_random;
      Alcotest.test_case "synth fig1 --emit golden" `Quick
        test_fig1_emit_golden;
      Alcotest.test_case "resolve name clash" `Quick test_resolve_name_clash;
      Alcotest.test_case "input-separated specs" `Quick
        test_input_separated_specs;
      Alcotest.test_case "input-separated children" `Quick
        test_input_separated_children;
      Alcotest.test_case "resolve = reference loop" `Quick
        test_resolve_reference;
      Alcotest.test_case "resolve = reference loop, work boundaries" `Quick
        test_resolve_work_boundaries;
      QCheck_alcotest.to_alcotest prop_resolve_reference_random;
      Alcotest.test_case "synth micropipeline golden" `Quick
        test_micropipeline_golden;
      Alcotest.test_case "synth MMU golden" `Quick test_mmu_golden;
      Alcotest.test_case "product = of_stg, first level" `Quick
        test_product_first_level;
      Alcotest.test_case "packed SI = list scans, first level" `Quick
        test_packed_si_first_level;
      QCheck_alcotest.to_alcotest prop_product_random;
      Alcotest.test_case "product fallbacks" `Quick test_product_fallbacks;
      Alcotest.test_case "synth counters golden" `Quick
        test_synth_counters_golden;
      Alcotest.test_case "mirrored and equal edges agree, first level" `Quick
        test_judged_once_named;
      QCheck_alcotest.to_alcotest prop_judged_once_random;
    ]
