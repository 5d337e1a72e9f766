(* Differential tests for the incremental logic-cost evaluation.

   Three ways to cost an SG must agree exactly — not just on the total,
   but on every per-signal ON/OFF set, conflict count and minimized
   cover:

   - from scratch ([Logic.evaluate ~memo:false], the reference, equal to
     [Logic.estimate]);
   - through the cross-candidate cover cache ([~memo:true], {!Boolf.Memo});
   - incrementally from the parent configuration, on a removal view of
     the parent ([Logic.estimate_delta]), as the reduction search does.

   The same contract lifted to whole searches: [Search.optimize] outcomes
   must be byte-identical across the [`Scratch]/[`Delta] evaluation
   modes. *)

(* Full textual rendering of a logic evaluation: any divergence — a set,
   a conflict count, a cover cube, a literal count, the total — breaks
   string equality. *)
let eval_repr stg (e : Logic.eval) =
  let names = Array.map (fun s -> s.Stg.Signal.name) stg.Stg.signals in
  let ints a = String.concat "," (List.map string_of_int (Array.to_list a)) in
  let sig_repr (ps : Logic.per_sig) =
    Printf.sprintf "%s: on=[%s] off=[%s] conflicts=%d lits=%d cover=%s"
      names.(ps.Logic.ps_signal) (ints ps.Logic.ps_on) (ints ps.Logic.ps_off)
      ps.Logic.ps_conflicts ps.Logic.ps_literals
      (Boolf.Cover.render ~names ps.Logic.ps_cover)
  in
  Printf.sprintf "total=%d penalty=%d\n%s" e.Logic.e_total e.Logic.e_penalty
    (String.concat "\n" (List.map sig_repr e.Logic.e_sigs))

(* The removal view of FwdRed(a, b) on [sg] with the removed states, or
   [None] when the reduction fails before any removal. *)
let fwd_red_view sg ~a ~b =
  match Reduction.fwd_red_states sg ~a ~b with
  | Error _ -> None
  | Ok states -> (
      match Sg.View.make sg ~a states with
      | Some v -> Some (v, states)
      | None -> Alcotest.fail "no removal view of a graph within 62 signals")

(* Every reduction candidate of [sg] (validated or not — the delta
   estimator only depends on the graph), costed all three ways. *)
let check_logic_paths name stg =
  let sg = Gen.sg_exn stg in
  let parent = Logic.evaluate ~memo:false sg in
  Alcotest.(check int)
    (name ^ " evaluate = estimate") (Logic.estimate sg) (Logic.total parent);
  let try_one (a, b) =
    match fwd_red_view sg ~a ~b with
    | None -> ()
    | Some (v, states) ->
        let delta = Logic.estimate_delta ~parent v in
        let sg' = (Reduction.remove sg ~a states).Reduction.cand in
        let r = eval_repr stg in
        let scratch = Logic.evaluate ~memo:false sg' in
        let memo = Logic.evaluate ~memo:true sg' in
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
let test_logic_examples () =
  let dir = Test_roundtrip.examples_dir () in
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
(* Support tracking: [Sg.View.support] really bounds the changing
   signals. *)

(* For every candidate, any signal OUTSIDE the view's support must
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
    match fwd_red_view sg ~a ~b with
    | None -> ()
    | Some (v, states) ->
        let support = Sg.View.support v in
        let step =
          Printf.sprintf "%s FwdRed(%s,%s)" name (Stg.label_name stg a)
            (Stg.label_name stg b)
        in
        Alcotest.(check bool) (step ^ ": support tracked") true (support >= 0);
        let codes, _, _ = Sg.View.changed_aggregates v in
        if Sg.View.n_states v < Sg.n_states sg then
          Alcotest.(check bool)
            (step ^ ": pruning changes a surviving row")
            true
            (Array.length codes > 0);
        let child =
          Logic.evaluate ~memo:false
            (Reduction.remove sg ~a states).Reduction.cand
        in
        List.iter2
          (fun (s, pt) (s', ct) ->
            Alcotest.(check int) (step ^ ": signal order") s s';
            if support land (1 lsl s) = 0 then
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

(* No two states of [sg] share a code, by a scan of every pair. *)
let codes_unique sg =
  let n = Sg.n_states sg in
  let unique = ref true in
  for s = 0 to n - 1 do
    for s' = s + 1 to n - 1 do
      if Sg.code sg s = Sg.code sg s' then unique := false
    done
  done;
  !unique

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
   masks.  The USC verdict, which must not count a pruned graph's
   ghosts, is checked on both against a scan of every pair of codes. *)
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
    List.iter
      (fun (which, g) ->
        Alcotest.(check bool)
          (label ^ ": " ^ which ^ " USC verdict = pairwise scan")
          (codes_unique g) (Sg.has_usc g))
      [ ("warm", warm); ("cold", cold) ];
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

(* The cycle [small] of events over [inputs] and [outputs] beside an
   independent ring of [k] outputs (as [two_rings] in test_sg.ml). *)
let beside_ring ?(inputs = "") ~outputs small k =
  let cycle evs =
    List.map2 (fun a b -> a ^ " " ^ b) evs (List.tl evs @ [ List.hd evs ])
  in
  let edges d = List.init k (fun i -> Printf.sprintf "x%d%s" i d) in
  let names = String.concat " " (List.init k (Printf.sprintf "x%d")) in
  let marking =
    Printf.sprintf ".marking { <%s,%s> <x%d-,x0+> }"
      (List.nth small (List.length small - 1))
      (List.hd small) (k - 1)
  in
  Stg.Io.parse
    (String.concat "\n"
       ([ ".inputs " ^ inputs; ".outputs " ^ outputs ^ " " ^ names ]
       @ [ ".graph" ]
       @ cycle small
       @ cycle (edges "+" @ edges "-")
       @ [ marking; ".end"; "" ]))

(* The ring a+ a- b+ b- of two outputs, whose code 00 enables a+ in one
   state and b+ in another, beside a ring of [k] outputs: 2 + k signals,
   4 + 2k labels and one conflicting pair per state of the wide ring, 2k
   in all. *)
let conflict_beside_ring k =
  beside_ring ~outputs:"a b" [ "a+"; "a-"; "b+"; "b-" ] k

(* The same with input [i] for [b]: code 00 enables output a+ in one
   state and only the input i+ in the other, so removing a+ from the
   first state's row resolves its conflict. *)
let input_conflict_beside_ring k =
  beside_ring ~inputs:"i" ~outputs:"a" [ "a+"; "a-"; "i+"; "i-" ] k

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

(* ------------------------------------------------------------------ *)
(* The search's decisions, pinned: the [counters:] block of [astg reduce
   --metrics], plain and as a two-arm portfolio, on the paper's specs
   and the shipped specs the benchmark reduces: candidates, dedups,
   rejections, table hits, memo traffic and inherited signals. *)
let test_reduce_counters_golden () =
  let shipped f =
    (f, `File (Filename.concat (Test_roundtrip.examples_dir ()) f))
  in
  Test_obs.check_counters_golden "reduce_counters.expected" ~command:"reduce"
    ~flag_sets:[ []; [ "--portfolio"; "0.3,0.8" ] ]
    [
      ("LR", `Printed (Expansion.four_phase Specs.lr));
      ("PAR", `Printed (Expansion.four_phase Specs.par));
      ("MMU", `Printed (Expansion.four_phase Specs.mmu));
      shipped "micropipeline.g";
      shipped "ahb_master.g";
      shipped "ahb_arbiter.g";
    ]

(* ------------------------------------------------------------------ *)
(* The removal view against the built child.  On every candidate, the
   view of [sg] less [a]'s arcs out of [states] must give what the child
   built by the arc filter gives: verdict, and each check behind it on
   its own, root-arc key, state count, CSC count, ghost sequence, support
   and changed-code aggregates, the last two recomputed here from the
   child alone. *)

let exc_mask sg s =
  Sg.fold_succ sg s 0 (fun m tr _ ->
      match Stg.label (Sg.stg sg) tr with
      | Stg.Edge (sid, _) -> m lor (1 lsl sid)
      | Stg.Dummy _ -> m)

(* Support and changed-code aggregates from scratch: the rows whose
   out-degree fell, the excited bits they lost, and per code of those
   rows the OR and AND of the masks of the child's states and ghosts. *)
let built_changes sg (b : Reduction.built) =
  let child = b.Reduction.cand in
  let changed = ref [] in
  Array.iteri
    (fun s_new s ->
      if Sg.out_degree child s_new < Sg.out_degree sg s then
        changed := (s_new, s) :: !changed)
    b.Reduction.old_of_new;
  let support =
    List.fold_left
      (fun acc (s_new, s) ->
        acc lor (exc_mask sg s land lnot (exc_mask child s_new)))
      0 !changed
  in
  let codes =
    List.sort_uniq compare
      (List.map (fun (s_new, _) -> Sg.code_bits child s_new) !changed)
    |> Array.of_list
  in
  let any = Array.map (fun _ -> 0) codes in
  let all = Array.map (fun _ -> -1) codes in
  let fold c e =
    Array.iteri
      (fun j c' ->
        if c = c' then begin
          any.(j) <- any.(j) lor e;
          all.(j) <- all.(j) land e
        end)
      codes
  in
  for s = 0 to Sg.n_states child - 1 do
    fold (Sg.code_bits child s) (exc_mask child s)
  done;
  Sg.iter_ghosts child fold;
  (support, (codes, any, all))

let verdict_name = function
  | Ok _ -> "valid"
  | Error Reduction.Not_concurrent -> "not concurrent"
  | Error Reduction.Input_event -> "input event"
  | Error (Reduction.Event_vanishes _) -> "event vanishes"
  | Error (Reduction.Deadlock_introduced _) -> "deadlock introduced"
  | Error (Reduction.Persistency_broken _) -> "persistency broken"

(* Compare the view of one removal with its built child; returns the
   verdict's name. *)
let check_view step sg ~a states =
  let v =
    match Sg.View.make sg ~a states with
    | Some v -> v
    | None -> Alcotest.failf "%s: no view" step
  in
  let verdict = Reduction.judge ~source:sg v in
  let built = Reduction.remove sg ~a states in
  let reference = Reduction.validate ~source:sg built in
  let show = function
    | Ok _ -> "valid"
    | Error r -> Format.asprintf "%a" (Reduction.pp_invalid (Sg.stg sg)) r
  in
  let child = built.Reduction.cand in
  let old_of_new = built.Reduction.old_of_new in
  let eq what pp x y =
    if x <> y then
      Alcotest.failf "%s: view %s %s, built %s" step what (pp x) (pp y)
  in
  eq "verdict" Fun.id (show verdict) (show reference);
  let opt pp = function None -> "none" | Some x -> pp x in
  let lab = Stg.label_name (Sg.stg sg) in
  let fired = Array.make (Petri.n_trans (Sg.stg sg).Stg.net) false in
  Sg.iter_arcs child (fun _ tr _ -> fired.(tr) <- true);
  let vanished =
    List.find_map
      (fun (l, trs) ->
        if List.exists (fun tr -> fired.(tr)) trs then None else Some l)
      (Sg.arc_label_instances sg)
  in
  eq "vanished" (opt lab) (Sg.View.vanished v) vanished;
  let deadlock =
    List.find_opt
      (fun s_new ->
        Sg.out_degree child s_new = 0
        && Sg.out_degree sg old_of_new.(s_new) > 0)
      (Sg.states child)
    |> Option.map (fun s_new -> old_of_new.(s_new))
  in
  eq "deadlock" (opt string_of_int) (Sg.View.deadlock v) deadlock;
  eq "persistency violation"
    (opt (fun (s, l, by) -> Printf.sprintf "%d %s %s" s (lab l) (lab by)))
    (Sg.View.persistency_violation v)
    (Option.map
       (fun (s, l, by) -> (old_of_new.(s), l, by))
       (Sg.first_persistency_violation child));
  eq "root-arc key" String.escaped (Sg.View.root_arc_key v)
    (Sg.root_arc_key child);
  eq "states" string_of_int (Sg.View.n_states v) (Sg.n_states child);
  eq "csc count" string_of_int (Sg.View.csc_conflict_count v)
    (Sg.csc_conflict_count child);
  if not (Sg.ghosts_equal (Sg.View.ghosts v) (Sg.ghosts child)) then
    Alcotest.failf "%s: view ghosts differ from the child's" step;
  let support, aggregates = built_changes sg built in
  eq "support" string_of_int (Sg.View.support v) support;
  let ints a = String.concat "," (List.map string_of_int (Array.to_list a)) in
  let agg (c, x, y) =
    Printf.sprintf "codes %s any %s all %s" (ints c) (ints x) (ints y)
  in
  eq "changed aggregates" Fun.id
    (agg (Sg.View.changed_aggregates v))
    (agg aggregates);
  verdict_name (Result.map ignore reference)

(* Every FwdRed candidate of every configuration a search at the
   defaults takes as a parent (replayed by
   [Test_search.search_candidates], deduped by root-arc key as the search
   does), and [remove_arc] on every (state, non-input label) of the root,
   or with [all_arcs] of every such configuration, where each label's
   arcs also go from its whole ER at once (it vanishes, and the states it
   alone left deadlock); tallies the verdicts into [tally]. *)
let check_views_of ?(all_arcs = false) tally name sg0 =
  let _, _, _, configs =
    Test_search.search_candidates ~key:Sg.root_arc_key sg0
  in
  let count v =
    Hashtbl.replace tally v
      (1 + Option.value ~default:0 (Hashtbl.find_opt tally v))
  in
  List.iteri
    (fun i sg ->
      let stg = Sg.stg sg in
      let lab = Stg.label_name stg in
      List.iter
        (fun (x, y) ->
          List.iter
            (fun (a, b) ->
              match Reduction.fwd_red_states sg ~a ~b with
              | Error _ -> ()
              | Ok states ->
                  count
                    (check_view
                       (Printf.sprintf "%s config %d FwdRed(%s,%s)" name i
                          (lab a) (lab b))
                       sg ~a states))
            [ (x, y); (y, x) ])
        (Sg.concurrent_pairs sg);
      if all_arcs then
        List.iter
          (fun (a, _) ->
            count
              (check_view
                 (Printf.sprintf "%s config %d ER(%s)" name i (lab a))
                 sg ~a (Sg.er sg a)))
          (Sg.arc_label_instances sg);
      if all_arcs || sg == sg0 then
      for s = 0 to Sg.n_states sg - 1 do
        List.iter
          (fun a ->
            let input =
              match a with
              | Stg.Edge (sid, _) -> Stg.Signal.is_input (Stg.signal stg sid)
              | Stg.Dummy _ -> false
            in
            if not input then
              count
                (check_view
                   (Printf.sprintf "%s config %d remove_arc(%d,%s)" name i s
                      (lab a))
                   sg ~a [ s ]))
          (Sg.enabled_labels sg s)
      done)
    configs

(* A fork of two outputs with one event on one branch and two on the
   other: removing single arcs breaks it every way Def. 5.1 knows. *)
let fork_spec () =
  Stg.Io.parse
    (String.concat "\n"
       [ ".outputs a b c"; ".graph"; "c+ a+ b+"; "a+ a-"; "a- c-"; "b+ c-";
         "c- b-"; "b- c+"; ".marking { <b-,c+> }"; ".end"; "" ])

(* A free choice between two branches, each waiting on its own instance
   of [a+]: removing [a+] from its ER leaves two dead states, and the
   view must name the first in the child's order. *)
let choice_spec () =
  Stg.Io.parse
    (String.concat "\n"
       [ ".outputs a x y"; ".graph"; "p0 x+ y+"; "x+ a+/1"; "y+ a+/2";
         "a+/1 x-"; "a+/2 y-"; "x- a-/1"; "y- a-/2"; "a-/1 p0"; "a-/2 p0";
         ".marking { p0 }"; ".end"; "" ])

(* [l] outputs rising one after another, then [f] outputs rising
   concurrently, the chain falling, then the [f] falling concurrently:
   2(l + f) labels over few states, and valid reductions among the [f]. *)
let chain_and_fork l f =
  let names p k = List.init k (Printf.sprintf "%s%d" p) in
  let z = names "z" l and fs = names "f" f in
  let edges d = List.map (fun x -> x ^ d) in
  let chain xs =
    List.map2 (Printf.sprintf "%s %s")
      (List.filteri (fun i _ -> i < l - 1) xs)
      (List.tl xs)
  in
  let half d back =
    (* the chain's [d] edges in sequence, fanning out to the [f] ones,
       which all lead to [back] *)
    let zs = edges d z and ffs = edges d fs in
    chain zs
    @ [ String.concat " " (List.nth zs (l - 1) :: ffs) ]
    @ List.map (fun x -> x ^ " " ^ back) ffs
  in
  let marking =
    String.concat " " (List.map (fun x -> "<" ^ x ^ "-,z0+>") fs)
  in
  Stg.Io.parse
    (String.concat "\n"
       ([ ".outputs " ^ String.concat " " (z @ fs); ".graph" ]
       @ half "+" "z0-" @ half "-" "z0+"
       @ [ ".marking { " ^ marking ^ " }"; ".end"; "" ]))

let test_view_named () =
  let tally = Hashtbl.create 8 in
  List.iter
    (fun (name, stg) ->
      check_views_of ~all_arcs:true tally name (Gen.sg_exn stg))
    (named_specs () @ [ ("choice", choice_spec ()) ]);
  let fork = Hashtbl.create 8 in
  check_views_of ~all_arcs:true fork "fork" (Gen.sg_exn (fork_spec ()));
  List.iter
    (fun v ->
      Alcotest.(check bool) ("fork spec: some " ^ v) true (Hashtbl.mem fork v))
    [ "valid"; "event vanishes"; "deadlock introduced"; "persistency broken" ];
  (* The wide fallbacks: 18 signals take the view's sorted CSC count; the
     32-signal rings (64 labels), one with conflicts that removals
     resolve, and a chain whose reductions are valid (66 labels) have no
     label masks, so every query compares label lists.  The search agrees
     across eval modes on all four. *)
  List.iter
    (fun (name, stg, labels) ->
      let sg = Gen.sg_exn stg in
      Alcotest.(check int)
        (name ^ ": labels") labels
        (List.length (Sg.arc_label_instances sg));
      check_views_of ~all_arcs:true tally name sg;
      check_search_modes name stg)
    [
      ("18-signal ring beside a conflict", conflict_beside_ring 16, 36);
      ("32-signal ring beside a conflict", conflict_beside_ring 30, 64);
      ( "32-signal ring beside an input conflict",
        input_conflict_beside_ring 30,
        64 );
      ("33-signal chain and fork", chain_and_fork 30 3, 66);
    ]

let test_view_random () =
  let tally = Hashtbl.create 8 in
  List.iter
    (fun (family, stg_of_seed) ->
      for seed = 0 to 299 do
        check_views_of tally (Printf.sprintf "%s seed %d" family seed)
          (Gen.sg_exn (stg_of_seed seed))
      done)
    [
      ("sp", fun seed -> Gen.random_stg seed);
      ("fc", fun seed -> Gen.random_fc_stg seed);
      ("ac", Gen.random_ac_stg);
    ];
  List.iter
    (fun v ->
      Alcotest.(check bool)
        ("generated specs: some " ^ v)
        true (Hashtbl.mem tally v))
    [ "valid"; "event vanishes"; "deadlock introduced"; "persistency broken" ]

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
    Alcotest.test_case "reduce counters golden" `Quick
      test_reduce_counters_golden;
    Alcotest.test_case "removal view = built child: named specs" `Quick
      test_view_named;
    Alcotest.test_case "removal view = built child: 900 generated specs" `Slow
      test_view_random;
  ]
