type config = {
  sg : Sg.t;
  applied : (Stg.label * Stg.label) list;
  cost : float;
  logic_estimate : int;
  csc_pairs : int;
  logic : Logic.eval;
}

type outcome = {
  best : config;
  feasible : bool;
  initial : config;
  explored : int;
  levels : int;
  fanout : int list;
}

type keep = (Stg.label * Stg.label) list

type eval_mode = [ `Scratch | `Delta ]
type area_mode = [ `Tree | `Shared ]

(* Post-sharing area of an evaluation's covers, plus the same
   conflict-pressure term the literal estimate folds in, converted to
   area units (one 2-input gate per penalty point). *)
let shared_estimate ~nsig (logic : Logic.eval) =
  let covers =
    List.map
      (fun ps -> (ps.Logic.ps_signal, ps.Logic.ps_cover))
      logic.Logic.e_sigs
  in
  let conflicts =
    List.fold_left (fun acc ps -> acc + ps.Logic.ps_conflicts) 0
      logic.Logic.e_sigs
  in
  Netlist.shared_area ~nsig covers
  + (conflicts * logic.Logic.e_penalty * Logic.gate_cost_2input)

(* The cost of one CSC-conflicting state pair, in literals. *)
let csc_weight = 8.0

(* The cost function of Sec. 7 over an already-computed logic evaluation
   and CSC-conflict count: [(logic_estimate, cost)].  [`Tree] estimates
   logic by [Logic.total] (literals, each signal an independent tree);
   [`Shared] prices the post-sharing netlist area instead, so a candidate
   whose covers share subcones is cheaper than one whose covers do not. *)
let cost_of ~w ~area_mode ~nsig ~csc_pairs logic =
  let logic_estimate =
    match area_mode with
    | `Tree -> Logic.total logic
    | `Shared -> shared_estimate ~nsig logic
  in
  ( logic_estimate,
    (w *. float_of_int logic_estimate)
    +. ((1.0 -. w) *. csc_weight *. float_of_int csc_pairs) )

let price ~w ~area_mode logic sg applied =
  let csc_pairs = Sg.csc_conflict_count sg in
  let logic_estimate, cost =
    cost_of ~w ~area_mode ~nsig:(Stg.n_signals (Sg.stg sg)) ~csc_pairs logic
  in
  { sg; applied; cost; logic_estimate; csc_pairs; logic }

let evaluate ?(w = 0.5) ?(memo = false) ?(area_mode = `Tree) sg =
  price ~w ~area_mode (Logic.evaluate ~memo sg) sg []

let in_keep keep a b =
  List.exists (fun (x, y) -> (x = a && y = b) || (x = b && y = a)) keep

let is_input stg lab =
  match lab with
  | Stg.Edge (sigid, _) -> Stg.Signal.is_input (Stg.signal stg sigid)
  | Stg.Dummy _ -> false

(* A reduction of one pair can indirectly destroy the concurrency of a
   protected pair; enforce Keep_Conc on the result, not just on the pair
   being reduced.  The result is only built when there is a pair to
   check. *)
let keeps_protected keep_conc sg' =
  List.for_all (fun (x, y) -> Sg.concurrent (Lazy.force sg') x y) keep_conc

(* The oriented candidate reductions FwdRed(a, b) of one SG, in the
   deterministic enumeration order every consumer relies on: concurrent
   pairs in [Sg.concurrent_pairs] order, orientation (a, b) before (b, a);
   inputs (never delayable) and Keep_Conc-protected pairs excluded. *)
let oriented_candidates ~keep_conc sg =
  let stg = Sg.stg sg in
  List.concat_map
    (fun (a, b) ->
      if in_keep keep_conc a b then []
      else
        (if is_input stg a then [] else [ (a, b) ])
        @ if is_input stg b then [] else [ (b, a) ])
    (Sg.concurrent_pairs sg)

(* Phase counters (see DESIGN.md, "Observability").  Every candidate task is
   counted exactly once: [candidates] at evaluation, then one of [deduped]
   (dedup key already seen), [rejected] (build or Def. 5.1 validation
   failure), [infeasible] (valid but over the performance bound), or
   [accepted] (priced and merged into the level). *)
let c_candidates = Obs.Counter.make "search.candidates"
let c_accepted = Obs.Counter.make "search.accepted"
let c_rejected = Obs.Counter.make "search.rejected"
let c_deduped = Obs.Counter.make "search.deduped"
let c_infeasible = Obs.Counter.make "search.infeasible"
let c_levels = Obs.Counter.make "search.levels"
let c_tbl_hit = Obs.Counter.make "search.portfolio.table_hit"
let c_tbl_miss = Obs.Counter.make "search.portfolio.table_miss"
let c_arm_win = Obs.Counter.make "search.portfolio.arm_win"

type arm = { arm_w : float; arm_area : area_mode }
type arm_outcome = { arm : arm; outcome : outcome; yardstick : float }
type portfolio_stats = { table_hits : int; table_misses : int }

type portfolio_outcome = {
  arms : arm_outcome array;
  winner : int;
  stats : portfolio_stats;
}

(* An accepted candidate, priced but not yet built: forcing [p_cfg]
   builds its SG, once.  The search forces only the candidates that
   survive their level's frontier, the arms' bests and the ones an
   improvement callback is shown. *)
type pending = { p_cost : float; p_cfg : config Lazy.t }

(* Per-arm search state.  [applied] holds each configuration's reduction
   script in REVERSE order during the search (cons instead of an O(n)
   append per step); the outcome puts it back in application order. *)
type arm_run = {
  ar_arm : arm;
  ar_seen : (string, unit) Hashtbl.t;
  ar_initial : config;
  mutable ar_frontier : config list;
  mutable ar_best : pending option;
  mutable ar_explored : int;
  mutable ar_levels : int;
  mutable ar_fanout : int list;  (* reversed; reversed back at the end *)
}

(* [c] merged into the cost-sorted [frontier]: after every entry that
   costs no more, then cut to [size] entries.  Merging a level's accepted
   candidates one by one this way keeps exactly the first [size] of their
   stable sort by cost, without holding the others until the level ends. *)
let insert_frontier size c frontier =
  let rec ins = function
    | e :: rest when compare e.p_cost c.p_cost <= 0 -> e :: ins rest
    | l -> c :: l
  in
  List.filteri (fun j _ -> j < size) (ins frontier)

(* The beam search of Fig. 9 over K >= 1 [arms]: the one engine behind
   [optimize] (one arm) and [portfolio].  Each arm keeps its own dedup
   table, frontier and best; the arms take turns level by level,
   round-robin, on the calling domain, so each arm's outcome is the one it
   reaches alone.  With [share], the arms' logic evaluations go through
   one cross-arm table.  Returns the outcomes in arm order and the table's
   totals. *)
let run ?perf_delays ?max_cycle ?on_improvement ~share ~size_frontier
    ~keep_conc ~max_levels ~eval_mode arms sg0 =
  let nsig = Stg.n_signals (Sg.stg sg0) in
  (* Performance constraint: when both [perf_delays] and [max_cycle] are
     given, a configuration only survives if the timed replay of its SG has
     a critical cycle within the bound (reduction can only lengthen the
     cycle, so pruning early is sound for the frontier heuristic).  Only
     then is a candidate built to be judged. *)
  let meets_perf sg =
    match (perf_delays, max_cycle) with
    | Some delays, Some bound -> (
        match Timing.analyze_sg ~delays (Lazy.force sg) with
        | Ok r -> r.Timing.period <= bound
        | Error _ -> false)
    | (Some _ | None), _ -> true
  in
  (* The cross-arm table, keyed by a candidate's root-arc key
     ({!Sg.root_arc_key}) and its ghost fingerprint.  Two candidates with
     equal keys and equal ghost (code, excitation-mask) sequences have
     equal logic evaluations: the root arcs fix the graph, hence its live
     per-code excitation aggregates, and the ghost pairs fix the
     pruned-state contributions.  Ghosts are lineage-dependent (frozen at
     pruning time), which is why the root arcs alone are NOT a sound key:
     two arms can reach the same live graph along different reduction
     paths with different ghost sets.  A fingerprint match is confirmed
     by comparing the two sequences, so every hit is exact.

     The sequence is deliberately NOT canonicalized (sorted): the
     evaluation depends only on the ghost multiset, so a sequence key is
     finer than necessary and can miss a hit when two commuting reduction
     paths pile up the same ghosts in different orders; but reductions
     are deterministic, so arms walking the same lineage produce equal
     sequences, which is where virtually all cross-arm overlap lives. *)
  let table = if share then Some (Hashtbl.create 256) else None in
  let tbl_hits = ref 0 in
  let tbl_misses = ref 0 in
  (* Logic evaluation of a candidate, through the table when there is
     one: a hit skips the evaluation outright, whichever arm paid for it;
     a miss computes it exactly as a run without the table would, then
     stores it.  Sound because every path computes identical evaluations
     and the key determines the value, so a hit returns precisely what
     this arm would have computed.  Each lookup is counted, in task
     order, so the totals are deterministic. *)
  let child_eval ~key ghosts compute =
    match table with
    | None -> compute ()
    | Some t -> (
        let g = ghosts () in
        let k = (key, Sg.ghosts_fingerprint g) in
        match
          List.find_opt
            (fun (g', _) -> Sg.ghosts_equal g g')
            (Hashtbl.find_all t k)
        with
        | Some (_, e) ->
            Obs.Counter.incr c_tbl_hit;
            incr tbl_hits;
            e
        | None ->
            let e = compute () in
            Hashtbl.add t k (g, e);
            Obs.Counter.incr c_tbl_miss;
            incr tbl_misses;
            e)
  in
  (* Evaluate one candidate FwdRed(a, b) of [cfg] for arm [r]: dedup by
     the root arcs it keeps against the arm's [seen] table, validate
     (Def. 5.1), price.  Returns the priced candidate when it passes and
     meets the performance bound.  Skipping validation for an
     already-seen candidate is sound because the checks are a
     deterministic function of (source, candidate).  From a deterministic
     root the key dedups exactly the candidates their signatures would
     (see {!Sg.root_arc_key}); from any other it can only keep apart
     candidates with equal signatures, never merge two that differ.  A
     valid candidate over the bound still enters [seen], but never the
     frontier.

     In [`Delta] mode every step runs on a removal view of [cfg]'s SG
     ({!Sg.View}) and the candidate is built only when it is forced
     (Keep_Conc, a performance bound, or a place in the search);
     [`Scratch] builds every candidate and evaluates it from scratch, as
     do graphs with no view (past 62 signals), with the memoized
     minimizer in [`Delta] mode. *)
  let eval_task r (cfg, a, b) =
    Obs.Counter.incr c_candidates;
    Obs.span "search.candidate" @@ fun () ->
    let reject () =
      Obs.Counter.incr c_rejected;
      None
    in
    let unseen key =
      if Hashtbl.mem r.ar_seen key then begin
        Obs.Counter.incr c_deduped;
        false
      end
      else true
    in
    let accept ~key sg' ~ghosts ~logic ~csc_pairs =
      if not (keeps_protected keep_conc sg') then reject ()
      else begin
        Hashtbl.replace r.ar_seen key ();
        if meets_perf sg' then begin
          let logic = child_eval ~key ghosts logic in
          let csc_pairs = csc_pairs () in
          let applied = (a, b) :: cfg.applied in
          let logic_estimate, cost =
            cost_of ~w:r.ar_arm.arm_w ~area_mode:r.ar_arm.arm_area ~nsig
              ~csc_pairs logic
          in
          Some
            {
              p_cost = cost;
              p_cfg =
                lazy
                  {
                    sg = Lazy.force sg';
                    applied;
                    cost;
                    logic_estimate;
                    csc_pairs;
                    logic;
                  };
            }
        end
        else begin
          Obs.Counter.incr c_infeasible;
          None
        end
      end
    in
    match Reduction.fwd_red_states cfg.sg ~a ~b with
    | Error _ -> reject ()
    | Ok states -> (
        let view =
          match eval_mode with
          | `Delta -> Sg.View.make cfg.sg ~a states
          | `Scratch -> None
        in
        match view with
        | Some v -> (
            let key = Sg.View.root_arc_key v in
            if not (unseen key) then None
            else
              match Reduction.judge ~source:cfg.sg v with
              | Error _ -> reject ()
              | Ok () ->
                  accept ~key
                    (lazy (Reduction.remove cfg.sg ~a states).Reduction.cand)
                    ~ghosts:(fun () -> Sg.View.ghosts v)
                    ~logic:(fun () -> Logic.estimate_delta ~parent:cfg.logic v)
                    ~csc_pairs:(fun () -> Sg.View.csc_conflict_count v))
        | None -> (
            let built = Reduction.remove cfg.sg ~a states in
            let key = Sg.root_arc_key built.Reduction.cand in
            if not (unseen key) then None
            else
              match Reduction.validate ~source:cfg.sg built with
              | Error _ -> reject ()
              | Ok sg' ->
                  accept ~key (Lazy.from_val sg')
                    ~ghosts:(fun () -> Sg.ghosts sg')
                    ~logic:(fun () ->
                      Logic.evaluate ~memo:(eval_mode <> `Scratch) sg')
                    ~csc_pairs:(fun () -> Sg.csc_conflict_count sg')))
  in
  let runs =
    Array.mapi
      (fun i arm ->
        let initial =
          price ~w:arm.arm_w ~area_mode:arm.arm_area
            (Logic.evaluate ~memo:(eval_mode <> `Scratch) sg0)
            sg0 []
        in
        let seen = Hashtbl.create 64 in
        Hashtbl.replace seen (Sg.root_arc_key sg0) ();
        let best =
          if meets_perf (Lazy.from_val sg0) then
            Some { p_cost = initial.cost; p_cfg = Lazy.from_val initial }
          else None
        in
        (match (on_improvement, best) with
        | Some f, Some _ -> f ~arm:i initial
        | _ -> ());
        {
          ar_arm = arm;
          ar_seen = seen;
          ar_initial = initial;
          ar_frontier = [ initial ];
          ar_best = best;
          ar_explored = 1;
          ar_levels = 0;
          ar_fanout = [];
        })
      arms
  in
  (* One level of arm [i]: enumerate the tasks deterministically (frontier
     configurations in rank order, then [oriented_candidates] order),
     evaluate them in that order and merge each accepted one; then build
     the frontier's survivors, the next level's parents.  The improvement
     callback fires at the best-update, so its sequence is fixed by the
     task order. *)
  let step i r =
    r.ar_levels <- r.ar_levels + 1;
    Obs.Counter.incr c_levels;
    let tasks =
      List.concat_map
        (fun cfg ->
          List.map
            (fun (a, b) -> (cfg, a, b))
            (oriented_candidates ~keep_conc cfg.sg))
        r.ar_frontier
    in
    r.ar_fanout <- List.length tasks :: r.ar_fanout;
    Obs.span "search.level" @@ fun () ->
    let frontier = ref [] in
    List.iter
      (fun task ->
        match eval_task r task with
        | None -> ()
        | Some p ->
            Obs.Counter.incr c_accepted;
            r.ar_explored <- r.ar_explored + 1;
            (match r.ar_best with
            | Some b when p.p_cost >= b.p_cost -> ()
            | Some _ | None -> (
                r.ar_best <- Some p;
                match on_improvement with
                | Some f -> f ~arm:i (Lazy.force p.p_cfg)
                | None -> ()));
            frontier := insert_frontier size_frontier p !frontier)
      tasks;
    r.ar_frontier <- List.map (fun p -> Lazy.force p.p_cfg) !frontier
  in
  let live r = r.ar_frontier <> [] && r.ar_levels < max_levels in
  (* Round-robin by level until no arm has a level left. *)
  while Array.exists live runs do
    Array.iteri (fun i r -> if live r then step i r) runs
  done;
  let outcome r =
    let best, feasible =
      match r.ar_best with
      | Some b ->
          let b = Lazy.force b.p_cfg in
          ({ b with applied = List.rev b.applied }, true)
      | None -> (r.ar_initial, false)
    in
    {
      best;
      feasible;
      initial = r.ar_initial;
      explored = r.ar_explored;
      levels = r.ar_levels;
      fanout = List.rev r.ar_fanout;
    }
  in
  ( Array.map outcome runs,
    { table_hits = !tbl_hits; table_misses = !tbl_misses } )

let optimize ?(w = 0.5) ?(size_frontier = 4) ?(keep_conc = [])
    ?(max_levels = max_int) ?perf_delays ?max_cycle ?(eval_mode = `Delta)
    ?(area_mode = `Tree) sg0 =
  Obs.span "search.optimize" @@ fun () ->
  let outcomes, _ =
    run ?perf_delays ?max_cycle ~share:false ~size_frontier ~keep_conc
      ~max_levels ~eval_mode
      [| { arm_w = w; arm_area = area_mode } |]
      sg0
  in
  outcomes.(0)

let portfolio ?(size_frontier = 4) ?(keep_conc = [])
    ?(max_levels = max_int) ?perf_delays ?max_cycle ?(eval_mode = `Delta)
    ?on_improvement ~arms sg0 =
  if arms = [] then invalid_arg "Search.portfolio: empty arm list";
  Obs.span "search.portfolio" @@ fun () ->
  let arms = Array.of_list arms in
  let outcomes, stats =
    run ?perf_delays ?max_cycle ?on_improvement ~share:true
      ~size_frontier ~keep_conc ~max_levels ~eval_mode arms sg0
  in
  (* Cross-arm yardstick: arms priced under different weights or area
     models have incomparable [cost]s, so the winner is chosen under one
     fixed neutral objective — the default tree pricing at w = 0.5. *)
  let yardstick (o : outcome) =
    (0.5 *. float_of_int (Logic.total o.best.logic))
    +. (0.5 *. csc_weight *. float_of_int o.best.csc_pairs)
  in
  let winner = ref 0 in
  Array.iteri
    (fun i o ->
      if i > 0 then begin
        let w0 = outcomes.(!winner) in
        let better =
          if o.feasible <> w0.feasible then o.feasible
          else yardstick o < yardstick w0
        in
        if better then winner := i
      end)
    outcomes;
  Obs.Counter.incr c_arm_win;
  {
    arms =
      Array.mapi
        (fun i o -> { arm = arms.(i); outcome = o; yardstick = yardstick o })
        outcomes;
    winner = !winner;
    stats;
  }

let apply_script sg script =
  let step (sg, done_) (a, b) =
    match Reduction.fwd_red sg ~a ~b with
    | Ok sg' -> (sg', (a, b) :: done_)
    | Error _ -> (sg, done_)
  in
  let sg, done_ = List.fold_left step (sg, []) script in
  (sg, List.rev done_)
