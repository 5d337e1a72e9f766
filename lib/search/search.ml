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
let shared_estimate (logic : Logic.eval) sg =
  let nsig = Stg.n_signals (Sg.stg sg) in
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

(* Price an already-computed logic evaluation: the cost function of Sec. 7
   over the logic estimate and the CSC-conflict count.  [`Tree] estimates
   logic by [Logic.total] (literals, each signal an independent tree);
   [`Shared] prices the post-sharing netlist area instead, so a candidate
   whose covers share subcones is cheaper than one whose covers do not. *)
let price ~w ~area_mode logic sg applied =
  let logic_estimate =
    match area_mode with
    | `Tree -> Logic.total logic
    | `Shared -> shared_estimate logic sg
  in
  let csc_pairs = Sg.csc_conflict_count sg in
  let cost =
    (w *. float_of_int logic_estimate)
    +. ((1.0 -. w) *. csc_weight *. float_of_int csc_pairs)
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
   being reduced. *)
let keeps_protected keep_conc sg' =
  List.for_all (fun (x, y) -> Sg.concurrent sg' x y) keep_conc

(* The oriented candidate reductions FwdRed(a, b) of one SG, in the
   deterministic enumeration order every consumer relies on: concurrent
   pairs in [Sg.concurrent_pairs] order, orientation (a, b) before (b, a);
   inputs (never delayable) and Keep_Conc-protected pairs excluded.
   Shared by [neighbours] and the beam search so the two cannot drift. *)
let oriented_candidates ~keep_conc sg =
  let stg = Sg.stg sg in
  List.concat_map
    (fun (a, b) ->
      if in_keep keep_conc a b then []
      else
        (if is_input stg a then [] else [ (a, b) ])
        @ if is_input stg b then [] else [ (b, a) ])
    (Sg.concurrent_pairs sg)

(* Candidate reductions from one SG, newest first: FwdRed(a, b) for every
   oriented candidate that passes Def. 5.1 and keeps the protected pairs
   concurrent. *)
let neighbours ~keep_conc cfg =
  List.fold_left
    (fun acc (a, b) ->
      match Reduction.fwd_red cfg.sg ~a ~b with
      | Ok sg' when keeps_protected keep_conc sg' -> (sg', (a, b)) :: acc
      | Ok _ | Error _ -> acc)
    [] (oriented_candidates ~keep_conc cfg.sg)

(* Logic evaluation of the child [sg'] that a reduction built from
   [parent] (with arc-filter report [delta]), by [eval_mode].  Both modes
   produce identical evaluations (same totals, same per-signal covers),
   differing only in work: [`Scratch] re-derives and re-minimizes
   everything, [`Delta] inherits from the parent the signals the
   reduction provably left unchanged ({!Logic.estimate_delta}) and serves
   the rest from the {!Boolf.Memo} cover cache. *)
let child_logic eval_mode parent ~delta sg' =
  match eval_mode with
  | `Scratch -> Logic.evaluate ~memo:false sg'
  | `Delta -> Logic.estimate_delta ~parent:parent.logic ~delta sg'

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

(* Per-arm search state.  [applied] holds each configuration's reduction
   script in REVERSE order during the search (cons instead of an O(n)
   append per step); the outcome puts it back in application order. *)
type arm_run = {
  ar_arm : arm;
  ar_seen : (string, unit) Hashtbl.t;
  ar_initial : config;
  mutable ar_frontier : config list;
  mutable ar_best : config option;
  mutable ar_explored : int;
  mutable ar_levels : int;
  mutable ar_fanout : int list;  (* reversed; reversed back at the end *)
}

(* Identity of a candidate SG for cross-arm sharing: its root-arc [key]
   ({!Sg.root_arc_key}) plus the ghost (code, excitation-mask) sequence in
   storage order.  Two SGs with equal keys have equal logic evaluations:
   the root arcs fix the graph, hence its live per-code excitation
   aggregates, and the ghost pairs fix the pruned-state contributions.
   Ghosts are lineage-dependent (frozen at pruning time), which is why the
   root arcs alone are NOT a sound key: two arms can reach the same live
   graph along different reduction paths with different ghost sets.

   The ghost sequence is deliberately NOT canonicalized (sorted): the
   evaluation depends only on the ghost multiset, so a sequence key is
   finer than necessary and can miss a hit when two commuting reduction
   paths pile up the same ghosts in different orders — but reductions
   are deterministic, so arms walking the same lineage produce
   byte-equal sequences, which is where virtually all cross-arm overlap
   lives, and sorting would cost a sort of hundreds of pairs per accepted
   candidate. *)
let share_key key sg =
  match Sg.n_ghosts sg with
  | 0 -> key
  | n ->
      (* Raw little-endian words: the key is an equality token, not a
         rendering. *)
      let b = Buffer.create (String.length key + 1 + (16 * n)) in
      Buffer.add_string b key;
      Buffer.add_char b '\x00';
      Sg.iter_ghosts sg (fun code exc ->
          Buffer.add_int64_le b (Int64.of_int code);
          Buffer.add_int64_le b (Int64.of_int exc));
      Buffer.contents b

(* [c] merged into the cost-sorted [frontier]: after every entry that
   costs no more, then cut to [size] entries.  Merging a level's accepted
   candidates one by one this way keeps exactly the first [size] of their
   stable sort by cost, without holding the others until the level ends. *)
let insert_frontier size c frontier =
  let rec ins = function
    | e :: rest when compare e.cost c.cost <= 0 -> e :: ins rest
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
  (* Performance constraint: when both [perf_delays] and [max_cycle] are
     given, a configuration only survives if the timed replay of its SG has
     a critical cycle within the bound (reduction can only lengthen the
     cycle, so pruning early is sound for the frontier heuristic). *)
  let meets_perf sg =
    match (perf_delays, max_cycle) with
    | Some delays, Some bound -> (
        match Timing.analyze_sg ~delays sg with
        | Ok r -> r.Timing.period <= bound
        | Error _ -> false)
    | (Some _ | None), _ -> true
  in
  let table = if share then Some (Hashtbl.create 256) else None in
  let tbl_hits = ref 0 in
  let tbl_misses = ref 0 in
  (* Logic evaluation of the candidate [sg'], through the table when there
     is one: a hit skips the evaluation outright, whichever arm paid for
     it; a miss computes it exactly as a run without the table would, then
     stores it.  Sound because both eval modes produce identical
     evaluations and the key determines the value (see [share_key]), so a
     hit returns precisely what this arm would have computed.  Each lookup
     is counted, in task order, so the totals are deterministic. *)
  let child_eval parent ~delta ~key sg' =
    match table with
    | None -> child_logic eval_mode parent ~delta sg'
    | Some t -> (
        let key = share_key key sg' in
        match Hashtbl.find_opt t key with
        | Some e ->
            Obs.Counter.incr c_tbl_hit;
            incr tbl_hits;
            e
        | None ->
            let e = child_logic eval_mode parent ~delta sg' in
            Hashtbl.add t key e;
            Obs.Counter.incr c_tbl_miss;
            incr tbl_misses;
            e)
  in
  (* Evaluate one candidate FwdRed(a, b) of [cfg] for arm [r]: build, dedup
     by the root arcs it keeps against the arm's [seen] table, validate
     (Def. 5.1), price.  Returns the priced configuration when it passes
     and meets the performance bound.  Skipping validation for an
     already-seen candidate is sound because the checks are a
     deterministic function of (source, candidate).  From a deterministic
     root the key dedups exactly the candidates their signatures would
     (see {!Sg.root_arc_key}); from any other it can only keep apart
     candidates with equal signatures, never merge two that differ.  A
     valid candidate over the bound still enters [seen], but never the
     frontier. *)
  let eval_task r (cfg, a, b) =
    Obs.Counter.incr c_candidates;
    Obs.span "search.candidate" @@ fun () ->
    match Reduction.fwd_red_built cfg.sg ~a ~b with
    | Error _ ->
        Obs.Counter.incr c_rejected;
        None
    | Ok built -> (
        let key = Sg.root_arc_key built.Reduction.cand in
        if Hashtbl.mem r.ar_seen key then begin
          Obs.Counter.incr c_deduped;
          None
        end
        else
          match Reduction.validate ~source:cfg.sg built with
          | Ok sg' when keeps_protected keep_conc sg' ->
              Hashtbl.replace r.ar_seen key ();
              if meets_perf sg' then
                let logic =
                  child_eval cfg ~delta:built.Reduction.delta ~key sg'
                in
                Some
                  (price ~w:r.ar_arm.arm_w ~area_mode:r.ar_arm.arm_area logic
                     sg' ((a, b) :: cfg.applied))
              else begin
                Obs.Counter.incr c_infeasible;
                None
              end
          | Ok _ | Error _ ->
              Obs.Counter.incr c_rejected;
              None)
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
        let best = if meets_perf sg0 then Some initial else None in
        (match (on_improvement, best) with
        | Some f, Some b -> f ~arm:i b
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
     evaluate them in that order and merge each accepted one.  The
     improvement callback fires at the best-update, so its sequence is
     fixed by the task order. *)
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
        | Some cfg' ->
            Obs.Counter.incr c_accepted;
            r.ar_explored <- r.ar_explored + 1;
            (match r.ar_best with
            | Some b when cfg'.cost >= b.cost -> ()
            | Some _ | None -> (
                r.ar_best <- Some cfg';
                match on_improvement with
                | Some f -> f ~arm:i cfg'
                | None -> ()));
            frontier := insert_frontier size_frontier cfg' !frontier)
      tasks;
    r.ar_frontier <- !frontier
  in
  let live r = r.ar_frontier <> [] && r.ar_levels < max_levels in
  (* Round-robin by level until no arm has a level left. *)
  while Array.exists live runs do
    Array.iteri (fun i r -> if live r then step i r) runs
  done;
  let outcome r =
    let best, feasible =
      match r.ar_best with
      | Some b -> ({ b with applied = List.rev b.applied }, true)
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

let reduce_fully ?(w = 0.5) ?(keep_conc = []) sg0 =
  (* As in the beam search, [applied] is accumulated in reverse during the
     descent and reversed once at the end. *)
  let rec loop cfg =
    match neighbours ~keep_conc cfg with
    | [] -> cfg
    | next ->
        let best =
          List.fold_left
            (fun acc (sg', step) ->
              let c =
                { (evaluate ~w ~memo:true sg') with
                  applied = step :: cfg.applied
                }
              in
              match acc with
              | None -> Some c
              | Some b -> if c.cost < b.cost then Some c else acc)
            None next
        in
        (match best with None -> cfg | Some b -> loop b)
  in
  let final = loop { (evaluate ~w ~memo:true sg0) with applied = [] } in
  { final with applied = List.rev final.applied }
