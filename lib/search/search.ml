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

(* Price an already-computed logic evaluation: the cost function of Sec. 7
   over the logic estimate and the CSC-conflict count.  [`Tree] estimates
   logic by [Logic.total] (literals, each signal an independent tree);
   [`Shared] prices the post-sharing netlist area instead, so a candidate
   whose covers share subcones is cheaper than one whose covers do not. *)
let price ~w ~csc_weight ~area_mode logic sg applied =
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

let evaluate ?(w = 0.5) ?(csc_weight = 8.0) ?(memo = false)
    ?(area_mode = `Tree) sg =
  price ~w ~csc_weight ~area_mode (Logic.evaluate ~memo sg) sg []

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
   Shared by [neighbours] and [optimize] so the two paths cannot drift. *)
let oriented_candidates ~keep_conc sg =
  let stg = Sg.stg sg in
  List.concat_map
    (fun (a, b) ->
      if in_keep keep_conc a b then []
      else
        (if is_input stg a then [] else [ (a, b) ])
        @ if is_input stg b then [] else [ (b, a) ])
    (Sg.concurrent_pairs sg)

(* Candidate reductions from one SG: FwdRed(a, b) for every oriented
   candidate.  [skip], given the built-but-unvalidated candidate SG, says
   it is already known (the search passes its signature dedup): a skipped
   candidate is dropped without paying for the Def. 5.1 validity checks.
   Sound because checks are a deterministic function of (source,
   candidate) — a candidate can only be "seen" if an identical one was
   already processed. *)
let neighbours ?(keep_conc = []) ?(skip = fun _ -> false) cfg =
  let sg = cfg.sg in
  let try_one acc (a, b) =
    match Reduction.fwd_red_built sg ~a ~b with
    | Error _ -> acc
    | Ok built -> (
        if skip built.Reduction.cand then acc
        else
          match Reduction.validate ~source:sg built with
          | Ok sg' when keeps_protected keep_conc sg' -> (sg', (a, b)) :: acc
          | Ok _ | Error _ -> acc)
  in
  List.fold_left try_one [] (oriented_candidates ~keep_conc sg)

(* Logic evaluation of the child [sg'] that FwdRed(a, _) built from
   [parent] (with arc-filter report [delta]), by [eval_mode].  Both modes
   produce identical evaluations (same totals, same per-signal covers),
   differing only in work: [`Scratch] re-derives and re-minimizes
   everything, [`Delta] inherits from the parent the signals the
   reduction provably left unchanged ({!Logic.estimate_delta}) and serves
   the rest from the {!Boolf.Memo} cover cache. *)
let child_logic eval_mode parent ~a ~delta sg' =
  match eval_mode with
  | `Scratch -> Logic.evaluate ~memo:false sg'
  | `Delta -> Logic.estimate_delta ~parent:parent.logic ~dropped:a ~delta sg'

(* Worker-side verdict on one candidate task.  [Cand] with [cfg = None]
   marks a candidate that passed Def. 5.1 but failed the performance bound:
   its signature must still enter the dedup table (as in the sequential
   search), but it never joins the frontier.  [optimize] carries the
   priced [config]; the portfolio carries it with its cross-arm table key. *)
type 'c verdict =
  | Dropped
  | Cand of { signature : string; cfg : 'c option }

(* Phase counters (see DESIGN.md, "Observability").  Every candidate task is
   counted exactly once: [candidates] at evaluation, then one of [deduped]
   (signature already seen), [rejected] (build or Def. 5.1 validation
   failure), [infeasible] (valid but over the performance bound), or
   [accepted] (joined the frontier at merge). *)
let c_candidates = Obs.Counter.make "search.candidates"
let c_accepted = Obs.Counter.make "search.accepted"
let c_rejected = Obs.Counter.make "search.rejected"
let c_deduped = Obs.Counter.make "search.deduped"
let c_infeasible = Obs.Counter.make "search.infeasible"
let c_levels = Obs.Counter.make "search.levels"

(* Candidate tasks executed by pool workers rather than the searching
   domain (0 in sequential runs and on the sequential backend). *)
let c_steal = Obs.Counter.make "search.steal"

let optimize ?pool ?(w = 0.5) ?(size_frontier = 4) ?(keep_conc = [])
    ?(max_levels = max_int) ?(csc_weight = 8.0) ?perf_delays ?max_cycle
    ?(eval_mode = `Delta) ?(area_mode = `Tree) sg0 =
  Obs.span "search.optimize" @@ fun () ->
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
  (* During the search, [applied] holds the reduction script in REVERSE
     order (cons instead of O(n) append per step); it is put back in
     application order when the outcome is materialized. *)
  let eval_child parent ~a ~delta sg' applied_rev =
    price ~w ~csc_weight ~area_mode
      (child_logic eval_mode parent ~a ~delta sg')
      sg' applied_rev
  in
  let initial =
    price ~w ~csc_weight ~area_mode
      (Logic.evaluate ~memo:(eval_mode <> `Scratch) sg0)
      sg0 []
  in
  let seen = Hashtbl.create 64 in
  Hashtbl.replace seen (Sg.signature sg0) ();
  let explored = ref 1 in
  let best = ref (if meets_perf sg0 then Some initial else None) in
  let frontier = ref [ initial ] in
  let levels = ref 0 in
  let fanout = ref [] in
  (* One streaming session spans the whole search: workers go into
     job-draining mode once and never re-park between beam levels.  The
     caller merges each level in task order (determinism) while later
     tasks of the same level still evaluate on the workers — the
     [map_array] end-of-batch barrier is gone. *)
  let session =
    match pool with
    | Some p when Pool.jobs p > 1 -> Some (Pool.Stream.start p)
    | Some _ | None -> None
  in
  let parallel = Option.is_some session in
  (* Evaluate one candidate FwdRed(a, b) of [cfg]: build, dedup by
     signature against [tbl], validate (Def. 5.1), price.  Sequentially
     [tbl] is the live [seen] table; during a streamed level it is a
     level-start snapshot (the caller mutates [seen] while workers run),
     so the dedup read is race-free and intra-level duplicates are left
     for the merge to drop.  Skipping validation for an already-seen
     candidate is sound because the checks are a deterministic function
     of (source, candidate). *)
  let eval_task tbl (cfg, a, b) =
    Obs.Counter.incr c_candidates;
    Obs.span "search.candidate" @@ fun () ->
    match Reduction.fwd_red_built cfg.sg ~a ~b with
    | Error _ ->
        Obs.Counter.incr c_rejected;
        Dropped
    | Ok built -> (
        let key = Sg.signature built.Reduction.cand in
        if Hashtbl.mem tbl key then begin
          Obs.Counter.incr c_deduped;
          Dropped
        end
        else
          match Reduction.validate ~source:cfg.sg built with
          | Ok sg' when keeps_protected keep_conc sg' ->
              let cfg' =
                if meets_perf sg' then
                  Some
                    (eval_child cfg ~a ~delta:built.Reduction.delta sg'
                       ((a, b) :: cfg.applied))
                else begin
                  Obs.Counter.incr c_infeasible;
                  None
                end
              in
              Cand { signature = key; cfg = cfg' }
          | Ok _ | Error _ ->
              Obs.Counter.incr c_rejected;
              Dropped)
  in
  let run_levels () =
  while !frontier <> [] && !levels < max_levels do
    incr levels;
    Obs.Counter.incr c_levels;
    (* Raw begin/end (no closure on the search's outer loop); nothing in
       the level body raises, so the pair always closes. *)
    Obs.span_begin "search.level";
    (* Deterministic task enumeration: frontier configurations in rank
       order, then [oriented_candidates] order.  The merge below processes
       verdicts in exactly this order, so parallel and sequential runs are
       byte-identical. *)
    let tasks =
      List.concat_map
        (fun cfg ->
          (* Freeze the shared caches of a parent before its candidates fan
             out across domains; workers then only read them. *)
          if parallel then Sg.force_analyses cfg.sg;
          List.map
            (fun (a, b) -> (cfg, a, b))
            (oriented_candidates ~keep_conc cfg.sg))
        !frontier
      |> Array.of_list
    in
    fanout := Array.length tasks :: !fanout;
    let merged = ref [] in
    let merge verdict =
      match verdict with
      | Dropped -> ()
      | Cand { signature = key; cfg } ->
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.replace seen key ();
            match cfg with
            | None -> ()
            | Some cfg' ->
                Obs.Counter.incr c_accepted;
                incr explored;
                (match !best with
                | Some b when cfg'.cost >= b.cost -> ()
                | Some _ | None -> best := Some cfg');
                merged := cfg' :: !merged
          end
          else
            (* Streamed intra-level duplicate: the worker only saw the
               level-start snapshot, so the merge is the first to notice.
               Keeps the one-count-per-candidate invariant in line with
               sequential runs (unreachable sequentially: [eval_task]
               checked the live table just before). *)
            Obs.Counter.incr c_deduped
    in
    (match session with
    | Some s ->
        (* Streamed level: submit every task, then merge in task order,
           helping with unfinished tasks while waiting.  Results are
           published by plain slot write then [Atomic.set] on the task's
           flag; the merge of task [i] overlaps the evaluation of tasks
           [> i].  [err] mirrors [Pool.map_array]'s drain-then-reraise
           exception contract. *)
        let n = Array.length tasks in
        let snapshot = Hashtbl.copy seen in
        let slots = Array.make n Dropped in
        let flags = Array.init n (fun _ -> Atomic.make false) in
        let err = Atomic.make None in
        Array.iteri
          (fun i t ->
            Pool.Stream.submit s (fun () ->
                (try slots.(i) <- eval_task snapshot t
                 with e ->
                   ignore (Atomic.compare_and_set err None (Some e)));
                Atomic.set flags.(i) true))
          tasks;
        for i = 0 to n - 1 do
          Pool.Stream.wait s (fun () -> Atomic.get flags.(i));
          merge slots.(i)
        done;
        (match Atomic.get err with Some e -> raise e | None -> ())
    | None ->
        (* Sequential: interleave evaluation and merge so intra-level
           duplicates skip validation via the live [seen] table (the PR 1
           dedup-before-validate optimization).  Outcome-equivalent to the
           streamed path: the extra skips only avoid recomputing verdicts
           the merge would discard anyway. *)
        Array.iter (fun t -> merge (eval_task seen t)) tasks);
    let sorted =
      List.stable_sort
        (fun c1 c2 -> compare c1.cost c2.cost)
        (List.rev !merged)
    in
    frontier := List.filteri (fun i _ -> i < size_frontier) sorted;
    Obs.span_end "search.level"
  done
  in
  (match session with
  | Some s ->
      Fun.protect run_levels ~finally:(fun () ->
          Pool.Stream.finish s;
          let k = Pool.Stream.stolen s in
          if k > 0 then Obs.Counter.add c_steal k)
  | None -> run_levels ());
  let best, feasible =
    match !best with
    | Some b -> ({ b with applied = List.rev b.applied }, true)
    | None -> (initial, false)
  in
  {
    best;
    feasible;
    initial;
    explored = !explored;
    levels = !levels;
    fanout = List.rev !fanout;
  }

(* ------------------------------------------------------------------ *)
(* Portfolio search: K arms (distinct weights and/or area models) over
   one long-lived Stream session, sharing one cross-arm signature table.
   Each arm is byte-identical to its standalone single-arm [optimize]
   run; the per-level machinery below deliberately mirrors [optimize]'s —
   any change there must be reflected here (the portfolio differential
   suites hold the two to that promise). *)

type arm = { arm_w : float; arm_area : area_mode }
type arm_outcome = { arm : arm; outcome : outcome; yardstick : float }
type portfolio_stats = { table_hits : int; table_misses : int }

type portfolio_outcome = {
  arms : arm_outcome array;
  winner : int;
  stats : portfolio_stats;
}

(* An entry of the shared signature table: the logic evaluation of one
   candidate SG, plus whether the caller has already counted a lookup of
   its key (see the accounting in [portfolio]).  Workers only read
   [te_eval]; [te_counted] is read and written by the caller alone. *)
type table_entry = { te_eval : Logic.eval; mutable te_counted : bool }

(* A portfolio candidate's verdict: the priced configuration together
   with its table entry, which the merge needs for the table accounting. *)
type pverdict = (config * table_entry) verdict

(* Per-arm mutable search state, plus the in-flight level (submitted but
   not yet merged) on the pooled path. *)
type arm_run = {
  ar_arm : arm;
  ar_seen : (string, unit) Hashtbl.t;
  ar_initial : config;
  mutable ar_frontier : config list;
  mutable ar_best : config option;
  mutable ar_explored : int;
  mutable ar_levels : int;
  mutable ar_fanout : int list;  (* reversed; reversed back at the end *)
  mutable ar_inflight : level_inflight option;
}

and level_inflight = {
  li_slots : pverdict array;
  li_flags : bool Atomic.t array;
  li_err : exn option Atomic.t;
}

let c_tbl_hit = Obs.Counter.make "search.portfolio.table_hit"
let c_tbl_miss = Obs.Counter.make "search.portfolio.table_miss"
let c_arm_win = Obs.Counter.make "search.portfolio.arm_win"

(* Identity of a candidate SG for cross-arm sharing: the label-level
   signature plus the ghost (code, excitation-mask) sequence in storage
   order.  Two SGs with equal keys have equal logic evaluations: the
   signature fixes the live per-code excitation aggregates
   (label-bisimilar SGs derived from the same root carry the same
   codes), and the ghost pairs fix the pruned-state contributions.
   Ghosts are lineage-dependent (frozen at pruning time), which is why
   the signature alone is NOT a sound key: two arms can reach the same
   live graph along different reduction paths with different ghost sets.

   The ghost sequence is deliberately NOT canonicalized (sorted): the
   evaluation depends only on the ghost multiset, so a sequence key is
   finer than necessary and can miss a hit when two commuting reduction
   paths pile up the same ghosts in different orders — but reductions
   are deterministic, so arms walking the same lineage produce
   byte-equal sequences, which is where virtually all cross-arm overlap
   lives (measured on the MMU: sorting recovers 1 extra hit in 493
   while costing more than every other part of the key put together,
   having to sort hundreds of pairs per accepted candidate). *)
let share_key sg =
  let signature = Sg.signature sg in
  match Sg.n_ghosts sg with
  | 0 -> signature
  | n ->
      (* Raw little-endian words: the key is an equality token, not a
         rendering. *)
      let b = Buffer.create (String.length signature + 1 + (16 * n)) in
      Buffer.add_string b signature;
      Buffer.add_char b '\x00';
      Sg.iter_ghosts sg (fun code exc ->
          Buffer.add_int64_le b (Int64.of_int code);
          Buffer.add_int64_le b (Int64.of_int exc));
      Buffer.contents b

let portfolio ?pool ?(size_frontier = 4) ?(keep_conc = [])
    ?(max_levels = max_int) ?(csc_weight = 8.0) ?perf_delays ?max_cycle
    ?(eval_mode = `Delta) ?on_improvement ~arms sg0 =
  if arms = [] then invalid_arg "Search.portfolio: empty arm list";
  Obs.span "search.portfolio" @@ fun () ->
  let arms = Array.of_list arms in
  let meets_perf sg =
    match (perf_delays, max_cycle) with
    | Some delays, Some bound -> (
        match Timing.analyze_sg ~delays sg with
        | Ok r -> r.Timing.period <= bound
        | Error _ -> false)
    | (Some _ | None), _ -> true
  in
  let session =
    match pool with
    | Some p when Pool.jobs p > 1 -> Some (Pool.Stream.start p)
    | Some _ | None -> None
  in
  let parallel = Option.is_some session in
  let table : table_entry Pool.Smemo.t = Pool.Smemo.create () in
  (* Logic evaluation of one candidate through the shared table: a hit
     skips the evaluation outright, whichever arm paid for it; a miss
     computes it exactly as the arm's standalone run would, then
     publishes.  Sound because both eval modes produce identical
     evaluations and the key determines the value (see [share_key]), so
     a hit returns precisely what this arm would have computed — hence
     per-arm byte-identity survives sharing.  A worker that loses a
     publish race returns the winner's entry, so each key has exactly one
     entry. *)
  let lookup parent ~a ~delta ~key sg' =
    match Pool.Smemo.find table key with
    | Some e -> e
    | None -> (
        let e =
          {
            te_eval = child_logic eval_mode parent ~a ~delta sg';
            te_counted = false;
          }
        in
        if Pool.Smemo.publish table key e then e
        else
          match Pool.Smemo.find table key with
          | Some winner -> winner
          | None -> assert false (* entries are never removed *))
  in
  (* The table's hit/miss accounting, kept on the caller at merge time so
     that it does not depend on how the pool's domains interleave: every
     merged candidate that the sequential path looks up (unseen by its
     arm, valid, within the performance bound) counts once, as a hit iff
     an earlier counted candidate had the same key, i.e. the same entry.
     Sequentially this is exactly what the table saw; pooled, the
     workers' lookups race (and also cover intra-level duplicates the
     merge then drops), but the printed numbers stay the sequential ones.
     The mark lives on the entry because the keys run to kilobytes: a
     second, caller-side set of them spent 4% of a sequential MMU
     portfolio on hashing alone (3 of 72 ms on a 2-vCPU host). *)
  let tbl_hits = ref 0 in
  let tbl_misses = ref 0 in
  let count_lookup e =
    if e.te_counted then begin
      Obs.Counter.incr c_tbl_hit;
      incr tbl_hits
    end
    else begin
      e.te_counted <- true;
      Obs.Counter.incr c_tbl_miss;
      incr tbl_misses
    end
  in
  (* Worker-side candidate evaluation — [optimize]'s [eval_task] with the
     shared-table lookup spliced into the pricing step.  The dedup key
     stays the per-arm signature (the table key is only needed for
     candidates that survive validation and the performance bound). *)
  let eval_task ~arm tbl (cfg, a, b) : pverdict =
    Obs.Counter.incr c_candidates;
    Obs.span "search.candidate" @@ fun () ->
    match Reduction.fwd_red_built cfg.sg ~a ~b with
    | Error _ ->
        Obs.Counter.incr c_rejected;
        Dropped
    | Ok built -> (
        let key = Sg.signature built.Reduction.cand in
        if Hashtbl.mem tbl key then begin
          Obs.Counter.incr c_deduped;
          Dropped
        end
        else
          match Reduction.validate ~source:cfg.sg built with
          | Ok sg' when keeps_protected keep_conc sg' ->
              let cfg' =
                if meets_perf sg' then begin
                  let e =
                    lookup cfg ~a ~delta:built.Reduction.delta
                      ~key:(share_key sg') sg'
                  in
                  Some
                    ( price ~w:arm.arm_w ~csc_weight ~area_mode:arm.arm_area
                        e.te_eval sg'
                        ((a, b) :: cfg.applied),
                      e )
                end
                else begin
                  Obs.Counter.incr c_infeasible;
                  None
                end
              in
              Cand { signature = key; cfg = cfg' }
          | Ok _ | Error _ ->
              Obs.Counter.incr c_rejected;
              Dropped)
  in
  let runs =
    Array.mapi
      (fun i arm ->
        let initial =
          price ~w:arm.arm_w ~csc_weight ~area_mode:arm.arm_area
            (Logic.evaluate ~memo:(eval_mode <> `Scratch) sg0)
            sg0 []
        in
        let seen = Hashtbl.create 64 in
        Hashtbl.replace seen (Sg.signature sg0) ();
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
          ar_inflight = None;
        })
      arms
  in
  (* Merge one verdict into arm [i], exactly as [optimize]'s merge; the
     improvement callback fires at the best-update and the table lookup
     is counted here, so both sequences are fixed by the deterministic
     merge order. *)
  let merge_verdict i r merged (verdict : pverdict) =
    match verdict with
    | Dropped -> ()
    | Cand { signature = key; cfg } ->
        if not (Hashtbl.mem r.ar_seen key) then begin
          Hashtbl.replace r.ar_seen key ();
          match cfg with
          | None -> ()
          | Some (cfg', e) ->
              count_lookup e;
              Obs.Counter.incr c_accepted;
              r.ar_explored <- r.ar_explored + 1;
              (match r.ar_best with
              | Some b when cfg'.cost >= b.cost -> ()
              | Some _ | None ->
                  r.ar_best <- Some cfg';
                  (match on_improvement with
                  | Some f -> f ~arm:i cfg'
                  | None -> ()));
              merged := cfg' :: !merged
        end
        else Obs.Counter.incr c_deduped
  in
  let next_frontier r merged =
    let sorted =
      List.stable_sort (fun c1 c2 -> compare c1.cost c2.cost) (List.rev merged)
    in
    r.ar_frontier <- List.filteri (fun j _ -> j < size_frontier) sorted
  in
  (* Start arm [r]'s next level: bump the level count, enumerate the
     deterministic task array (as in [optimize]: frontier rank order,
     then [oriented_candidates] order), record the fanout. *)
  let level_tasks r =
    r.ar_levels <- r.ar_levels + 1;
    Obs.Counter.incr c_levels;
    let tasks =
      List.concat_map
        (fun cfg ->
          if parallel then Sg.force_analyses cfg.sg;
          List.map
            (fun (a, b) -> (cfg, a, b))
            (oriented_candidates ~keep_conc cfg.sg))
        r.ar_frontier
      |> Array.of_list
    in
    r.ar_fanout <- Array.length tasks :: r.ar_fanout;
    tasks
  in
  (* Pooled driver: keep one level per arm in flight, serviced round-robin
     by the caller.  Submitting arm [k+1]'s level before merging arm [k]'s
     keeps every worker busy across arms; all merges stay on the caller in
     a deterministic order, so the anytime stream is reproducible. *)
  let submit_level s r =
    if r.ar_frontier <> [] && r.ar_levels < max_levels then begin
      let tasks = level_tasks r in
      let n = Array.length tasks in
      let snapshot = Hashtbl.copy r.ar_seen in
      let slots = Array.make n Dropped in
      let flags = Array.init n (fun _ -> Atomic.make false) in
      let err = Atomic.make None in
      let arm = r.ar_arm in
      Array.iteri
        (fun j t ->
          Pool.Stream.submit s (fun () ->
              (try slots.(j) <- eval_task ~arm snapshot t
               with e -> ignore (Atomic.compare_and_set err None (Some e)));
              Atomic.set flags.(j) true))
        tasks;
      r.ar_inflight <- Some { li_slots = slots; li_flags = flags; li_err = err }
    end
  in
  let merge_level s i r =
    match r.ar_inflight with
    | None -> ()
    | Some li ->
        r.ar_inflight <- None;
        let merged = ref [] in
        Array.iteri
          (fun j flag ->
            Pool.Stream.wait s (fun () -> Atomic.get flag);
            merge_verdict i r merged li.li_slots.(j))
          li.li_flags;
        (match Atomic.get li.li_err with Some e -> raise e | None -> ());
        next_frontier r !merged
  in
  let run_pooled s =
    Array.iter (fun r -> submit_level s r) runs;
    while Array.exists (fun r -> Option.is_some r.ar_inflight) runs do
      Array.iteri
        (fun i r ->
          if Option.is_some r.ar_inflight then begin
            merge_level s i r;
            submit_level s r
          end)
        runs
    done
  in
  (* Sequential driver: the same round-robin by level, with [optimize]'s
     live-table merge (evaluation and merge interleaved) per arm level.
     Cross-arm sharing still pays off — the table is weight-independent,
     and early levels of different arms overlap heavily. *)
  let run_seq () =
    let progressed = ref true in
    while !progressed do
      progressed := false;
      Array.iteri
        (fun i r ->
          if r.ar_frontier <> [] && r.ar_levels < max_levels then begin
            progressed := true;
            let tasks = level_tasks r in
            let merged = ref [] in
            Array.iter
              (fun t ->
                merge_verdict i r merged (eval_task ~arm:r.ar_arm r.ar_seen t))
              tasks;
            next_frontier r !merged
          end)
        runs
    done
  in
  (match session with
  | Some s ->
      Fun.protect
        (fun () -> run_pooled s)
        ~finally:(fun () ->
          Pool.Stream.finish s;
          let k = Pool.Stream.stolen s in
          if k > 0 then Obs.Counter.add c_steal k)
  | None -> run_seq ());
  let outcomes =
    Array.map
      (fun r ->
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
        })
      runs
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
    stats = { table_hits = !tbl_hits; table_misses = !tbl_misses };
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
  (* As in [optimize], [applied] is accumulated in reverse during the
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
