(** The concurrency-reduction optimizer of Fig. 9: a frontier (beam) search
    over state graphs.  At each level, every surviving SG spawns one
    neighbour per applicable forward reduction; the [size_frontier] cheapest
    neighbours survive.  The search is monotone (each level is strictly less
    concurrent), hence terminating.

    The cost function (Sec. 7) combines estimated logic complexity and CSC
    conflicts: [cost = w * logic + (1 - w) * 8 * csc_pairs], one
    conflicting state pair weighing as much as eight literals.

    One engine runs every search, on the calling domain: {!optimize} is a
    portfolio of one arm without the cross-arm table, and {!portfolio}
    runs K arms with it. *)

type config = {
  sg : Sg.t;
  applied : (Stg.label * Stg.label) list;
      (** reductions applied, in order: [(a, b)] means FwdRed(a, b) *)
  cost : float;
  logic_estimate : int;
  csc_pairs : int;
  logic : Logic.eval;
      (** the full logic evaluation behind [logic_estimate] — the parent
          input of {!Logic.estimate_delta} when the search derives this
          configuration's children *)
}

type outcome = {
  best : config;  (** cheapest configuration found anywhere *)
  feasible : bool;
      (** [best] meets the performance bound.  [false] only when a
          [max_cycle] bound was given and NO explored configuration
          (including the initial one) satisfied it; [best] then falls back
          to [initial] and violates the bound — callers must check this
          flag before trusting [best]. *)
  initial : config;  (** the starting point, for before/after reporting *)
  explored : int;  (** number of distinct SGs evaluated *)
  levels : int;  (** depth of the search *)
  fanout : int list;
      (** candidate reductions enumerated per level, in level order (before
          dedup/validation) *)
}

(** Pairs of labels whose concurrency must be preserved (the designer's
    [Keep_Conc] input).  Pairs are unordered. *)
type keep = (Stg.label * Stg.label) list

(** How candidate configurations are judged and logic-costed.  Both
    modes produce byte-identical outcomes (same totals, covers, frontier
    and script); they differ only in work per candidate:

    - [`Scratch] — every candidate is built ({!Reduction.fwd_red_states},
      then {!Reduction.remove}), validated on the built graph
      ({!Reduction.validate}) and evaluated by full re-derivation and
      unmemoized minimization (the reference);
    - [`Delta] (default) — every candidate is judged on a removal view of
      its parent ({!Sg.View}: dedup key, Def. 5.1 verdict, CSC count) and
      costed by {!Logic.estimate_delta}: per-signal results inherited
      from the parent configuration wherever the reduction provably left
      them unchanged, the rest served from the {!Boolf.Memo} cover
      cache.  A candidate is built only when the search keeps it: it
      survives its level's frontier, ends as an arm's best, or is shown to
      [on_improvement]; and, to be judged, when Keep_Conc pairs or a
      performance bound are given.  Graphs with no view (past 62 signals)
      are built, validated and evaluated with the memoized minimizer.  The counter [sg.filter_arcs.calls] counts the built
      candidates. *)
type eval_mode = [ `Scratch | `Delta ]

(** How a candidate's logic complexity enters the cost function:

    - [`Tree] (default) — {!Logic.total}: literal counts, every signal's
      cover priced as an independent tree.  The historical objective;
      all existing differential suites pin it.
    - [`Shared] — post-sharing area of the candidate's covers on the
      hash-consed netlist ({!Netlist.shared_area}) plus the same
      conflict-pressure term in area units: a candidate whose signals
      share subcones is genuinely cheaper, matching what {!Techmap}
      will pay after mapping.  Deterministic (a pure function of the
      covers). *)
type area_mode = [ `Tree | `Shared ]

(** [optimize ?w ?size_frontier ?keep_conc ?max_levels sg] runs the
    search.  [w] (default 0.5) trades logic complexity ([w -> 1]) against
    CSC conflicts ([w -> 0]).  [size_frontier] defaults to 4.
    [max_levels] (default unlimited) bounds the depth.

    Candidates are deduplicated by the root-SG arcs they keep
    ({!Sg.root_arc_key}): from a deterministic root that makes exactly
    the dedup decisions of their {!Sg.signature}s.

    Each level's candidates are evaluated and merged in a deterministic
    order: frontier rank, then concurrent-pair order, then orientation.

    When both [perf_delays] and [max_cycle] are given, configurations whose
    timed replay ({!Timing.analyze_sg}) exceeds the cycle bound are
    discarded — performance-constrained reshuffling.  When no configuration
    meets the bound, [best] falls back to the initial one and the outcome's
    [feasible] flag is [false]. *)
val optimize :
  ?w:float ->
  ?size_frontier:int ->
  ?keep_conc:keep ->
  ?max_levels:int ->
  ?perf_delays:(Stg.label -> int) ->
  ?max_cycle:int ->
  ?eval_mode:eval_mode ->
  ?area_mode:area_mode ->
  Sg.t ->
  outcome

(** {2 Portfolio search}

    Several cost weightings explored side by side, level by level, with
    cross-arm sharing.  See DESIGN.md, "Portfolio search". *)

(** One arm of a portfolio: a weight [W] plus an area model. *)
type arm = { arm_w : float; arm_area : area_mode }

type arm_outcome = {
  arm : arm;
  outcome : outcome;
      (** byte-identical to [optimize ~w:arm_w ~area_mode:arm_area ...]
          run standalone with the same parameters *)
  yardstick : float;
      (** the arm's best under the fixed cross-arm objective (default
          tree pricing at [w = 0.5]) — [cost]s of arms with different
          weights or area models are not comparable *)
}

(** Cross-arm table totals of one portfolio run (counted whether or not
    {!Obs} recording is on).  Each candidate an arm accepts (unseen by
    that arm, valid, within the performance bound) is one table lookup, in
    the deterministic task order: a hit when an earlier lookup had the
    same root-arc key and ghost sequence, a miss otherwise. *)
type portfolio_stats = { table_hits : int; table_misses : int }

type portfolio_outcome = {
  arms : arm_outcome array;  (** in input arm order *)
  winner : int;
      (** index of the best arm: feasible beats infeasible, then lowest
          [yardstick], ties to the lowest index *)
  stats : portfolio_stats;
}

(** [portfolio ~arms sg] runs one beam search per arm, all sharing one
    cross-arm evaluation table: a candidate SG evaluated by any arm is
    never logic-evaluated again by another, keyed by the root arcs it
    keeps ({!Sg.root_arc_key}) and the fingerprint of its lineage ghost
    sequence ({!Sg.ghosts_fingerprint}), a match confirmed by comparing
    the sequences, so the cached evaluation is exactly what every arm
    would have computed itself.  Each arm's [outcome] is byte-identical to its standalone
    {!optimize} run with the same parameters.

    [on_improvement] streams the anytime best-so-far: it fires in a
    deterministic order (arms serviced round-robin, each level merged in
    task order), once per strict per-arm improvement, starting with each
    arm's initial configuration.

    The per-arm search parameters ([size_frontier], [keep_conc],
    [max_levels], [perf_delays], [max_cycle], [eval_mode]) are shared by
    all arms. *)
val portfolio :
  ?size_frontier:int ->
  ?keep_conc:keep ->
  ?max_levels:int ->
  ?perf_delays:(Stg.label -> int) ->
  ?max_cycle:int ->
  ?eval_mode:eval_mode ->
  ?on_improvement:(arm:int -> config -> unit) ->
  arms:arm list ->
  Sg.t ->
  portfolio_outcome

(** Evaluate one SG with the search's cost function.  [memo] (default
    false) routes the logic minimizations through {!Boolf.Memo}; the
    result is identical either way.  [area_mode] defaults to [`Tree]. *)
val evaluate : ?w:float -> ?memo:bool -> ?area_mode:area_mode -> Sg.t -> config

(** Apply a fixed reduction script [(a, b), ...] in order, skipping invalid
    steps; returns the final SG and the steps that actually applied.  Used
    to reproduce specific rows of the paper's tables. *)
val apply_script :
  Sg.t -> (Stg.label * Stg.label) list -> Sg.t * (Stg.label * Stg.label) list
