(** Complete State Coding resolution by state-signal insertion.

    The paper relies on petrify's CSC solver; this module implements a
    simplified, self-contained variant adequate for the benchmarks.  A new
    internal signal edge can be inserted at two kinds of sites:

    - {b After a transition} [t]: every original successor of [t] now waits
      for the new edge ([t -> q -> c± -> post(t)]).
    - {b On an arc} (a place with one producer and one consumer): the edge
      is interposed between the two ([t1 -> q -> c± -> p -> t2]).

    Either way the insertion only delays events — it never disables them —
    so speed-independence can only be lost through the new signal itself,
    and the I/O interface is preserved as long as no input transition is
    delayed directly (checked).  An insertion is accepted when the
    resulting state graph is consistent and speed-independent with no more
    CSC conflicts than before: plateau steps (an equal count) are kept,
    since a signal can trade one conflict for another that a further
    signal resolves.  The last signal the budget allows is accepted only
    when it leaves no conflict at all.

    The solver searches (set site, reset site) pairs greedily with
    backtracking until CSC holds or the signal budget is exhausted.  Each
    candidate is explored and its conflicts counted on its parent's state
    graph, once for all the candidates that insert the same two edges in
    either order; only a candidate the search reaches has its STG and
    state graph built ({!product}), never by re-exploring the refined net.
    Conflicts that only input events separate are refused before the
    search. *)

(** An insertion site. *)
type site =
  | After of Petri.trans
      (** in series after the transition (all successors wait) *)
  | On_arc of Petri.place
      (** between the producer and consumer of a 1-in/1-out place *)

val pp_site : Stg.t -> Format.formatter -> site -> unit

(** All legal sites of an STG (no direct input-delay). *)
val sites : Stg.t -> site list

(** Insert one internal signal, [c+] at [set], [c-] at [reset].  The
    refined net is built from the original's arrays and shares every one
    the insertion leaves alone.  The inserted places, [q_<name>_<t>] after
    transition [t] and [q_<name>_<p>] on place [p], are numbered after the
    original places, by producer and then by the place they hold back;
    [c+] and [c-] follow the original transitions, and the signal [c] is
    the last one, id {!Stg.n_signals} of the original (signals stay
    ordered inputs, outputs, internals: see {!Stg.t}).
    @raise Invalid_argument when a site would delay an input transition
    directly, when the sites coincide, or when [name] clashes with an
    existing signal. *)
val insert_signal : Stg.t -> set:site -> reset:site -> name:string -> Stg.t

(** [product sg ~set ~reset ~name] — the state graph of [insert_signal
    (Sg.stg sg) ~set ~reset ~name], derived from [sg] instead of
    re-exploring the refined net.  Because the insertion only delays
    events, a child state is a parent state plus the new signal's parity
    and which of the two inserted places (the presets of [c+] and [c-])
    hold a token.  The child is explored on [sg] alone: an original
    transition fires where its parent arc exists and the parent marking,
    less the tokens held back in a pending inserted place, still marks its
    preset; [c±] fires where its place is marked.  The exploration is
    loops over [sg]'s arc indices ({!Sg.first_arc}) and one scratch
    record per parent, so it allocates nothing per child state or arc.
    Only then is the child built, by {!Sg.of_arrays}: its STG by
    {!insert_signal}, its markings from the parent's with the held tokens
    moved into the inserted places, its codes the parent's code words plus
    the new signal's bit, its rows the explored ones.  States are explored
    in {!Sg.of_stg}'s order and initial values inferred as it does, so the
    result is structurally identical to [Sg.of_stg (insert_signal ...)]:
    state numbering, initial state, codes, markings, arc rows and
    unconstrained signals.  An [Error] is returned wherever [Sg.of_stg]
    returns one; an inconsistent new signal stops the exploration at its
    first contradicting edge (reported as [Inconsistent], where [Sg.of_stg]
    would report [Unbounded] if the full exploration also exceeded
    {!Sg.default_budget} states).

    Precondition: [sg] is the full state graph of its own STG, as
    [Sg.of_stg] (or [product]) built it — a reduced SG is not.

    [None] when the product does not apply and the caller should run
    [Sg.of_stg] on the refined STG instead: an inserted place that would
    take a second token, a new signal that never fires, or a signal left
    unconstrained by +/− edges (so [Sg.of_stg]'s warning is kept).
    @raise Invalid_argument as {!insert_signal} does. *)
val product :
  Sg.t ->
  set:site ->
  reset:site ->
  name:string ->
  (Sg.t, Sg.error) result option

(** [product_conflicts sg ~set ~reset] — {!Sg.csc_conflict_count} of
    [product]'s child, counted on [sg] without building the child: a
    child's code is its parent state's code plus the new bit, so its
    states are bucketed by (parent code, value of the new signal) and
    compared by controlled enabled labels.  [None] where [product] returns [None] or
    an [Error], and when [sg] has more than 62 signals or 60 controlled
    labels (the child is then built and counted by [Sg]).
    @raise Invalid_argument on coinciding sites or a site that delays an
    input. *)
val product_conflicts : Sg.t -> set:site -> reset:site -> int option

(** [input_separated sg] — the first pair of {!Sg.csc_conflicts} joined,
    in either direction, by a path of input events only; [None] when no
    conflict pair is.  No state-signal insertion resolves such a pair (see
    {!resolve}). *)
val input_separated : Sg.t -> (Sg.state * Sg.state) option

type resolution = {
  stg : Stg.t;  (** STG with the inserted signals *)
  sg : Sg.t;  (** its state graph — satisfies CSC *)
  inserted : (string * string * string) list;
      (** [(signal, set site, reset site)] per inserted signal, rendered *)
}

(** [resolve sg] — returns a CSC-satisfying refinement of the STG behind
    [sg], inserting at most [max_signals] (default 6) internal signals
    named [csc0], [csc1], ... (the k-th takes the first [csc<j>], [j >=
    k], that is not already a signal).

    Each level tries every (set, reset) site pair and judges it on the
    parent, cheapest check first: its conflict count, read off the product
    explored on [sg], may not exceed the parent's, and must be zero for the
    last signal.  The candidates that pass rank by (conflicts, literals),
    ties in enumeration order, and the search backtracks over the best
    five.  They are ranked lazily: only when the search asks for the next
    best are the candidates with the smallest count left built, checked
    for speed-independence and scored, each against the best total before
    it ({!Logic.evaluate_bounded}), so a later candidate must be strictly
    cheaper to win.  Candidates with a larger count are built only if
    backtracking exhausts the smaller ones.  The result is the one an eager
    ranking of every passing candidate gives.

    Each distinct child is explored, counted, SI-checked and scored at
    most once per level.  A child depends only on the two edges inserted,
    each read off its site as the producer that marks its place and the
    places that place holds back: [After t] and [On_arc p] with [post(t) =
    {p}] insert the same edge.  Candidates that insert the same two edges
    build the same child but for the inserted places' names.  A candidate
    and its mirror, which swaps the two edges, build isomorphic children:
    swap [c+] with [c-] and their places, and complement [c].  So the
    first candidate of an unordered edge pair is explored and counted on
    a parent that can be counted on, and later ones take its count and,
    once one of them is reached, its SI verdict; the logic total, which a
    mirror does not keep (its cover of [c] is the complement), is shared
    only by ordered edge pair.  A candidate's child is built when its SI
    verdict or score is first needed, or when the search takes it.
    Fallback children, and those of a parent too wide to count on, are
    judged each on its own.

    Every tried candidate ([csc.insertions.tried]) lands in exactly one
    decision counter: [csc.reject.sg_error], [.more_conflicts] or
    [.not_final] when it is judged; [csc.reject.not_si] or [csc.accepted]
    when the search reaches it; [csc.unexamined] when it passes but is
    never reached.  [csc.scored] counts the calls of
    {!Logic.evaluate_bounded}, and [csc.child.product] / [.fallback] /
    [.shared] how each candidate was judged: by exploring its child, by
    [Sg.of_stg] on the refined STG, or from an earlier candidate.

    Before the search, [Error] when {!input_separated} finds a conflict
    pair joined by input events only; the message gives the pair's code.
    No insertion resolves such a pair: sites never delay an input, so in
    every child the same input path joins a state over the pair's first
    state (all inserted places empty) to one over the second, with equal
    codes and controlled enabled sets that still differ — by a parent
    label or by a pending new edge.  The paper's Fig. 1 is such a
    specification.

    [work] (default 20_000) bounds the number of candidate insertions
    tried before giving up.  It is a budget only, not what makes Fig.
    1-class specifications fail fast.  It is checked once per level, so a
    level that would exceed it fails before trying any pair.

    [Error] when the search fails.  [sg] must be the state graph of its own
    backing STG (realize reduced SGs first). *)
val resolve :
  ?max_signals:int ->
  ?work:int ->
  Sg.t ->
  (resolution, string) result
