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
    candidate's state graph is derived from its parent's by {!product}
    rather than by re-exploring the refined net. *)

(** An insertion site. *)
type site =
  | After of Petri.trans
      (** in series after the transition (all successors wait) *)
  | On_arc of Petri.place
      (** between the producer and consumer of a 1-in/1-out place *)

val pp_site : Stg.t -> Format.formatter -> site -> unit

(** All legal sites of an STG (no direct input-delay). *)
val sites : Stg.t -> site list

(** Insert one internal signal, [c+] at [set], [c-] at [reset].
    @raise Invalid_argument when a site would delay an input transition
    directly, when the sites coincide, or when [name] clashes with an
    existing signal. *)
val insert_signal : Stg.t -> set:site -> reset:site -> name:string -> Stg.t

(** [product sg stg'] — the state graph of [stg' = insert_signal (Sg.stg
    sg) ~set ~reset ~name], derived from [sg] instead of re-exploring
    [stg']'s net.  Because the insertion only delays events, a child state
    is a parent state plus the new signal's parity and which of the two
    inserted places (the presets of [c+] and [c-]) hold a token; an
    original transition fires where its parent arc exists and none of its
    input tokens is held back in an inserted place, and [c±] fires where
    its place is marked.  States are explored in {!Sg.of_stg}'s order and
    initial values inferred as it does, so the result is structurally
    identical to [Sg.of_stg ?budget stg']: state numbering, initial state,
    codes, markings, arc rows and unconstrained signals.  An [Error] is
    returned wherever [Sg.of_stg] returns one; an inconsistent new signal
    stops the exploration at its first contradicting edge (reported as
    [Inconsistent], where [Sg.of_stg] would report [Unbounded] if the full
    exploration also exceeded [budget]).

    Precondition: [sg] is the full state graph of its own STG, as
    [Sg.of_stg] (or [product]) built it — a reduced SG is not.

    [None] when the product does not apply and the caller should run
    [Sg.of_stg stg'] instead: a degenerate site pair (an edge with no
    input place), an inserted place that would take a second token, or a
    signal of [stg'] left unconstrained by +/− edges (so [Sg.of_stg]'s
    warning is kept). *)
val product : ?budget:int -> Sg.t -> Stg.t -> (Sg.t, Sg.error) result option

type resolution = {
  stg : Stg.t;  (** STG with the inserted signals *)
  sg : Sg.t;  (** its state graph — satisfies CSC *)
  inserted : (string * string * string) list;
      (** [(signal, set site, reset site)] per inserted signal, rendered *)
}

(** [resolve sg] — returns a CSC-satisfying refinement of the STG behind
    [sg], inserting at most [max_signals] (default 6) internal signals
    named [csc0], [csc1], ...  Each level tries every (set, reset) site
    pair and checks a candidate cheapest first: its state graph, its
    conflict count (no more than the parent's, and zero for the last
    signal), then speed-independence.  Accepted candidates rank by
    (conflicts, literals) and the search backtracks over the best five;
    candidates with more conflicts than the fifth-smallest count cannot be
    among them and are not scored.  [work] (default 20_000) bounds the
    number of candidate insertions evaluated before giving up; it is
    checked once per level, so a level that would exceed it fails before
    evaluating any pair.  [Error] when the search fails.  [sg] must be the
    state graph of its own backing STG (realize reduced SGs first). *)
val resolve :
  ?max_signals:int ->
  ?budget:int ->
  ?work:int ->
  Sg.t ->
  (resolution, string) result

(** Number of state signals {!resolve} needs (0 when CSC already holds),
    [None] when resolution fails — the "# CSC sign." column of the paper's
    tables. *)
val count_signals : ?max_signals:int -> Sg.t -> int option
