(** State graphs: the reachability graph of an STG with a binary state
    encoding, plus the implementability analyses of the paper (Sec. 2):
    consistency, speed-independence (determinism, commutativity,
    output-persistency), Complete State Coding, excitation regions and the
    concurrency relation.

    The representation is fully abstract.  Internally all state codes live
    in one bit-packed word vector (no per-state allocation) and the arcs in
    compressed-sparse-row arrays (one offsets array plus parallel
    transition/target arrays); see DESIGN.md, "Packed state-graph core".
    Consumers read the graph through the accessors and iterators below and
    build derived graphs through {!filter_arcs} or {!derive}; an engine
    that enumerates a state space by other means than {!of_stg} hands its
    finished arrays to {!of_arrays}. *)

type state = int

type t

type error =
  | Inconsistent of string  (** encoding cannot be made consistent *)
  | Unbounded of int  (** state budget exceeded *)

val pp_error : Format.formatter -> error -> unit

(** [of_stg ?budget ?initial_values ?warn stg] generates the SG by
    exhaustive token-game exploration and computes a consistent binary
    encoding.  States are numbered in breadth-first discovery order, each
    row's arcs in ascending transition id.  The exploration runs on
    packed words: every place a counter field with a guard bit (2 bits
    per place on a safe net), every signal parity one bit; a count that
    outgrows its field widens the fields and restarts the exploration,
    which finds the same states in the same order.  More than [budget]
    states (default {!default_budget}) is [Unbounded].  Initial signal
    values are inferred from transition
    enabledness; a signal never constrained by a +/− edge (e.g. a
    toggle-only 2-phase signal) takes its value from [initial_values]
    (signal name, 0/1) or defaults to 0, in which case [warn] (default:
    stderr) is called for every non-input signal left unconstrained — a
    genuinely underspecified encoding.  Overridden values are still checked
    against the inferred constraints ([Inconsistent] on contradiction).
    @raise Invalid_argument on an unknown signal name or a value outside
    0/1 in [initial_values]. *)
val of_stg :
  ?budget:int ->
  ?initial_values:(string * int) list ->
  ?warn:(string -> unit) ->
  Stg.t ->
  (t, error) result

(** The state budget of {!of_stg} when none is given (200,000). *)
val default_budget : int

(** {2 Structure accessors} *)

val stg : t -> Stg.t
val n_states : t -> int
val initial : t -> state

(** The Petri-net marking behind a state.  The returned array is shared
    with the graph: treat it as read-only. *)
val marking : t -> state -> Petri.marking

(** States as a list in id order. *)
val states : t -> state list

(** Signals whose initial value was unconstrained at generation time (in
    id order).  Empty for SGs derived by {!filter_arcs}/{!derive} unless
    inherited from their source. *)
val unconstrained_signals : t -> int list

(** {2 Codes} *)

(** Value of a signal in a state (0 or 1). *)
val value : t -> state -> int -> int

(** The state's binary code as a string, ['0'|'1'] per signal in id
    order.  Allocates; prefer {!value}/{!code_bits} on hot paths. *)
val code : t -> state -> string

(** The state's code packed into one int, bit [i] = value of signal [i].
    O(1): this is the in-memory representation.
    @raise Invalid_argument when the STG has more than 62 signals. *)
val code_bits : t -> state -> int

(** [code_word sg s w] — word [w] of the state's packed code.  A code of
    [n] signals takes {!code_words}[ n] words, signal [i]'s value at bit
    [i mod 63] of word [i / 63].
    @raise Invalid_argument when [w] is not one of its words. *)
val code_word : t -> state -> int -> int

(** The words of a packed code of [n] signals: [max 1 ⌈n / 63⌉]. *)
val code_words : int -> int

(** Code with an asterisk after every excited signal, e.g. ["1*0*"] — the
    display format used in the paper's Fig. 1. *)
val code_display : t -> state -> string

(** Per state, the bitmask of signals with an enabled edge (bit [i] =
    signal [i]); computed once per graph and shared: treat it as
    read-only.  Only meaningful when the STG has at most 62 signals. *)
val excited_masks : t -> int array

(** {2 Ghost contributions}

    Graphs produced by a pruning {!filter_arcs} carry the pruned states'
    (code, excited-signal mask) pairs along as {e ghosts}, frozen at
    pruning time and accumulated over the whole filter lineage.  The
    cost-side logic extraction ({!Logic.evaluate}/{!Logic.estimate}) folds
    them into its per-code aggregates, which keeps the don't-care universe
    stable along a lineage and makes a removal's {!View.support} bound
    exact; final synthesis ({!Logic.synthesize}) ignores them.  Ghosts are
    only collected when the STG has at most 62 signals (one packed word
    per code); there are none on freshly generated graphs. *)

val n_ghosts : t -> int

(** [iter_ghosts sg f] — [f code exc] for every ghost, in freezing order:
    [code] is the packed state code (as {!code_bits}), [exc] the bitmask of
    signals that were excited in the pruned state. *)
val iter_ghosts : t -> (int -> int -> unit) -> unit

(** A ghost sequence as an equality token: a graph's own ({!ghosts}) or
    the one a removal would leave ({!View.ghosts}).  It shares the
    graph's ghost arrays instead of copying them. *)
type ghosts

val ghosts : t -> ghosts

(** A hash of the sequence, folded pair by pair, so a child's extends its
    source's with the pairs it pruned: equal sequences have equal
    fingerprints. *)
val ghosts_fingerprint : ghosts -> int

(** Equal (code, mask) sequences, pair by pair in order. *)
val ghosts_equal : ghosts -> ghosts -> bool

(** {2 Arcs} *)

(** Total number of arcs. *)
val n_arcs : t -> int

val out_degree : t -> state -> int

(** [iter_succ sg s f] — [f tr target] for every outgoing arc of [s], in
    arc order. *)
val iter_succ : t -> state -> (Petri.trans -> state -> unit) -> unit

(** [fold_succ sg s init f] — fold [f acc tr target] over the outgoing
    arcs of [s], in arc order. *)
val fold_succ : t -> state -> 'a -> ('a -> Petri.trans -> state -> 'a) -> 'a

(** [exists_succ sg s f] — does some outgoing arc of [s] satisfy
    [f tr target]?  Early-exits on the first hit (unlike a [fold_succ]
    over the whole row) and allocates nothing. *)
val exists_succ : t -> state -> (Petri.trans -> state -> bool) -> bool

(** [iter_arcs sg f] — [f source tr target] over every arc of the graph,
    sources in id order, arcs of one source in arc order. *)
val iter_arcs : t -> (state -> Petri.trans -> state -> unit) -> unit

(** Arcs by index, for loops that must not allocate a closure: the
    outgoing arcs of [s] are the indices [first_arc sg s] to [first_arc sg
    (s + 1) - 1], in arc order ([first_arc sg (n_states sg)] is
    {!n_arcs}); [arc_trans] and [arc_target] read an arc's transition and
    target state. *)
val first_arc : t -> state -> int

val arc_trans : t -> int -> Petri.trans
val arc_target : t -> int -> state

(** [iter_pred sg s f] — [f tr source] for every incoming arc of [s].
    The reverse arcs are derived from the forward arcs on first use and
    cached: the reduction search builds and discards many SGs that are
    never walked backwards. *)
val iter_pred : t -> state -> (Petri.trans -> state -> unit) -> unit

(** Labels on outgoing arcs of a state (deduplicated, in first-seen order). *)
val enabled_labels : t -> state -> Stg.label list

(** [succ_by_label sg s lab] — all successors of [s] through arcs whose
    transition carries [lab]. *)
val succ_by_label : t -> state -> Stg.label -> state list

(** {2 Building derived graphs} *)

(** [filter_arcs sg ~keep] rebuilds the graph keeping only the arcs for
    which [keep source tr target] holds, prunes states unreachable from
    the initial state and renumbers (BFS order).  Returns the new graph
    with the new→old state map (index = new id).  [keep] is called once
    per arc.  Codes and markings are copied row-wise, arcs go straight
    into the CSR arrays.  When [sg]'s enabled-label bitmasks are already
    computed, the new graph inherits them instead of numbering its labels
    afresh.  The counter [sg.filter_arcs.calls] counts the graphs built
    here: the reduction search judges its candidates on a {!View} and
    builds only those it keeps. *)
val filter_arcs :
  t -> keep:(state -> Petri.trans -> state -> bool) -> t * state array

(** [derive sg ~arcs] rebuilds the graph over the same states, codes and
    markings with the successor rows given by [arcs] (targets in [sg]'s
    state space), then prunes unreachable states and renumbers as
    {!filter_arcs}.  [unconstrained] defaults to the source's.  General
    (and slower) cousin of {!filter_arcs} for arc rewiring. *)
val derive :
  ?unconstrained:int list ->
  t ->
  arcs:(state -> (Petri.trans * state) list) ->
  t * state array

(** [of_arrays stg ~markings ~codes ~off ~arc_tr ~arc_dst ~initial] — the
    graph over these arrays, taken as they are (not copied): state [s] has
    marking [markings.(s)], the code words [codes.(s * w)] to [codes.(s * w
    + w - 1)] with [w = code_words (Stg.n_signals stg)] (laid out as
    {!code_word} reads them), and the outgoing arcs [off.(s)] to [off.(s +
    1) - 1] of the parallel arrays [arc_tr] (transitions) and [arc_dst]
    (targets), in that order.  For engines that enumerate a state space by
    other means than {!of_stg} ([Csc]'s products).  The graph roots a
    filter lineage and has no ghosts; [unconstrained] defaults to [[]].
    @raise Invalid_argument when the array lengths disagree, an arc's
    transition or target is out of range, or some state is unreachable
    from [initial] (prune with {!filter_arcs} if needed). *)
val of_arrays :
  ?unconstrained:int list ->
  Stg.t ->
  markings:Petri.marking array ->
  codes:int array ->
  off:int array ->
  arc_tr:Petri.trans array ->
  arc_dst:state array ->
  initial:state ->
  t

(** {2 Implementability analyses} *)

(** No state has two outgoing arcs with the same label. *)
val is_deterministic : t -> bool

(** Whenever both interleavings of two events are possible from a state they
    reach the same state. *)
val is_commutative : t -> bool

(** Violations of output-persistency: [(s, disabled, by)] — label [disabled]
    (an output/internal event, or an input disabled by an output) was enabled
    in [s] and is no longer enabled after firing [by]. *)
val persistency_violations : t -> (state * Stg.label * Stg.label) list

(** The first entry of {!persistency_violations}, or [None]; stops at the
    first hit instead of accumulating the list (reduction validates every
    search candidate with this). *)
val first_persistency_violation :
  t -> (state * Stg.label * Stg.label) option

val is_output_persistent : t -> bool

(** Determinism + commutativity + output persistency. *)
val is_speed_independent : t -> bool

(** Pairs of distinct states with equal codes but different enabled
    output/internal label sets (CSC conflicts). *)
val csc_conflicts : t -> (state * state) list

(** [List.length (csc_conflicts sg)], memoized — the count the search cost
    function needs at every evaluation.  With codes of at most 16 signals
    and at most 62 distinct labels it buckets the states by code in a
    per-domain direct-address table; otherwise it sorts them by code.
    Either way it counts from [sg] alone. *)
val csc_conflict_count : t -> int

(** Pairs of distinct states with equal codes (USC conflicts). *)
val usc_conflicts : t -> (state * state) list

(** [usc_conflicts sg = []], without the list: it sorts the states by
    code and compares neighbours. *)
val has_usc : t -> bool

val has_csc : t -> bool

(** {2 Excitation regions and concurrency} *)

(** All states in which some transition labelled [lab] is enabled. *)
val er : t -> Stg.label -> state list

(** Distinct labels on arcs, each with all the STG transitions carrying the
    label ({!Stg.instances}); cached.  Since every state of a [t] is
    reachable, this is the set of reachable arc labels — the baseline for
    reduction's event-vanishing check. *)
val arc_label_instances : t -> (Stg.label * Petri.trans list) list

(** [concurrent sg a b] — a diamond [s1 -a-> s2, s1 -b-> s3, s2 -b-> s4,
    s3 -a-> s4] exists (Def. 2.1).  The full relation is computed in one
    sweep over the states on first use and cached; subsequent queries are
    O(1) lookups. *)
val concurrent : t -> Stg.label -> Stg.label -> bool

(** All unordered concurrent label pairs (from the same cached relation),
    in [Stg.all_labels] order. *)
val concurrent_pairs : t -> (Stg.label * Stg.label) list

(** {2 Utilities} *)

(** Deadlock states (no outgoing arcs). *)
val deadlocks : t -> state list

(** Canonical structural signature at the label level (BFS renumbering,
    arcs named by their labels): two SGs with equal signatures are
    label-bisimilar.  Used for verifying STG realizations; not memoized. *)
val signature : t -> string

(** {2 Root arcs}

    A graph built by {!of_stg}, {!of_arrays} or {!derive} is the {e root} of
    a filter lineage: every graph that a chain of {!filter_arcs} calls
    derives from it carries, for each of its arcs, that arc's index in the
    root. *)

(** [root_arc_key sg] — the set of root arcs [sg] keeps, as a bitset over
    the root's arc indices packed into a string (one bit per index, up to
    the highest one kept).
    For two graphs of one lineage:
    - equal keys mean the same graph (same root states, same arcs, hence
      equal {!signature}s);
    - when the root is deterministic ({!is_deterministic}), equal
      signatures mean equal keys: every state is reached by the same
      label path as its root state, and a root state has at most one arc
      per label.
    The reduction search dedups its candidates by this key. *)
val root_arc_key : t -> string

(** {2 Removal views}

    The graph a reduction would leave, judged on its source without
    building it: [sg] less every arc labelled [a] out of a set of states
    (FwdRed's back-reached set, or one state), with the states no longer
    reachable pruned as {!filter_arcs} would prune them.  The view lives
    in per-domain scratch over [sg]'s state ids and reads [sg]'s
    enabled-label bitmasks when it has them, so it copies nothing:
    {!View.make} finds the
    reachable states and the root arcs they keep; the other queries
    answer, in [sg]'s state numbering, what the built child
    ([filter_arcs sg ~keep:(fun s tr _ -> not (s in states && tr
    carries a))]) would answer.  A view is valid until the next
    {!View.make} on the same domain (queries on an overwritten view
    raise [Invalid_argument]); nothing derived from it holds on to the
    scratch. *)
module View : sig
  type sg := t
  type t

  (** [None] when [sg] has more than 62 signals (no packed codes): build
      the child instead.  Past 62 distinct labels [sg] has no label
      masks, and the queries compare label lists instead. *)
  val make : sg -> a:Stg.label -> state list -> t option

  val source : t -> sg

  (** The child's {!n_states}. *)
  val n_states : t -> int

  (** The child's {!root_arc_key}. *)
  val root_arc_key : t -> string

  (** The first label of {!arc_label_instances}[ sg] on no arc of the
      child, if any. *)
  val vanished : t -> Stg.label option

  (** The first child state, in the child's numbering order, that lost
      all its arcs (it had some in [sg]); a state of [sg]. *)
  val deadlock : t -> state option

  (** The child's {!first_persistency_violation}, its state given as
      the state of [sg] it is. *)
  val persistency_violation : t -> (state * Stg.label * Stg.label) option

  (** The child's {!csc_conflict_count}. *)
  val csc_conflict_count : t -> int

  (** The child's ghost sequence: [sg]'s followed by the pruned states'
      (code, excited-mask) pairs, in ascending state order.  The pruned
      pairs are copied out of the scratch. *)
  val ghosts : t -> ghosts

  (** Union over the rows that lost arcs of the excited-signal bits they
      lost.  Because pruned states stay in the cost-side extraction as
      ghosts, a signal outside it has exactly [sg]'s per-code ON/OFF
      aggregates in the child. *)
  val support : t -> int

  (** [(codes, any, all)]: the distinct codes of the rows that lost arcs,
      ascending, and for each the OR and AND of the excited-signal masks
      of the child's states and ghosts with that code — the only codes
      whose cost-side aggregates can differ from [sg]'s. *)
  val changed_aggregates : t -> int array * int array * int array
end

val pp : Format.formatter -> t -> unit

(** Dump in the paper's style: one line per state: code, then arcs. *)
val pp_full : Format.formatter -> t -> unit

(** [weak_bisimilar sg1 sg2] — weak bisimulation equivalence treating dummy
    events as silent: computed as strong bisimulation on the
    tau-saturated transition systems (labels matched by name, so the two
    SGs may come from different STGs).  Used to verify dummy-contraction
    and other silent-step-preserving transformations. *)
val weak_bisimilar : t -> t -> bool

(** Graphviz dot rendering of the state graph: nodes show the code display
    of Fig. 1 (asterisks on excited signals), the initial state is
    doubly circled, arcs carry event names. *)
val to_dot : t -> string
