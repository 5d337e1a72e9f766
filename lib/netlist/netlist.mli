(** Hash-consed gate-graph IR: one uid-keyed node store for the whole
    netlist, so structurally identical subcovers are shared {e across}
    output signals (hardcaml-style structural hashing).

    Nodes are immutable and created through smart constructors that
    normalize on the way in — constant propagation, double-inverter
    elimination, idempotence/complement folding, commutative operand
    ordering — and then hash-cons: building the same structure twice
    returns the same uid, so common-subexpression elimination is free and
    global.  Children always have strictly smaller uids than their
    parents, hence ascending-uid iteration {e is} topological order.

    This IR is the single source of truth behind {!Circuit} (gate-list
    view, conformance), {!Techmap} (fanout-aware DAG covering) and the
    emitters (structural Verilog and BLIF from the same graph), and its
    post-sharing area is the search's [`Shared] cost model
    ({!Search.optimize}).  See DESIGN.md, "Netlist IR". *)

type uid = int

(** A gate node.  [Celem] is the state-holding generalized C-element
    [out' = set || (out && not reset)]; its feedback input is the {e
    current} value of signal [sig_], which is also why a C-element's
    structural key includes the signal it drives — two signals with equal
    set/reset networks still hold distinct state and must never be
    merged. *)
type node =
  | Input of int  (** current value of signal [i] *)
  | Const of bool
  | Inv of uid
  | And2 of uid * uid
  | Or2 of uid * uid
  | Celem of { set : uid; reset : uid; sig_ : int }

(** {2 Construction} *)

module Builder : sig
  type t

  (** [create ~nsig] — a builder over signals [0..nsig-1].  The two
      constants and every input rail are pre-interned (uids [0] and [1],
      then [i + 2] for signal [i]): rails are construction, not sharing
      requests, so touching one never counts as a hash-cons miss. *)
  val create : nsig:int -> t

  val input : t -> int -> uid
  val const : t -> bool -> uid
  val inv : t -> uid -> uid
  val and2 : t -> uid -> uid -> uid
  val or2 : t -> uid -> uid -> uid
  val celem : t -> set:uid -> reset:uid -> sig_:int -> uid

  (** Build one SOP cover bottom-up through the smart constructors
      (AND chains per cube, OR chain over cubes — every shared subchain
      lands on an existing uid). *)
  val of_cover : t -> Boolf.Cover.t -> uid

  val n_nodes : t -> int
end

(** A frozen netlist: the node store plus the signal -> driver map.
    Nodes orphaned by constructor folds may remain in the store; all
    queries below ([area], [gate_count], iteration, emission) see only
    the nodes {e live} from some output. *)
type t

(** [build b ~outputs] freezes the builder.  [outputs] maps non-input
    signal ids to their driving nodes; it is re-sorted by signal id.
    @raise Invalid_argument on a duplicate signal. *)
val build : Builder.t -> outputs:(int * uid) list -> t

(** Build the complex-gate netlist of an evaluation's covers:
    [of_covers ~nsig [(sig, cover); ...]].  Conflicting or partial
    implementations are fine — this is pure logic, no conformance
    claim. *)
val of_covers : nsig:int -> (int * Boolf.Cover.t) list -> t

(** Netlist of a whole synthesized implementation ([Sop] covers and
    generalized C-elements).  Unlike {!Circuit.of_impl} this does not
    reject CSC conflicts: the graph is still well-defined logic, only
    conformance is meaningless. *)
val of_impl : Logic.impl -> t

(** {2 Structure} *)

val n_signals : t -> int

(** Total node-store size, dead nodes included. *)
val node_count : t -> int

val node : t -> uid -> node

(** [outputs t] — [(signal, driver)] pairs in signal-id order. *)
val outputs : t -> (int * uid) list

(** Driver of one signal. *)
val driver : t -> int -> uid option

(** [iter t f] — [f uid node] over the live nodes in ascending-uid
    (= topological) order. *)
val iter : t -> (uid -> node -> unit) -> unit

(** Number of live parents referencing the node, plus one per output
    signal it drives. *)
val fanout : t -> uid -> int

(** {2 Cost}

    The area model of {!Logic} (INV 8, 2-input gate 16, C-element 32,
    inputs/constants 0) — but over the {e shared} graph: a node used by
    five signals is paid for once.  Always [<=] the tree-decomposition
    sum of {!Logic.driver_area} over the same covers. *)

val area : t -> int

(** Live Inv/And2/Or2/Celem nodes (inputs and constants excluded). *)
val gate_count : t -> int

(** One-call shared area of a cover set: [area (of_covers ...)].  The
    [`Shared] pricing hook of the search. *)
val shared_area : nsig:int -> (int * Boolf.Cover.t) list -> int

(** {2 Rewriting}

    The local rewrite rules (constant propagation, double-inverter
    elimination, idempotence/complement folds, hash-consed CSE) run at
    construction time, so a freshly built netlist is already in normal
    form.  [simplify] re-runs them to fixpoint over an existing graph and
    compacts the store — dead {e gate} nodes left behind by constructor
    folds are dropped and uids renumbered densely.  The constant and
    input rails are pre-interned by every builder and thus always
    present, so the compaction floor is [n_signals + 2] nodes.
    Idempotent; preserves {!next_values} on every input assignment. *)
val simplify : t -> t

(** {2 Simulation} *)

(** [eval t ~current] — value of every node under the assignment
    [current : signal -> bool] (the state's {e current} code; C-elements
    read their own signal's current value from it).  One bottom-up pass;
    index the result by uid. *)
val eval : t -> current:(int -> bool) -> bool array

(** Next value of every output signal under [current], in signal-id
    order. *)
val next_values : t -> current:(int -> bool) -> (int * bool) list

(** {2 Emission}

    Both emitters walk the same live graph with the same net naming: an
    input node is its signal's name, a node whose only uses are driving
    output signals takes the lowest such signal's name (further signals
    sharing the driver become alias assignments), every other node —
    including a driver that other cones also reference — is ["n<uid>"]
    with aliases to the signals it drives, so a signal-named net is
    written at most once and read only for the signal's current value.
    One in-order pass over either emission therefore reproduces {!eval}
    exactly.  [inputs]/[outs] are the module ports; [internals] are
    non-port signals (inserted state signals) declared as wires. *)

val to_verilog :
  ?module_name:string ->
  names:string array ->
  inputs:int list ->
  outs:int list ->
  internals:int list ->
  t ->
  string

(** BLIF: [.names] truth-table per node; the C-element is emitted as its
    combinational feedback equation (output also appearing as a table
    input), the standard BLIF rendering of asynchronous state-holding
    gates. *)
val to_blif :
  ?model_name:string ->
  names:string array ->
  inputs:int list ->
  outs:int list ->
  internals:int list ->
  t ->
  string
