(** Logic synthesis from a state graph: next-state function derivation,
    two-level minimization, gate-level area estimation (Sec. 7 of the paper).

    Two implementation styles are supported, as in petrify:

    - {b Complex gate} ([`Complex_gate]): one atomic SOP per signal,
      [a' = f_a(code)], where [f_a(code) = 1] iff in the state(s) with that
      code either [a = 1] and [a-] is not enabled, or [a = 0] and [a+] is
      enabled.
    - {b Generalized C-element} ([`Generalized_c]): per signal a set network
      [S] (covering the excitation region of [a+]) and a reset network [R]
      (covering the excitation region of [a-]) driving a C-element:
      [a' = S + a.R'] — the style of the paper's Fig. 3 circuits.

    States whose codes collide with contradictory next values are CSC
    conflicts; the codes involved are excluded from both ON and OFF sets and
    counted, so that logic complexity can still be estimated for
    specifications that have not yet been completed (the paper's heuristic
    cost function). *)

type style = [ `Complex_gate | `Generalized_c ]

(** The synthesized network of one signal. *)
type driver =
  | Sop of Boolf.Cover.t  (** atomic complex gate *)
  | Gc of { set : Boolf.Cover.t; reset : Boolf.Cover.t }
      (** generalized C-element *)

(** Synthesized (or estimated) function of one non-input signal. *)
type signal_impl = {
  signal : int;  (** signal id in the STG *)
  driver : driver;
  conflict_codes : int;  (** number of codes with contradictory next value *)
  is_wire : bool;
      (** the function is a single positive literal of another signal:
          implementable as a wire, zero area *)
  is_constant : bool;  (** ON or OFF set empty after minimization *)
}

type impl = {
  sg : Sg.t;
  style : style;
  per_signal : signal_impl list;  (** one entry per output/internal signal *)
}

(** Derive and minimize the next-state function of every non-input signal.
    [style] defaults to [`Complex_gate]. *)
val synthesize : ?style:style -> Sg.t -> impl

(** [excited sg s sigid] — is an edge of signal [sigid] enabled in state
    [s]?  Early-exit scan of the state's successor row. *)
val excited : Sg.t -> Sg.state -> int -> bool

(** {2 Cost estimation for the optimizer} *)

(** [estimate sg] — the heuristic logic-complexity measure: total literal
    count of the minimized complex-gate covers plus [conflict_penalty] per
    conflicting code (default 4 literals, so unresolved CSC is never
    free).  Always computed from scratch with the unmemoized minimizer —
    the reference the incremental paths below are tested against.

    Like {!evaluate}, the cost-side extraction folds the SG's ghost
    contributions ({!Sg.n_ghosts}) into its per-code aggregates: on a
    graph derived by pruning reductions the measure is taken against the
    lineage-stable don't-care universe, not just the surviving codes (it
    can therefore exceed the measure of a fresh regeneration of the same
    graph).  [~ghosts:false] measures the reachable-code (synthesis)
    semantics instead — what {!synthesize} sees; final equations and
    areas always keep the paper's reachable-code semantics. *)
val estimate : ?conflict_penalty:int -> ?ghosts:bool -> Sg.t -> int

(** {2 Incremental evaluation}

    The reduction search costs thousands of candidate SGs that differ
    from their parent in a handful of arcs.  [evaluate] returns, besides
    the total, the per-signal ON/OFF sets and minimized covers, so the
    cost of a candidate can be computed by {!estimate_delta} on its
    parent, reusing every signal whose sets provably did not change;
    repeated minimizations are served from the {!Boolf.Memo} cover cache.
    All three paths (scratch, memoized, delta) produce identical totals
    and per-signal covers — see DESIGN.md, "Incremental logic cost". *)

(** Evaluation of one non-input signal: the complex-gate minimization input
    (ON/OFF sets, conflicting-code count) and its result.  The sets are
    strictly ascending code arrays, never mutated once built: a child's
    evaluation shares every array its patch leaves unchanged with its
    parent's, and {!Boolf.Memo} keys share them too. *)
type per_sig = {
  ps_signal : int;
  ps_on : int array;
  ps_off : int array;
  ps_conflicts : int;
  ps_cover : Boolf.Cover.t;
  ps_literals : int;
}

type eval = {
  e_total : int;  (** {!estimate}'s value: literals + penalty·conflicts *)
  e_penalty : int;  (** the [conflict_penalty] the total was computed with *)
  e_sigs : per_sig list;  (** per non-input signal, in signal-id order *)
}

val total : eval -> int

(** Full evaluation of [sg].  [memo] (default true) routes minimizations
    through {!Boolf.Memo}; the result is identical either way.
    [evaluate sg |> total = estimate sg] always. *)
val evaluate : ?conflict_penalty:int -> ?memo:bool -> Sg.t -> eval

(** [evaluate_bounded ~bound sg] — [Some t] when [t = total (evaluate sg)]
    is below [bound], [None] otherwise.  The conflict penalties are summed
    first, then each signal's (memoized) literals, and the sum stops as soon
    as it reaches [bound]: the signals after that are not minimized. *)
val evaluate_bounded : bound:int -> Sg.t -> int option

(** [estimate_delta ~parent v] — evaluate the child that the removal
    view [v] describes ({!Sg.View}), reusing [parent], the evaluation of
    [v]'s source, wherever sound, without building the child.
    {!Sg.View.support} bounds the signals whose cost-side aggregates can
    differ from the parent's (pruned states stay in the extraction as
    ghosts, so the bound is exact — DESIGN.md, "Per-signal support
    tracking"):

    - every evaluated signal outside the support is inherited blindly —
      when no evaluated signal is in the support, nothing more is
      computed;
    - support-hit signals are patched at the changed codes
      ({!Sg.View.changed_aggregates}); the parent's {e cover} is still
      inherited when the (ON, OFF, conflicts) triple is unchanged,
      otherwise the (memoized) minimizer runs.

    Uses [parent]'s conflict penalty.  Equal field by field to [evaluate]
    of the built child.

    The [Obs] counters [logic.delta.inherited] and
    [logic.delta.recomputed] count the signals that reused the parent's
    cover and those that went through the (memoized) minimizer;
    [logic.delta.support_hit] and [logic.delta.support_miss] split the
    slots by support membership (misses are the blind inheritances). *)
val estimate_delta : parent:eval -> Sg.View.t -> eval

(** {2 Gate-level area}

    The gate library (documented here as the area model of the repository):
    every SOP cover is decomposed into 2-input AND/OR gates; each 2-input
    gate costs 16 units, each input inverter 8 units, a C-element 32 units,
    a single positive literal is a wire (0 units).  Absolute numbers are not
    comparable with the paper's standard-cell library; relative ordering
    is. *)

val gate_cost_2input : int
val gate_cost_inverter : int
val gate_cost_celement : int

(** Area in library units of one cover, decomposed into 2-input gates. *)
val cover_area : Boolf.Cover.t -> int

(** Area of one signal's driver (covers plus the C-element when [Gc]). *)
val driver_area : driver -> int

(** Total area of an implementation.
    @raise Invalid_argument if some signal still has CSC conflicts (area is
    only meaningful for implementable specifications). *)
val area : impl -> int

(** Like {!area} but returns [None] instead of raising. *)
val area_opt : impl -> int option

(** Total number of conflicting codes across signals (0 iff CSC holds from
    the logic point of view). *)
val conflicts : impl -> int

(** Render the implementation as equations, one per line
    ([a = ...] or [a = C(set / reset)]). *)
val render : impl -> string

(** Signal ids implemented as plain wires or constants (zero delay, zero
    area). *)
val zero_delay_signals : impl -> int list
