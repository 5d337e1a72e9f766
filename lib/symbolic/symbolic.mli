(** Symbolic (BDD-based) reachability analysis of safe Petri nets — the
    way petrify traverses state spaces too large for explicit enumeration.

    A marking of a safe net is a boolean vector over places; each
    transition's effect is a partial function on those vectors (all preset
    places 1 before, presets 0 and postsets 1 after).  The reachable set is
    the least fixpoint of the image under all transitions, computed
    entirely on BDDs.

    A test oracle: no program path calls it.  It is the third engine of
    [test_crosscheck], which checks the markings of the two explicit
    engines ({!Petri.reachable}, {!Sg.of_stg}) and their deadlock
    verdict against it. *)

type result = {
  reachable_count : int;  (** number of reachable markings *)
  iterations : int;  (** breadth-first image steps to the fixpoint *)
  bdd_size : int;  (** nodes of the final reachable-set BDD *)
}

(** [reachable_count net] — symbolic reachability from the initial marking.
    @raise Invalid_argument if the initial marking is not safe (a place
    with more than one token) or the net has more than 62 places.

    Unsafe nets are not detected structurally: a net that accumulates
    tokens violates the boolean encoding silently, so callers should check
    {!Petri.is_safe} first when in doubt (the function asserts safety of
    every transition's effect on the encoded sets it actually visits). *)
val analyze : Petri.t -> result

(** A computed reachable set, reusable across queries.  The BDD fixpoint —
    the expensive part — runs once in {!Space.of_net}; every query below is
    then a cheap traversal of the cached BDD.  Prefer this over the
    top-level one-shot wrappers whenever more than one question is asked of
    the same net. *)
module Space : sig
  type t

  (** Run the fixpoint once and keep the manager, the reachable-set BDD and
      the iteration count.  Same preconditions as {!analyze}. *)
  val of_net : Petri.t -> t

  val net : t -> Petri.t

  val iterations : t -> int

  val bdd_size : t -> int

  (** Model count of the cached set — no fixpoint recomputation. *)
  val reachable_count : t -> int

  (** Package the cached set as a {!result}. *)
  val result : t -> result

  (** Membership test: one BDD evaluation. *)
  val marking_reachable : t -> Petri.marking -> bool

  (** Deadlock check over the cached set; the enabled-set BDD is built on
      the first call and the verdict memoized. *)
  val has_deadlock : t -> bool
end

(** Is a given marking reachable?  One-shot: recomputes the fixpoint.  Use
    {!Space} to amortize it over several queries. *)
val marking_reachable : Petri.t -> Petri.marking -> bool

(** Symbolic deadlock check: some reachable marking enables no
    transition.  One-shot: recomputes the fixpoint; see {!Space}. *)
val has_deadlock : Petri.t -> bool
