(** Petri nets: the foundational substrate.

    A net is a bipartite graph of places and transitions with unit arc
    weights, plus an initial marking.  Nets built here are expected to be
    bounded (usually safe); reachability exploration takes an explicit state
    budget and fails loudly when exceeded.

    Places and transitions are dense integer ids, assigned by {!Builder}
    (or given to {!of_arrays}). *)

type place = int
type trans = int

(** A marking assigns a token count to every place.  Markings are immutable
    from the outside: functions below always return fresh arrays. *)
type marking = int array

type t = private {
  n_places : int;
  n_trans : int;
  place_names : string array;
  trans_names : string array;
  pre : place array array;   (** [pre.(t)] — input places of transition [t], sorted. *)
  post : place array array;  (** [post.(t)] — output places of transition [t], sorted. *)
  producers : trans array array;  (** [producers.(p)] — transitions with [p] in post. *)
  consumers : trans array array;  (** [consumers.(p)] — transitions with [p] in pre. *)
  initial : marking;
}

(** Imperative net construction.  Freeze with {!Builder.build}. *)
module Builder : sig
  type net = t
  type t

  val create : unit -> t

  (** [add_place b ~name ~tokens] returns the new place id. *)
  val add_place : t -> name:string -> tokens:int -> place

  (** [add_trans b ~name] returns the new transition id. *)
  val add_trans : t -> name:string -> trans

  (** Arc from place to transition (the place becomes a precondition). *)
  val arc_pt : t -> place -> trans -> unit

  (** Arc from transition to place (the place becomes a postcondition). *)
  val arc_tp : t -> trans -> place -> unit

  (** [connect b t1 t2 ~name] inserts a fresh empty place between [t1] and
      [t2], imposing the causality constraint [t1] before [t2].  Returns the
      new place. *)
  val connect : t -> trans -> trans -> name:string -> place

  val build : t -> net
end

(** The net over finished arrays, taken as they are (not copied): what
    {!Builder.build} returns, without the lists it builds from.  Each
    array of ids must be as {!Builder.build} makes it — ascending, without
    repeats, [pre]/[consumers] and [post]/[producers] listing the same
    arcs — which is not checked.  Arrays that are never written may be
    shared between nets.
    @raise Invalid_argument when the lengths disagree: [place_names],
    [producers], [consumers] and [initial] have one entry per place,
    [trans_names], [pre] and [post] one per transition. *)
val of_arrays :
  place_names:string array ->
  trans_names:string array ->
  pre:place array array ->
  post:place array array ->
  producers:trans array array ->
  consumers:trans array array ->
  initial:marking ->
  t

val n_places : t -> int
val n_trans : t -> int
val place_name : t -> place -> string
val trans_name : t -> trans -> string

(** [trans_of_name net name] finds the transition named [name].
    @raise Not_found if absent. *)
val trans_of_name : t -> string -> trans

val initial_marking : t -> marking

(** [enabled net m t] — all input places of [t] hold a token under [m]. *)
val enabled : t -> marking -> trans -> bool

(** All transitions enabled under [m], in increasing id order. *)
val enabled_all : t -> marking -> trans list

(** [fire net m t] returns the successor marking.
    @raise Invalid_argument if [t] is not enabled. *)
val fire : t -> marking -> trans -> marking

exception State_budget_exceeded of int

(** [reachable ?budget net] — all reachable markings in BFS order from the
    initial marking.  [budget] defaults to [200_000].

    A test oracle, like {!is_safe} and {!deadlock_free}: no program path
    calls it.  [test_crosscheck] checks the distinct markings of
    [Sg.of_stg]'s states, and the symbolic engine's set, against it;
    [test_bdd] counts against it.
    @raise State_budget_exceeded when more markings are found. *)
val reachable : ?budget:int -> t -> marking list

(** [is_safe ?budget net] — no reachable marking puts more than one token in
    a place.  A test oracle: [test_fuzz] checks with it that every
    generator class, shrunk or not, yields safe nets. *)
val is_safe : ?budget:int -> t -> bool

(** A marked graph: every place has exactly one producer and one consumer. *)
val is_marked_graph : t -> bool

(** Free choice: any two transitions sharing an input place have equal
    pre-sets. *)
val is_free_choice : t -> bool

(** Asymmetric choice: any two places sharing a consumer have ordered
    consumer sets (one contains the other).  Strictly weaker than
    {!is_free_choice}; arbiter cells (a shared resource place feeding the
    grant transitions of several clients) are the canonical example. *)
val is_asymmetric_choice : t -> bool

(** [deadlock_free ?budget net] — every reachable marking enables some
    transition.  A test oracle: [test_fuzz] checks with it that every
    generator class, shrunk or not, yields live nets. *)
val deadlock_free : ?budget:int -> t -> bool

(** Pretty-print the net structure (places, transitions, arcs, marking). *)
val pp : Format.formatter -> t -> unit

(** Markings as hash-table keys: {!reachable}'s table mixes [hash] once
    more with [Hashtbl.hash] before bucketing by its low bits. *)
module Marking : sig
  type t = marking

  (** Same length and same count in every place: an int loop, not the
      polymorphic compare. *)
  val equal : t -> t -> bool

  (** Folds every place: markings that differ only in a late place do not
      all collide, as they do under the polymorphic hash. *)
  val hash : t -> int
  val compare : t -> t -> int
  val pp : names:string array -> Format.formatter -> t -> unit
end

