(** Two-level boolean function manipulation over a small variable set
    (up to 62 variables), used for logic estimation and synthesis.

    A {!Cube.t} is a product term over variables [0..n-1]; a {!Cover.t} is a
    sum of cubes.  Minterms are represented as integers (bit [i] = value of
    variable [i]). *)

(** [62]: the most variables a cube or {!minimize} takes, so that every
    minterm over [n] variables is below [1 lsl n], a positive [int].  Logic
    synthesis spends one variable per signal: past [max_vars] signals
    nothing after the state graph can run. *)
val max_vars : int

module Cube : sig
  (** A cube: [care] is the mask of bound variables, [value] their
      polarities ([value] is always a subset of [care]). *)
  type t = private { care : int; value : int }

  (** The universal cube (no literal). *)
  val top : t

  val make : care:int -> value:int -> t

  (** Parse ["10-"] style (index 0 leftmost).  @raise Invalid_argument. *)
  val of_string : string -> t

  (** Inverse of {!of_string} for [n] variables. *)
  val to_string : n:int -> t -> string

  val equal : t -> t -> bool
  val compare : t -> t -> int

  (** Number of literals. *)
  val literals : t -> int

  (** [covers c m] — minterm [m] satisfies cube [c]. *)
  val covers : t -> int -> bool

  (** [contains c1 c2] — every minterm of [c2] is in [c1]. *)
  val contains : t -> t -> bool

  (** Intersection, [None] when empty. *)
  val inter : t -> t -> t option

  (** [bound c v] — variable [v] appears in the cube. *)
  val bound : t -> int -> bool

  (** Polarity of variable [v]; meaningful only when [bound c v]. *)
  val polarity : t -> int -> bool

  (** Human-readable product term using the given variable names,
      e.g. ["a b' c"]. *)
  val render : names:string array -> t -> string
end

module Cover : sig
  type t = Cube.t list

  val covers : t -> int -> bool
  val literals : t -> int
  val cubes : t -> int

  (** [equal_on ~n c1 c2] — same boolean function over [n] variables
      (exhaustive check; [n] must be small). *)
  val equal_on : n:int -> t -> t -> bool

  val render : names:string array -> t -> string
end

(** [minimize ~n ~on ~off] returns a cover that covers every minterm of [on],
    no minterm of [off], and treats everything else as don't-care.
    Heuristic two-level minimization: each ON-minterm is expanded to a prime
    against the OFF-set (greedy literal removal, lowest variable first),
    then a greedy set cover (most uncovered ON minterms, then fewest
    literals, then the first prime in {!Cube.compare} order) and an
    irredundancy pass in that order keep a small subset.  Deterministic,
    and invariant under permutation and duplication of either array:
    [on] is read sorted and deduplicated (copied first when it is not
    strictly ascending; neither array is ever written).
    @raise Invalid_argument if [on] and [off] intersect or [n > 62]. *)
val minimize : n:int -> on:int array -> off:int array -> Cover.t

(** Memoized {!minimize}: results are cached under the canonical form of
    [(n, on, off)], strictly ascending minterm arrays, so permuted or
    duplicated inputs hit the entry the sorted ones made and return
    structurally equal covers without recomputation.  The key hashes every
    minterm of both arrays.  Strictly ascending arrays are kept as the key
    as they are, not copied: the caller must not mutate them afterwards
    ([Logic]'s sets are never mutated once built); other arrays are keyed
    by a sorted copy.  The tables are domain-local ({!Pool.Dls}) — safe
    inside pool workers with no locking, and deterministic because
    [minimize] is.  Lookups count in the [Obs] counters [boolf.memo.hits]
    and [boolf.memo.misses]. *)
module Memo : sig
  (** Same result as {!Boolf.minimize} (memoized). *)
  val minimize : n:int -> on:int array -> off:int array -> Cover.t

  (** [Cover.literals] of {!Boolf.minimize}, the logic-complexity
      estimate of the search's cost function (memoized). *)
  val literals : n:int -> on:int array -> off:int array -> int

  (** Drop the calling domain's table (worker tables are unaffected). *)
  val clear : unit -> unit
end
