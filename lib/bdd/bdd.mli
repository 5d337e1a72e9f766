(** Reduced ordered binary decision diagrams with hash-consing — the
    symbolic engine petrify is built on.  A test oracle: no program path
    calls it.  {!Symbolic} runs on it as the third engine of
    [test_crosscheck], and [test_bdd] checks the two-level minimizer
    against it.

    All operations go through an explicit manager; node identifiers are
    only meaningful relative to their manager.  Variables are dense
    integers ordered by their index (variable 0 at the top). *)

type man
type t

(** A fresh manager.  [cache] sizes the operation caches. *)
val manager : ?cache:int -> unit -> man

val tru : t
val fls : t

(** The function of one variable. *)
val var : man -> int -> t

(** Constant-time equality (hash-consing). *)
val equal : t -> t -> bool

val is_tru : t -> bool
val is_fls : t -> bool

val neg : man -> t -> t
val conj : man -> t -> t -> t
val disj : man -> t -> t -> t
val xor : man -> t -> t -> t

(** if-then-else. *)
val ite : man -> t -> t -> t -> t

(** [restrict m f v b] — cofactor of [f] with variable [v] set to [b]. *)
val restrict : man -> t -> int -> bool -> t

(** Existential quantification over a list of variables. *)
val exists : man -> int list -> t -> t

(** Universal quantification. *)
val forall : man -> int list -> t -> t

(** Number of satisfying assignments over [nvars] variables.
    @raise Invalid_argument if some node's variable exceeds [nvars]. *)
val sat_count : man -> nvars:int -> t -> int

(** One satisfying assignment as [(var, value)] pairs for the variables on
    the path (others are free), or [None] for the constant false. *)
val any_sat : man -> t -> (int * bool) list option

(** [eval f assignment] — evaluate under a total assignment
    (bit [v] of [assignment] = variable [v]). *)
val eval : t -> int -> bool

(** Structural node count (both constants count as one). *)
val size : t -> int

(** Build the BDD of a {!Boolf} cube / cover. *)
val of_cube : man -> Boolf.Cube.t -> t
val of_cover : man -> Boolf.Cover.t -> t
