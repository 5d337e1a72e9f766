(** Random STG generators for property-based tests, benchmarks, examples
    and the [astg fuzz] campaign.

    Three families, each safe, live and consistent by construction so
    every consumer can assert the strongest invariants:

    - {b series-parallel} marked graphs ({!random_stg}): no choice at
      all — determinism, commutativity and persistency for free;
    - {b free-choice} guarded-selection loops ({!random_fc_stg}): an
      input burst choice between branches plus merge places and an
      optional concurrent completion fork — still speed-independent, but
      with genuine input choice and CSC stress;
    - {b asymmetric-choice} arbiter cells ({!random_ac_stg}): clients
      competing for a shared resource place — output arbitration, hence
      deliberately {e not} speed-independent.

    Every family has a structural representation with a QCheck shrinker
    that preserves the construction invariants, so shrunk
    counterexamples stay valid STGs. *)

val signal_name : int -> string

(** A sequential ring over [n >= 1] signals; the first [inputs] signals
    are inputs. *)
val ring : inputs:int -> int -> Stg.t

(** A fork-join: input trigger [t], [width] parallel output branches
    joined by output [j]. *)
val fork_join : int -> Stg.t

(** Seeded random process spec for the expansion compiler. *)
val random_spec : int -> Expansion.spec

(** SG of an STG or [Failure] with the error rendered. *)
val sg_exn : Stg.t -> Sg.t

(** {2 Series-parallel family} *)

type sp = Leaf of int | Seq of sp list | Par of sp list

val sp_leaves : sp -> int list
val sp_to_string : sp -> string

(** Random SP tree with at most [max_signals] leaves. *)
val random_sp : Random.State.t -> max_signals:int -> sp

(** Compile an SP tree to a live, safe, consistent marked-graph STG; the
    loop closes through a dedicated completion output (one extra signal
    beyond the leaves); [is_input] selects which leaf signals are inputs
    (default: none). *)
val stg_of_sp : ?is_input:(int -> bool) -> sp -> Stg.t

(** Seeded random series-parallel STG (deterministic per seed); roughly a
    quarter of the signals become inputs, always leaving an output. *)
val random_stg : ?max_signals:int -> int -> Stg.t

val shrink_sp : sp -> (sp -> unit) -> unit
val arb_sp : ?max_signals:int -> unit -> sp QCheck.arbitrary

(** {2 Free-choice family} *)

(** Guarded-selection loop: one body of block ids per branch (each block
    becomes its own fresh output signal, numbered by occurrence — the
    [.g] format has no transition instances, so labels must be unique),
    plus [fc_tail] parallel completion signals (0 = a single sequential
    completion). *)
type fc = { fc_branches : int list list; fc_tail : int }

val fc_to_string : fc -> string

(** Compile to a free-choice STG ({!Petri.is_free_choice} holds): guards
    [g0..] are inputs; body signals, the completion [z] and the tail
    signals [u0..] are outputs. *)
val fc_to_stg : fc -> Stg.t

val random_fc : Random.State.t -> max_signals:int -> fc

(** Seeded random free-choice STG (deterministic per seed). *)
val random_fc_stg : ?max_signals:int -> int -> Stg.t

val shrink_fc : fc -> (fc -> unit) -> unit

(** {2 Asymmetric-choice family} *)

(** Arbiter cell: one work-block count per client. *)
type ac = int list

val ac_to_string : ac -> string

(** Compile to an asymmetric-choice arbiter STG
    ({!Petri.is_asymmetric_choice} holds, {!Petri.is_free_choice} does
    not for >= 2 clients): requests [r0..] are inputs; grants [a0..] and
    the per-client work signals [w0..] are outputs. *)
val ac_to_stg : ac -> Stg.t

val random_ac : Random.State.t -> ac

(** Seeded random asymmetric-choice STG (deterministic per seed). *)
val random_ac_stg : int -> Stg.t

val shrink_ac : ac -> (ac -> unit) -> unit

(** {2 Unified fuzz cases} *)

(** One shrinkable value per generator class: failing fuzz specs are
    minimized structurally and regenerated deterministically. *)
type case = Sp of sp * int list  (** tree, input leaf ids *) | Fc of fc | Ac of ac

type cls = [ `Sp | `Fc | `Ac ]

val all_classes : cls list
val class_name : cls -> string
val class_of_name : string -> cls option
val case_class : case -> cls
val case_to_string : case -> string
val case_to_stg : case -> Stg.t

(** [random_case ~cls seed] is deterministic per [(cls, seed)];
    [`Sp] cases reproduce {!random_stg} exactly. *)
val random_case : ?max_signals:int -> cls:cls -> int -> case

(** Structural shrink preserving the construction invariants. *)
val shrink_case : case -> (case -> unit) -> unit
