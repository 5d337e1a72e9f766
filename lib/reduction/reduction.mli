(** Forward concurrency reduction — the paper's basic optimization operation
    (Sec. 5–6).

    [FwdRed(a, b)] reduces the concurrency of event [a] (an output or
    internal event) with respect to event [b]: all arcs labelled [a] leaving
    states backward-reachable (inside [ER(a)]) from [ER(a) ∩ ER(b)] are
    removed, unreachable states are pruned, and the result is checked
    against the validity conditions of Definition 5.1. *)

type invalid_reason =
  | Not_concurrent  (** [ER(a) ∩ ER(b)] is empty *)
  | Input_event  (** [a] is an input — inputs may never be delayed *)
  | Event_vanishes of Stg.label  (** some event's ER became empty *)
  | Deadlock_introduced of Sg.state
      (** a surviving state lost all outgoing arcs *)
  | Persistency_broken of (Sg.state * Stg.label * Stg.label)
      (** output-persistency violated in the reduced SG (state, disabled
          event, disabling event) — the original SG was not
          speed-independent, so Proposition 6.1 does not apply *)

val pp_invalid : Stg.t -> Format.formatter -> invalid_reason -> unit

(** [fwd_red sg ~a ~b] — reduce concurrency of [a] by [b].
    [a] and [b] are labels; returns the reduced SG or the reason the
    reduction is invalid.  The input SG is not modified. *)
val fwd_red : Sg.t -> a:Stg.label -> b:Stg.label -> (Sg.t, invalid_reason) result

(** A built-but-unvalidated candidate: the pruned SG, its new→old state
    map, and the {!Sg.delta} report of what the arc filter changed — the
    incremental logic estimator ({!Logic.estimate_delta}) uses [delta] to
    bound which signals must be re-derived. *)
type built = { cand : Sg.t; old_of_new : Sg.state array; delta : Sg.delta }

(** The build half of {!fwd_red}: remove the arcs and prune, but skip the
    Def. 5.1 validity checks; {!validate} completes the pipeline.  The
    search uses the split to discard duplicate candidates (equal
    {!Sg.root_arc_key}) before paying for validation. *)
val fwd_red_built :
  Sg.t -> a:Stg.label -> b:Stg.label -> (built, invalid_reason) result

(** The checks half of {!fwd_red}: event vanishing, introduced deadlocks
    and output-persistency of a candidate built by {!fwd_red_built} from
    [source]. *)
val validate : source:Sg.t -> built -> (Sg.t, invalid_reason) result

(** The more general reduction of the paper's Sec. 6 note (backward
    reduction, ref. [3]): remove the arcs of event [a] leaving one single
    state.  Unlike {!fwd_red} it has no STG-level interpretation as an
    ordering constraint, so realization usually needs region synthesis.
    All Def. 5.1 validity conditions are checked. *)
val remove_arc :
  Sg.t -> state:Sg.state -> a:Stg.label -> (Sg.t, invalid_reason) result

(** [back_reach sg ~within targets] — states of [within] from which some
    state of [targets] is reachable through arcs staying inside [within]
    ([targets ⊆ result]).  Exposed for testing. *)
val back_reach : Sg.t -> within:Sg.state list -> Sg.state list -> Sg.state list

(** [ordered_after sg ~a ~b] — in every path of the reduced SG, is some
    [b]-labelled arc a necessary predecessor of every [a]-labelled arc?
    (Diagnostic used to interpret a reduction as the STG-level causal arc
    [b -> a].) *)
val creates_arc : Sg.t -> a:Stg.label -> b:Stg.label -> bool

(** The paper's step 5: generate an STG for a reduced SG.

    [realize ~applied reduced] adds, for every reduction [(a, b)] in
    [applied], causality places from the instances of [b] to the instances
    of [a] in the STG backing [reduced] (marked when [a] can fire before any
    [b] from the initial state), regenerates the SG of the augmented STG and
    verifies that it is isomorphic to [reduced].  Returns the realized STG,
    or [Error] when the reduction is not expressible with simple causality
    places (the general case needs regions — see the [regions] library). *)
val realize :
  applied:(Stg.label * Stg.label) list -> Sg.t -> (Stg.t, string) result
