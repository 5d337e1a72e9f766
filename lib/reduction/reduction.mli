(** Forward concurrency reduction — the paper's basic optimization operation
    (Sec. 5–6).

    [FwdRed(a, b)] reduces the concurrency of event [a] (an output or
    internal event) with respect to event [b]: all arcs labelled [a] leaving
    states backward-reachable (inside [ER(a)]) from [ER(a) ∩ ER(b)] are
    removed, unreachable states are pruned, and the result is checked
    against the validity conditions of Definition 5.1. *)

(** Why a reduction is invalid.  Every state in a reason is numbered in
    the source SG. *)
type invalid_reason =
  | Not_concurrent  (** [ER(a) ∩ ER(b)] is empty *)
  | Input_event  (** [a] is an input — inputs may never be delayed *)
  | Event_vanishes of Stg.label  (** some event's ER became empty *)
  | Deadlock_introduced of Sg.state
      (** a state of the source SG that the reduced SG keeps, with all its
          outgoing arcs removed *)
  | Persistency_broken of (Sg.state * Stg.label * Stg.label)
      (** output-persistency violated in the reduced SG although the
          source SG is output-persistent (Proposition 6.1): a state of the
          source SG, the disabled event, the disabling event.  A reduction
          of a source that is not output-persistent is accepted with its
          violations. *)

val pp_invalid : Stg.t -> Format.formatter -> invalid_reason -> unit

(** [fwd_red sg ~a ~b] — reduce concurrency of [a] by [b].
    [a] and [b] are labels; returns the reduced SG or the reason the
    reduction is invalid.  The input SG is not modified. *)
val fwd_red : Sg.t -> a:Stg.label -> b:Stg.label -> (Sg.t, invalid_reason) result

(** FwdRed's removal set: the states of [ER(a)] from which
    [ER(a) ∩ ER(b)] is reachable inside [ER(a)], whose [a]-arcs the
    reduction drops.  Fails with [Input_event], [Not_concurrent], or
    [Event_vanishes a] when the set is all of [ER(a)]. *)
val fwd_red_states :
  Sg.t -> a:Stg.label -> b:Stg.label -> (Sg.state list, invalid_reason) result

(** A built-but-unvalidated candidate: the pruned SG and its new→old
    state map. *)
type built = { cand : Sg.t; old_of_new : Sg.state array }

(** [remove sg ~a states] — the arc filter behind every reduction: drop
    the arcs labelled [a] out of [states], prune the states no longer
    reachable and renumber ({!Sg.filter_arcs}).  No validity check. *)
val remove : Sg.t -> a:Stg.label -> Sg.state list -> built

(** The build half of {!fwd_red}: {!fwd_red_states}, then {!remove}. *)
val fwd_red_built :
  Sg.t -> a:Stg.label -> b:Stg.label -> (built, invalid_reason) result

(** The Def. 5.1 checks on a built candidate, in order: event vanishing,
    introduced deadlocks, output-persistency of a candidate built from
    [source].  The reference for {!judge}. *)
val validate : source:Sg.t -> built -> (Sg.t, invalid_reason) result

(** {!validate} on a removal view of [source] ({!Sg.View.make} [source]):
    the same verdict, without building the candidate. *)
val judge : source:Sg.t -> Sg.View.t -> (unit, invalid_reason) result

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
