(** Performance analysis: timed simulation of an STG and critical-cycle
    extraction (the paper's "cr.cycle" and "inp.events" columns).

    Semantics: a transition that becomes enabled at time [tau] fires at
    [tau + delay t]; among simultaneously schedulable transitions the
    earliest (lowest id on ties) fires first.  Time is integer — scale
    fractional delay models (e.g. the paper's PAR footnote: combinational 1,
    sequential 1.5, input 3 becomes 2/3/6).

    The simulation runs until the timed state (marking with token ages +
    pending event offsets) recurs; the recurrence period is the critical
    cycle length.  Every firing records its critical predecessor (the firing
    that produced its latest-arriving token); walking that chain backwards
    through one period yields the critical cycle and the number of input
    events on it. *)

type result = {
  period : int;  (** critical cycle length in time units *)
  input_events_on_cycle : int;
      (** input-signal events on the critical cycle (one period) *)
  cycle_events : Petri.trans list;
      (** the critical cycle, in reverse firing order, one period *)
  firings_per_period : int;  (** total transition firings in one period *)
}

(** The delay model used for Tables 1 and 2: input events 2, everything
    else 1. *)
val table_delays : Stg.t -> Petri.trans -> int

(** The PAR-component footnote model, scaled by 2: inputs 6, non-inputs
    [seq] if the driving logic is sequential else [comb] — approximated
    uniformly as 3 (sequential-ish) unless overridden. *)
val par_delays : Stg.t -> Petri.trans -> int

(** [analyze ~delays stg] simulates and extracts the critical cycle.
    Errors: deadlock reached, no recurrence within the horizon, or a
    critical chain that never closes (acyclic spec). *)
val analyze :
  ?horizon:int -> delays:(Petri.trans -> int) -> Stg.t -> (result, string) Result.t

(** {2 Exact analysis for marked graphs}

    For a marked-graph STG the critical cycle length is the maximum cycle
    ratio over all directed cycles [C] of the net:
    [sum of delays on C / sum of initial tokens on C].
    Computed exactly (binary search with Bellman-Ford positive-cycle
    detection, then rational recovery).

    A test oracle: no program path calls it.  [test_timing] checks
    {!analyze}'s period against it on marked graphs (the buffer, LR, a
    pipelined ring and random fork-joins). *)

(** [mcr ~delays stg] — the maximum cycle ratio as a reduced fraction
    [(numerator, denominator)].  Errors: the net is not a marked graph, or
    it has no token-carrying cycle. *)
val mcr :
  delays:(Petri.trans -> int) -> Stg.t -> (int * int, string) Result.t

(** {2 Timed analysis directly on state graphs}

    A speed-independent state graph carries enough information to replay
    the underlying partial order with delays: an event's timer starts when
    it becomes enabled and survives the firing of concurrent events
    (persistency).  This evaluates the performance of {e reduced} state
    graphs during the search without realizing an STG first.

    Delays are per label.  The SG must be deterministic; free input choice
    is resolved earliest-first like {!analyze}. *)

val analyze_sg :
  ?horizon:int ->
  delays:(Stg.label -> int) ->
  Sg.t ->
  (result, string) Result.t

(** Per-label version of the Table 1/2 model: inputs 2, others 1. *)
val table_label_delays : Stg.t -> Stg.label -> int
