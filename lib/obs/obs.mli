(** Flow-wide observability: tracing spans, named counters/gauges, and
    exporters (Chrome [trace_event] JSON, plain-text summary table).

    Design constraints (see DESIGN.md, "Observability"):

    - {b Zero behavioural impact.}  Nothing recorded here ever feeds back
      into a computation: spans only time code, counters only accumulate.
      Enabling or disabling tracing must leave every flow result
      byte-identical — the differential suite in [test/test_obs.ml] holds
      the instrumentation to that contract.
    - {b No-op fast path.}  When disabled (the default), every entry point
      is a single atomic load and a branch; hot paths (per-candidate spans
      in the reduction search, per-arc-filter counters) stay well under the
      2% overhead budget on [search_optimize_lr].
    - {b Domain safety.}  Span events go to per-domain buffers
      ({!Pool.Dls}: no locking, no cross-domain mutation); counters and
      gauges are process-global [Atomic]s.  Buffers are merged
      deterministically at export: buffers in thread-id order, events of
      one buffer in record order (timestamps are clamped monotone
      per domain at record time).

    Tracing starts disabled; [ASYNC_REPRO_TRACE=1] in the environment
    enables it at program start (the CI tier-1 job runs the whole suite
    this way and uploads the resulting trace). *)

(** [true] when recording is on. *)
val enabled : unit -> bool

(** Turn recording on or off (process-global). *)
val set_enabled : bool -> unit

(** {2 Spans} *)

(** [span ?args name f] — run [f ()] inside a span named [name]; the span
    closes (well-nested) even if [f] raises.  [args] become the Chrome
    event's [args] object.  When disabled: exactly [f ()]. *)
val span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a

(** Raw begin/end pair for call sites where a closure is unwanted.  The
    caller is responsible for pairing and nesting ([span_end] closes the
    innermost open span of the calling domain; the name is recorded for
    the exporters).  Prefer {!span}. *)
val span_begin : ?args:(string * string) list -> string -> unit

val span_end : string -> unit

(** {2 Counters and gauges} *)

module Counter : sig
  (** A named monotone counter backed by a process-global [Atomic].
      Increments from any domain; totals are exact (the QCheck suite
      checks totals against per-domain increment sums under concurrent
      {!Pool} tasks).  Increments are dropped while disabled. *)
  type t

  (** [make name] — the counter registered under [name], creating it on
      first use ([make] is idempotent per name; lock-free). *)
  val make : string -> t

  val name : t -> string
  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
end

module Gauge : sig
  (** A named last-value-wins gauge.  Sets are dropped while disabled. *)
  type t

  val make : string -> t
  val name : t -> string
  val set : t -> int -> unit
  val value : t -> int
end

module Latency : sig
  (** A named bounded reservoir of latency samples (milliseconds): the
      last [cap] samples in a ring guarded by a mutex, with percentile
      snapshots sorted on demand.  Feeds the p50/p99 figures of the
      [astg serve] metrics response.  Samples are dropped while
      recording is disabled; {!reset} empties every reservoir. *)
  type t

  type stats = {
    count : int;  (** samples recorded since the last reset, uncapped *)
    p50 : float;
    p99 : float;
    max : float;  (** over the retained window only *)
  }

  (** [make ?cap name] — the reservoir registered under [name], created
      on first use (idempotent per name; [cap] defaults to 4096 and is
      fixed by the first call). *)
  val make : ?cap:int -> string -> t

  val name : t -> string
  val record : t -> float -> unit
  val stats : t -> stats
end

(** All registered counters as [(name, value)], sorted by name. *)
val counters : unit -> (string * int) list

(** All registered gauges as [(name, value)], sorted by name. *)
val gauges : unit -> (string * int) list

(** {2 Recording limits} *)

(** Per-domain span-event cap (default 65536).  When a domain's buffer is
    full, further spans are dropped {e whole} — begin and matching end —
    so exported traces stay well-nested; already-open spans still record
    their ends.  Counters are never capped. *)
val set_event_cap : int -> unit

(** Spans dropped by the cap since the last {!reset}. *)
val dropped_events : unit -> int

(** {2 Snapshot control} *)

(** Zero every counter and gauge and drop every recorded span event.
    Only call when no other domain is recording (between pool batches /
    searches): buffer truncation is not synchronized. *)
val reset : unit -> unit

(** {2 Exporters} *)

(** Merged span events, for tests and custom exporters: [(tid, name, ph,
    ts_us)] with [ph] ['B'] or ['E'] and [ts_us] microseconds from the
    earliest recorded event.  Buffers in tid order, events of one buffer
    in record order; timestamps are non-decreasing per tid. *)
val events : unit -> (int * string * char * float) list

(** Plain-text summary: counters, gauges, and per-span-name aggregates
    (count, total milliseconds).  Appended to reports by callers that
    opted in (e.g. [astg --metrics]); see {!Core.metrics_summary}. *)
val summary : unit -> string

(** Chrome [trace_event] JSON (one event per line, [ts] in microseconds
    rounded to 3 decimals), loadable in Perfetto ([ui.perfetto.dev]) or
    [about://tracing]. *)
val chrome_trace : unit -> string

module Chrome : sig
  (** Validator for any Chrome trace JSON document (a [traceEvents]
      object or a bare event array, in any layout): the text must parse,
      and among the [B]/[E] events, each with an integer [tid] and a
      numeric [ts], every [B] has a matching [E] (stack discipline per
      tid; an [E]'s name, when given, must agree), timestamps are
      non-decreasing per tid and no span is left open — the span walk
      {!summary} aggregates with. *)
  val validate : string -> (unit, string) result

  (** Replace every ["ts":<number>] with ["ts":0] — the timestamp scrub
      used by the golden exporter tests. *)
  val scrub_timestamps : string -> string
end
