(** A small fixed-size work pool for embarrassingly parallel fan-out.

    On OCaml >= 5 the backend spawns [jobs - 1] worker {!Domain}s that park
    between batches; the calling domain participates in every batch.  On
    OCaml 4.x a sequential backend with the identical interface is selected
    at build time (see [lib/pool/dune]), so callers never need a version
    test.

    Determinism contract: [map_array t f a] returns exactly
    [Array.map f a] — results land at the index of their input, whatever
    the scheduling — provided [f] is pure up to commutative-and-idempotent
    memoization (filling a cache that any worker would fill with the same
    value).  Work distribution is dynamic (an atomic next-index counter),
    so the only per-run variation is *which* worker evaluates an element,
    never the result array.

    Sharing mutable state across [f] invocations is the caller's problem:
    see [Sg.force_analyses] for how the reduction search freezes shared
    caches before fanning out. *)

type t

(** ["domains"] or ["sequential"] — which backend this binary was built
    with. *)
val backend : string

(** Recommended parallelism: [Domain.recommended_domain_count ()] on the
    domains backend, [1] on the sequential one. *)
val default_jobs : unit -> int

(** [create ~jobs] spawns a pool of [max 1 jobs] total workers (the caller
    counts as one).  The sequential backend accepts any [jobs] and runs
    everything in the caller. *)
val create : jobs:int -> t

(** Effective parallelism: number of domains that participate in a batch
    (always [1] on the sequential backend). *)
val jobs : t -> int

(** [map_array t f a] — order-preserving parallel map.  If some [f]
    raises, the batch still drains and the first recorded exception is
    re-raised (which exception is "first" is scheduling-dependent). *)
val map_array : t -> ('a -> 'b) -> 'a array -> 'b array

(** [map_list t f l] — {!map_array} through a list round-trip. *)
val map_list : t -> ('a -> 'b) -> 'a list -> 'b list

(** Stop and join the worker domains.  The pool must not be used
    afterwards. *)
val shutdown : t -> unit

(** [with_pool ~jobs f] — {!create}, run [f], always {!shutdown}. *)
val with_pool : jobs:int -> (t -> 'a) -> 'a

(** Raised by {!Stream.submit} on a session that {!Stream.finish} has
    already closed — a session producer that outlives its session is a
    bug that must fail loudly, not enqueue into the void. *)
exception Stream_finished

(** Streaming work sessions — the barrier-free alternative to
    {!map_array}.  A session turns every pool worker into a long-lived
    consumer of one FIFO job queue: the caller {!Stream.submit}s thunks at
    any time, {!Stream.help}s run them itself, and {!Stream.wait}s on a
    result predicate while staying work-conserving.  Because submission
    and execution overlap, a producer that learns of new work while
    earlier jobs are still running (the reduction search merging one beam
    level while the next level's candidates evaluate) never re-parks the
    workers between waves.

    Protocol: {!Stream.start} occupies the pool — no {!map_array} batch
    and no second session may run until {!Stream.finish}.  Jobs must trap
    their own exceptions and publish their results through memory the
    caller polls via {!Stream.wait}'s predicate (idiomatically: plain
    writes followed by an [Atomic.set] flag, read back with [Atomic.get]);
    a job that escapes with an exception is swallowed by the backstop and
    its results are simply absent.  [wait]'s predicate must be satisfiable
    by already submitted jobs, else the sequential backend raises and the
    domains backend can block.  The scheduling is dynamic, so only
    {e which} domain runs a job varies between runs — determinism is the
    caller's in-order merge, exactly as with {!map_array}. *)
module Stream : sig
  type session

  (** Open a session and put every worker into job-draining mode. *)
  val start : t -> session

  (** Enqueue a job.  Wakes a parked worker (or the waiting caller).
      @raise Stream_finished after {!finish}. *)
  val submit : session -> (unit -> unit) -> unit

  (** Run one queued job in the caller; [false] if the queue was empty. *)
  val help : session -> bool

  (** [wait s ready] blocks until [ready ()]; while waiting the caller
      runs queued jobs ([help]) and otherwise sleeps until a completion
      or submission signal.  [ready] may be called many times and from
      under the session lock — keep it cheap and side-effect free. *)
  val wait : session -> (unit -> bool) -> unit

  (** Number of jobs executed by pool workers (not the caller) so far —
      always [0] on the sequential backend.  Feeds the [search.steal]
      counter. *)
  val stolen : session -> int

  (** Drain remaining jobs, stop the workers' draining loops and release
      the pool for the next batch or session. *)
  val finish : session -> unit
end

(** A string-keyed memo table shared {e across} domains — the cross-arm
    signature table of the portfolio search.  On the domains backend the
    map is striped over [stripes] independent mutexes (keys hashed to a
    stripe), so concurrent readers and writers on different stripes never
    contend; the sequential backend is a plain hash table.

    Determinism contract (first-writer-wins): {!publish} on a key that is
    already present changes nothing and returns [false].  Provided every
    writer derives the value {e deterministically from the key} — the
    table memoizes a pure function — which domain wins a publish race is
    unobservable: every reader sees the same value or none. *)
module Smemo : sig
  type 'a t

  (** [create ~stripes ()] — an empty table.  [stripes] (default 64) is
      rounded up to a power of two; ignored on the sequential backend. *)
  val create : ?stripes:int -> unit -> 'a t

  val find : 'a t -> string -> 'a option

  (** [publish t key v] — insert unless present; [true] iff inserted. *)
  val publish : 'a t -> string -> 'a -> bool

  (** Total number of entries (takes every stripe lock; a snapshot only
      if no writers are active). *)
  val length : 'a t -> int
end

(** Domain-local storage with a sequential fallback: on the domains backend
    this is [Domain.DLS] (one instance per domain, created on first
    access), on the sequential backend a single lazily created instance.

    This is the supported way to give a memo table to code that runs inside
    {!map_array} workers: each domain fills its own copy, so there is no
    locking and no cross-domain mutation.  The {!map_array} determinism
    contract is preserved as long as the memoized computation is
    deterministic — every domain's table converges to the same entries. *)
module Dls : sig
  type 'a key

  (** [new_key f] — a new slot whose per-domain initial value is [f ()]. *)
  val new_key : (unit -> 'a) -> 'a key

  (** The calling domain's instance, created with the key's initializer on
      first access. *)
  val get : 'a key -> 'a
end
