(** A small fixed-size work pool for streaming fan-out.

    On OCaml >= 5 the backend spawns [jobs - 1] worker {!Domain}s that park
    until a {!Stream} session starts; the calling domain helps run the
    session's jobs while it waits.  On OCaml 4.x a sequential backend with
    the identical interface is selected at build time (see
    [lib/pool/dune]), so callers never need a version test.

    Determinism is the caller's: jobs publish their results into slots the
    caller reads back in an order of its own choosing (the reduction
    search merges in task order), so the only per-run variation is
    {e which} domain runs a job.  Sharing mutable state across jobs is the
    caller's problem too: see [Sg.force_analyses] for how the search
    freezes shared caches before fanning out. *)

type t

(** ["domains"] or ["sequential"] — which backend this binary was built
    with. *)
val backend : string

(** Recommended parallelism: [Domain.recommended_domain_count ()] on the
    domains backend, [1] on the sequential one. *)
val default_jobs : unit -> int

(** [create ~jobs] spawns up to [jobs - 1] worker domains (the caller
    counts as one).  Past the runtime's limit on live domains it stops
    spawning and runs with the workers it got.  The sequential backend
    accepts any [jobs] and runs everything in the caller. *)
val create : jobs:int -> t

(** Effective parallelism: the workers plus the caller (always [1] on the
    sequential backend). *)
val jobs : t -> int

(** Stop and join the worker domains.  The pool must not be used
    afterwards. *)
val shutdown : t -> unit

(** [with_pool ~jobs f] — {!create}, run [f], always {!shutdown}. *)
val with_pool : jobs:int -> (t -> 'a) -> 'a

(** Raised by {!Stream.submit} on a session that {!Stream.finish} has
    already closed — a session producer that outlives its session is a
    bug that must fail loudly, not enqueue into the void. *)
exception Stream_finished

(** Streaming work sessions.  A session turns every pool worker into a
    long-lived consumer of one FIFO job queue: the caller
    {!Stream.submit}s thunks at any time and {!Stream.wait}s on a result
    predicate, running queued jobs itself meanwhile.  Because submission
    and execution overlap, a producer that learns of new work while
    earlier jobs are still running (the reduction search merging one beam
    level while the next level's candidates evaluate) never re-parks the
    workers between waves.

    Protocol: {!Stream.start} occupies the pool — no second session may
    run until {!Stream.finish}.  Jobs must trap their own exceptions and
    publish their results through memory the caller polls via
    {!Stream.wait}'s predicate (idiomatically: plain writes followed by an
    [Atomic.set] flag, read back with [Atomic.get]); a job that escapes
    with an exception is swallowed by the backstop and its results are
    simply absent.  [wait]'s predicate must be satisfiable by already
    submitted jobs, else the sequential backend raises and the domains
    backend can block. *)
module Stream : sig
  type session

  (** Open a session and put every worker into job-draining mode. *)
  val start : t -> session

  (** Enqueue a job.  Wakes a parked worker (or the waiting caller).
      @raise Stream_finished after {!finish}. *)
  val submit : session -> (unit -> unit) -> unit

  (** [wait s ready] blocks until [ready ()]; while waiting the caller
      runs queued jobs and otherwise sleeps until a completion or
      submission signal.  [ready] may be called many times and from under
      the session lock — keep it cheap and side-effect free. *)
  val wait : session -> (unit -> bool) -> unit

  (** Number of jobs executed by pool workers (not the caller) so far —
      always [0] on the sequential backend.  Feeds the [search.steal]
      counter. *)
  val stolen : session -> int

  (** Run the jobs still queued (the caller helps), return once every
      submitted job has finished, and release the pool for the next
      session. *)
  val finish : session -> unit
end

(** A string-keyed memo table shared {e across} domains — the cross-arm
    table of the portfolio search.  On the domains backend the map is
    striped over 64 independent mutexes (keys hashed to a stripe), so
    concurrent readers and writers on different stripes never contend;
    the sequential backend is a plain hash table.

    Determinism contract (first-writer-wins): {!publish} on a key that is
    already present changes nothing and returns [false].  Provided every
    writer derives the value {e deterministically from the key} — the
    table memoizes a pure function — which domain wins a publish race is
    unobservable: every reader sees the same value or none. *)
module Smemo : sig
  type 'a t

  (** An empty table. *)
  val create : unit -> 'a t

  val find : 'a t -> string -> 'a option

  (** [publish t key v] — insert unless present; [true] iff inserted. *)
  val publish : 'a t -> string -> 'a -> bool
end

(** Domain-local storage with a sequential fallback: on the domains backend
    this is [Domain.DLS] (one instance per domain, created on first
    access), on the sequential backend a single lazily created instance.

    This is the supported way to give a memo table to code that runs
    inside pool jobs: each domain fills its own copy, so there is no
    locking and no cross-domain mutation.  Results stay deterministic as
    long as the memoized computation is — every domain's table converges
    to the same entries. *)
module Dls : sig
  type 'a key

  (** [new_key f] — a new slot whose per-domain initial value is [f ()]. *)
  val new_key : (unit -> 'a) -> 'a key

  (** The calling domain's instance, created with the key's initializer on
      first access. *)
  val get : 'a key -> 'a
end
