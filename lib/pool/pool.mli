(** A small fixed-size work pool for streaming fan-out: the worker
    domains behind [astg serve].

    On OCaml >= 5 the backend spawns [jobs - 1] worker {!Domain}s that park
    until a {!Stream} session starts; the calling domain helps run the
    session's jobs when it finishes the session.  On OCaml 4.x a
    sequential backend with the identical interface is selected at build
    time (see [lib/pool/dune]), so callers never need a version test.

    Jobs publish their own results, and sharing mutable state across jobs
    is the caller's problem: the supported way to give pool jobs a memo
    table or scratch buffer is {!Dls}. *)

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

(** Raised by {!Stream.submit} on a session that {!Stream.finish} has
    already closed — a session producer that outlives its session is a
    bug that must fail loudly, not enqueue into the void. *)
exception Stream_finished

(** Streaming work sessions.  A session turns every pool worker into a
    long-lived consumer of one FIFO job queue: the caller {!Stream.submit}s
    thunks at any time, and the workers run them as they arrive.

    Protocol: {!Stream.start} occupies the pool — no second session may
    run until {!Stream.finish}.  Jobs must trap their own exceptions and
    publish their results themselves; a job that escapes with an
    exception is swallowed by the backstop and its results are simply
    absent. *)
module Stream : sig
  type session

  (** Open a session and put every worker into job-draining mode. *)
  val start : t -> session

  (** Enqueue a job.  Wakes a parked worker.
      @raise Stream_finished after {!finish}. *)
  val submit : session -> (unit -> unit) -> unit

  (** Close the session, run the jobs still queued (the caller helps),
      return once every submitted job has finished, and release the pool
      for the next session. *)
  val finish : session -> unit
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
