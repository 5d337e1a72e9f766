(** A small fixed-size work pool: the worker domains behind [astg serve].

    On OCaml >= 5 the backend spawns [jobs - 1] worker {!Domain}s that
    run submitted jobs from one FIFO queue as they arrive; the calling
    domain helps run what is still queued when it shuts the pool down.
    On OCaml 4.x a sequential backend with the identical interface is
    selected at build time (see [lib/pool/dune]): it queues the jobs and
    runs them on the caller at {!shutdown}, so callers never need a
    version test.

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
    accepts any [jobs] and spawns nothing. *)
val create : jobs:int -> t

(** Effective parallelism: the workers plus the caller (always [1] on the
    sequential backend). *)
val jobs : t -> int

(** Enqueue a job.  Jobs must trap their own exceptions and publish
    their results themselves; a job that escapes with an exception is
    swallowed by the backstop and its results are simply absent.  A job
    sees everything the caller wrote before submitting it.
    @raise Invalid_argument after {!shutdown}: a producer that outlives
    its pool is a bug that must fail loudly, not enqueue into the void. *)
val submit : t -> (unit -> unit) -> unit

(** Close the queue, run every job still queued (the caller helps), and
    join the worker domains.  Once it returns, every submitted job has
    finished and its writes are visible to the caller.  The pool takes no
    job afterwards. *)
val shutdown : t -> unit

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
