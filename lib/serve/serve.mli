(** [astg serve]: a long-running synthesis service.

    Clients connect over a Unix or TCP socket and exchange
    newline-delimited JSON: one request per line, one response line per
    request, on the same connection.  Request kinds mirror the CLI
    ([check]/[synth]/[reduce] with the same options, plus a live
    [metrics] probe); the response payload for a compute request is the
    {e exact bytes} the corresponding [astg] CLI invocation prints,
    because both call the same {!Core.Cli} renderers.

    Scheduling is fair FIFO-per-client over {!Pool}: each connection
    owns a FIFO queue, a dispatcher services queues round-robin with at
    most one request of a given client in flight (so responses arrive in
    request order per client), and compute runs as jobs of the server's
    pool across its domains, bounded by [max_inflight].  A connection
    with nothing queued or in flight has its cache hits and request
    errors answered on arrival by its own reader thread; that keeps the
    order too, since only a connection's reader queues for it.  Only [metrics] and the [busy] and
    [oversized] errors may overtake a client's earlier requests.
    Identical in-flight requests are coalesced (single-flight): the key
    is computed at most once and every waiter receives the same payload
    bytes.

    Results are cached content-addressed in two tiers: an in-memory LRU
    and an optional on-disk tier (one file per key, written
    atomically via rename, checksum-validated on load — a corrupt entry
    is silently evicted and recomputed) that survives restarts.  The
    cache key is the MD5 of the spec's canonical [Stg.Io.print] fixpoint
    text together with the normalized option record
    ({!Ops.canonical}), so semantically identical requests cannot miss
    on option spelling or ordering.  The canonical text is memoized by
    the request's exact spec bytes, so a repeated spec is not parsed
    again unless its result must be computed.

    Degradation is graceful and typed: a malformed or oversized request
    line yields an error response without tearing down the connection, a
    full queue yields a [busy] response, a per-request deadline (when
    configured) yields a [timeout] response while the late result still
    lands in the cache, and a client that disconnects mid-request only
    loses its own responses.

    Protocol (one JSON object per line):

    {v
    -> {"id":"r1","op":"check","spec":".model ...\n....end\n"}
    <- {"id":"r1","ok":true,"cached":false,"tier":"compute",
        "result":{"output":"consistent: ...\n"}}
    -> {"id":2,"op":"reduce","spec":"...",
        "options":{"w":0.5,"portfolio":[0.3,0.7],"stg":true}}
    -> {"id":3,"op":"metrics"}
    <- {"id":"r9","ok":false,
        "error":{"kind":"busy","message":"queue full (64 queued)"}}
    v}

    Error kinds: ["parse"], ["oversized"], ["op"] (unknown op or bad
    options), ["spec"] (.g parse failure), ["busy"], ["timeout"],
    ["failed"] (the flow itself reported an error, e.g. realization
    failure), ["internal"]. *)

(** The wire codec ({!Json}), under the name its callers already use. *)
module Json = Json

module Ops : sig
  (** A compute request: which CLI verb, with which (typed) options. *)
  type op =
    | Check
    | Synth of Core.Cli.synth_opts
    | Reduce of Core.Cli.reduce_opts

  type request =
    | Exec of op * string  (** op + raw [.g] spec text *)
    | Metrics

  (** Parse the ["op"]/["spec"]/["options"] fields of a request object.
      Unknown option fields are rejected (a typo must not silently
      become a different cache key).  [jobs] is accepted and normalized
      away: it never changes response bytes (every portfolio arm and the
      cross-arm table accounting are deterministic at any job count), so
      the server always computes sequentially per request. *)
  val request_of_json : Json.t -> (request, string) result

  (** Canonical spec text: parse the [.g] text and return the parsed
      STG together with its [Stg.Io.print] rendering (a string fixpoint
      per the PR 2 contract). *)
  val canonical_spec : string -> (Stg.t * string, string) result

  (** Canonical option record rendering, the second cache-key
      component: floats in hex ([%h]), [keep] pairs sorted and deduped,
      fields in fixed order; [jobs] excluded.  Equal
      semantics implies equal string. *)
  val canonical : op -> string

  (** [key ~spec op] — MD5 hex of canonical spec text + {!canonical}.
      [spec] must already be canonical. *)
  val key : spec:string -> op -> string

  (** Run the op exactly as the CLI would and return its stdout bytes. *)
  val run : op -> Stg.t -> (string, string) result
end

module Cache : sig
  (** The two-tier content-addressed result cache. *)
  type t

  type tier = [ `Mem | `Disk ]

  (** [create ?mem_entries ?dir ()] — an LRU of [mem_entries] (default
      256) response payloads, backed by one file per key under [dir]
      when given ([dir] is created as needed).  Disk entries carry a
      checksum header, are written to a temp file and renamed into
      place, and survive restarts. *)
  val create : ?mem_entries:int -> ?dir:string -> unit -> t

  (** Memory first, then disk (validated and promoted to memory on
      hit; corrupt entries are unlinked and counted as
      [serve.disk.corrupt]). *)
  val find : t -> string -> (string * tier) option

  val store : t -> string -> string -> unit
  val mem_len : t -> int
end

(** Where a server listens (and a client connects).  [`Tcp port] binds
    the IPv4 loopback; port [0] picks an ephemeral port — read it back
    with {!Server.addr}. *)
type addr = [ `Unix of string | `Tcp of int ]

module Server : sig
  type t

  (** Start a server.  [workers] (default {!Pool.default_jobs}) is the
      number of concurrent compute slots: the pool is created with
      [workers + 1] jobs so [workers] pool domains execute requests
      while the dispatcher thread only schedules (on the sequential
      backend the dispatcher computes inline, one request at a time).
      [mem_entries] (default 256) bounds both the in-memory result tier
      and the memo of canonical spec texts.
      [timeout_ms = 0] (default) disables deadlines.  Recording
      ({!Obs.set_enabled}) is switched on: the serve counters, gauges
      and latency reservoirs back the [metrics] response. *)
  val start :
    ?workers:int ->
    ?mem_entries:int ->
    ?cache_dir:string ->
    ?queue_bound:int ->
    ?max_inflight:int ->
    ?timeout_ms:int ->
    ?max_request_bytes:int ->
    addr ->
    t

  (** The listening address, with the actual port for [`Tcp 0]. *)
  val addr : t -> addr

  (** Stop accepting, close every connection, drain in-flight work,
      release the pool.  Idempotent. *)
  val stop : t -> unit
end

module Client : sig
  (** A minimal blocking client, used by the test suites, the bench and
      [astg client].  One request/response per call; a line-buffered
      reader handles fragmented responses. *)
  type t

  val connect : addr -> t

  val send_line : t -> string -> unit

  (** Next response line (without the newline); [None] on EOF. *)
  val recv_line : t -> string option

  (** [request t line] — {!send_line} then {!recv_line}.
      @raise Failure on EOF. *)
  val request : t -> string -> string

  (** {!request} through {!Json.to_string}/{!Json.parse}. *)
  val request_json : t -> Json.t -> Json.t

  val close : t -> unit
end
