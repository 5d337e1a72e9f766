(** The paper's end-to-end design flow (Fig. 4):

    {v
    spec --(handshake expansion)--> STG --(SG generation)-->
    SG --(concurrency reduction search)--> reduced SG
       --(CSC insertion, logic synthesis, timing)--> report
    v}

    This module glues the substrate libraries together and produces the
    area/performance rows of the paper's tables. *)

(** One implementation, fully characterized — a row of Table 1 / Table 2. *)
type report = {
  name : string;
  states : int;  (** SG size before CSC insertion *)
  csc_signals : int option;
      (** state signals inserted; [None] when resolution failed *)
  area : int option;  (** area in gate-library units; [None] when CSC failed *)
  critical_cycle : int option;
  input_events : int option;  (** input events on the critical cycle *)
  equations : string;  (** synthesized logic, one line per signal *)
  reductions : (Stg.label * Stg.label) list;
      (** concurrency reductions applied to reach this implementation *)
  verified : bool option;
      (** gate-level conformance of the decomposed netlist against the
          CSC-resolved state graph ({!Circuit.conforms}); [None] when no
          implementation was produced *)
  mapped_area : int option;
      (** area after technology mapping ({!Techmap.map_impl}); always at
          most [area] *)
  shared_area : int option;
      (** post-sharing area of the hash-consed netlist
          ({!Netlist.area}): each structurally shared node counted once,
          so always at most [area].  Not rendered in the table (whose
          layout matches the paper); bench and callers read it
          directly. *)
  feasible : bool option;
      (** outcome of a performance-constrained {!optimize}: [Some false]
          means no configuration met the [max_cycle] bound and the report
          describes the bound-violating initial fallback; [None] when no
          bound was requested. *)
}

val pp_report : Format.formatter -> report -> unit

(** Render a list of reports as the paper's table layout. *)
val render_table : title:string -> report list -> string

(** [implement ~name sg] — resolve CSC on the SG, synthesize logic
    ([style] defaults to [`Complex_gate]; [`Generalized_c] uses C-elements
    as in the paper's Fig. 3), and measure the critical cycle (default
    delays: inputs 2, gates 1, wires 0). *)
val implement :
  ?delays:(Stg.t -> Petri.trans -> int) ->
  ?max_csc:int ->
  ?style:Logic.style ->
  name:string ->
  Sg.t ->
  report

(** [implement_reduced ~name sg script] — apply the reduction script, then
    {!implement}; the report records the steps that actually applied. *)
val implement_reduced :
  ?delays:(Stg.t -> Petri.trans -> int) ->
  ?max_csc:int ->
  ?style:Logic.style ->
  name:string ->
  Sg.t ->
  (Stg.label * Stg.label) list ->
  report

(** [optimize ~name sg] — run the Fig. 9 beam search and implement the best
    configuration found.  With [pool], candidate evaluation fans out across
    the pool's domains with byte-identical results (see {!Search.optimize}).
    With [perf_delays] and [max_cycle], the search is
    performance-constrained and the report's [feasible] field says whether
    the bound was met (see {!Search.optimize}).  [area_mode] selects the
    candidate pricing objective ([`Tree] literals, the default, or
    [`Shared] post-sharing netlist area — see {!Search.area_mode}). *)
val optimize :
  ?pool:Pool.t ->
  ?delays:(Stg.t -> Petri.trans -> int) ->
  ?max_csc:int ->
  ?style:Logic.style ->
  ?w:float ->
  ?size_frontier:int ->
  ?keep_conc:Search.keep ->
  ?perf_delays:(Stg.label -> int) ->
  ?max_cycle:int ->
  ?area_mode:Search.area_mode ->
  name:string ->
  Sg.t ->
  report

(** [optimize_portfolio ~arms ~name sg] — run the {!Search.portfolio}
    search (one beam search per arm sharing a cross-arm signature table
    and, with [pool], one streaming session), then implement the winning
    arm's best configuration.  Returns the report together with the full
    per-arm portfolio outcome so callers can render the losing arms too.
    [on_improvement] streams the anytime best-so-far per arm on the
    caller's thread, in deterministic order (see {!Search.portfolio}). *)
val optimize_portfolio :
  ?pool:Pool.t ->
  ?delays:(Stg.t -> Petri.trans -> int) ->
  ?max_csc:int ->
  ?style:Logic.style ->
  ?size_frontier:int ->
  ?keep_conc:Search.keep ->
  ?perf_delays:(Stg.label -> int) ->
  ?max_cycle:int ->
  ?on_improvement:(arm:int -> Search.config -> unit) ->
  arms:Search.arm list ->
  name:string ->
  Sg.t ->
  report * Search.portfolio_outcome

(** [optimize_all specs] — {!optimize} over a [(name, sg)] batch, sharing
    one pool across every spec (heavy multi-spec traffic amortizes domain
    spawns).  Without [pool], a pool of {!Pool.default_jobs} workers is
    created for the batch and shut down afterwards.  Reports are returned
    in input order and are identical to per-spec {!optimize} results.

    With a non-empty [arms], each spec instead runs
    {!optimize_portfolio} over those arms ([w]/[area_mode] are ignored)
    and the report describes the winning arm's implementation. *)
val optimize_all :
  ?pool:Pool.t ->
  ?delays:(Stg.t -> Petri.trans -> int) ->
  ?max_csc:int ->
  ?style:Logic.style ->
  ?w:float ->
  ?size_frontier:int ->
  ?keep_conc:Search.keep ->
  ?perf_delays:(Stg.label -> int) ->
  ?max_cycle:int ->
  ?area_mode:Search.area_mode ->
  ?arms:Search.arm list ->
  ?on_improvement:(arm:int -> Search.config -> unit) ->
  (string * Sg.t) list ->
  report list

(** [Some (Obs.summary ())] when tracing/metrics recording is on, [None]
    otherwise.  Deliberately not folded into {!render_table}: reports are
    byte-identical with observability on or off (the differential suite
    in [test/test_obs.ml] checks exactly that), so the summary is a
    separate artifact callers append when asked to (e.g. [astg synth
    --metrics]). *)
val metrics_summary : unit -> string option

(** Convenience: SG of an STG or raise [Failure] with the error rendered. *)
val sg_exn : ?budget:int -> Stg.t -> Sg.t

(** Label by name, e.g. ["li-"], in the given STG.
    @raise Not_found when no transition carries it. *)
val lab : Stg.t -> string -> Stg.label

(** The bodies of the [astg check]/[synth]/[reduce] commands as pure
    text renderers.  [bin/astg] prints these strings verbatim and the
    synthesis service ([lib/serve]) returns them as response payloads,
    which is what makes "serve output = CLI output" hold by construction
    (and content-addressed caching of responses sound: the whole flow is
    deterministic in the spec and the option record). *)
module Cli : sig
  type emit_backend = [ `Verilog | `Blif ]

  type synth_opts = {
    max_csc : int;  (** [--max-csc], default 6 *)
    emit : emit_backend list;
        (** [--emit], in order; order and repetition are semantic (each
            entry appends one netlist rendering) *)
  }

  type reduce_opts = {
    w : float;  (** [--w], default 0.8 *)
    frontier : int;  (** [--frontier], default 4 *)
    keeps : (string * string) list;  (** [--keep] pairs, by label name *)
    print_stg : bool;  (** [--stg] *)
    area_mode : Search.area_mode;  (** [--area-model], default [`Tree] *)
    portfolio : float list;
        (** [--portfolio] weights in arm order; [[]] = single search *)
    jobs : int;  (** [--jobs]; never changes bytes *)
  }

  val default_synth : synth_opts
  val default_reduce : reduce_opts

  (** [astg check] output (SG failures render as ["consistent: no"],
      matching the CLI's exit-0 behaviour). *)
  val check_text : Stg.t -> string

  (** [astg synth] output, or [Error msg] where the CLI would fail. *)
  val synth_text : synth_opts -> Stg.t -> (string, string) result

  (** [astg reduce] output (improvement stream, summaries, winner, and
      with [print_stg] the realized STG), or [Error msg] where the CLI
      would fail. *)
  val reduce_text : reduce_opts -> Stg.t -> (string, string) result
end
