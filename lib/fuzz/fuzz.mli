(** Differential fuzzing of the full synthesis flow.

    One {e case} is a random spec from one of the {!Gen} generator classes
    (series-parallel, free-choice, asymmetric-choice), driven through the
    whole pipeline: [.g] print/parse round-trip, SG construction,
    {!Search.optimize} under both evaluation modes ([`Scratch]/[`Delta])
    sequentially and pooled — all four outcomes must be byte-identical —
    a netlist arm (CSC-resolve the spec, build the hash-consed
    {!Netlist}, and on every reachable state cross-check the one-pass
    simulator against direct cover evaluation and the {!Circuit.conforms}
    verdict against the direct-semantics verdict; unresolvable specs skip
    the arm) — then STG realization of the best reduced SG (causality
    places, falling back to region synthesis) and verification.

    Every failure is {e triaged} into a fixed taxonomy (crash /
    inconsistent / divergence / verify-fail), minimized with the
    generators' structural shrinkers, written to a corpus directory as a
    self-describing [.g] repro, and tallied in a deterministic JSON
    report: the same base seed always produces the same corpus and the
    same report bytes (observability counters are captured only over the
    sequential runs, with the calling domain's cover cache cleared per
    case). *)

(** Why a case failed.  [Crash] carries the pipeline phase and the
    exception; [Inconsistent] means a by-construction-consistent spec was
    rejected by {!Sg.of_stg} (a generator or SG bug); [Divergence] names
    the pair of runs that disagreed (print/parse round-trip, or an
    evaluation-mode/scheduling combination vs the sequential scratch
    reference); [Verify_fail] means the realized STG did not reproduce
    the reduced SG. *)
type failure_kind =
  | Crash of { phase : string; exn_text : string }
  | Inconsistent of string
  | Divergence of string
  | Verify_fail of string

(** [Unrealizable] is a classified non-failure: the best reduced SG lies
    outside the class region synthesis handles ({!Regions.unsupported})
    — expected for choice-heavy nets, recorded in the report but not a
    bug. *)
type outcome = Pass | Unrealizable of Regions.unsupported | Fail of failure_kind

(** Taxonomy tag of a failure kind: ["crash"], ["inconsistent"],
    ["divergence"], ["verify-fail"]. *)
val kind_tag : failure_kind -> string

(** Tag of an outcome: ["pass"], ["unrealizable:<why>"], or the failure's
    {!kind_tag}. *)
val outcome_tag : outcome -> string

(** One triaged, minimized failure. *)
type failure = {
  f_cls : Gen.cls;
  f_seed : int;  (** the case seed (base seed + case index) *)
  f_kind : failure_kind;  (** kind after minimization *)
  f_case : Gen.case;  (** minimized case *)
  f_orig : Gen.case;  (** the case as generated *)
  f_shrink_steps : int;  (** successful shrink descents *)
  f_repro : string;  (** minimized spec, [.g] text *)
  f_file : string option;  (** corpus file name, when written *)
}

type report = {
  r_seed : int;
  r_count : int;
  r_classes : Gen.cls list;
  r_jobs : int;
  r_max_signals : int;
  r_cases : (Gen.cls * int) list;  (** cases generated per class *)
  r_outcomes : (string * int) list;  (** outcome tag -> count, sorted *)
  r_failures : failure list;  (** in case order *)
  r_counters : (string * int) list;
      (** {!Obs} counter deltas over the sequential portions of the run,
          sorted by name; deterministic per seed *)
}

(** Run one case through the full flow: round-trip, SG, the search in
    every eval mode (sequential, and pooled when [pool] is given), a
    two-arm {!Search.portfolio} run (sequential, and pooled) checked
    arm-by-arm against standalone searches, netlist cross-checks and
    realization.  [record] (default false) turns observability recording
    on for the sequential searches and off for the pooled ones (so
    captured counters stay deterministic); the calling domain's
    {!Boolf.Memo} table is cleared first either way. *)
val run_case : ?pool:Pool.t -> ?record:bool -> Gen.case -> outcome

(** [run ~count ~seed ()] fuzzes [count] cases, assigned round-robin over
    [classes] (default: all three), with case [i] seeded [seed + i].
    [jobs] (default 2) sizes the pool for the pooled arms.  With
    [corpus], minimized repros are written as
    [<class>-<seed>-<tag>.g] under that directory (created if needed).
    The global {!Obs} enabled flag is restored on exit. *)
val run :
  ?jobs:int ->
  ?classes:Gen.cls list ->
  ?max_signals:int ->
  ?corpus:string ->
  count:int ->
  seed:int ->
  unit ->
  report

(** Deterministic JSON rendering of a report (stable key order, no
    timestamps). *)
val report_to_json : report -> string

(** Plain-text one-line-per-tally summary for terminals. *)
val report_summary : report -> string
