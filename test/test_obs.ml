(* Differential and property tests for the observability layer (lib/obs).

   The contract under test (DESIGN.md, "Observability"): recording spans
   and counters has ZERO behavioural impact — every flow result is
   byte-identical with tracing enabled or disabled, on the calling domain
   and as concurrent jobs of a pool (as [astg serve] runs its computes) — and the exported artifacts are structurally sound
   (well-nested per domain, monotone timestamps, Perfetto-loadable JSON).

   Golden tests pin the summary table and the Chrome trace for one fixed
   sequential flow; regenerate the .expected files with
   ASYNC_REPRO_BLESS=1 after an intentional taxonomy change. *)

(* The width of the pools the cross-domain tests run on: ASYNC_REPRO_JOBS,
   4 by default. *)
let jobs =
  match Sys.getenv_opt "ASYNC_REPRO_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j >= 1 -> j
      | _ -> 4)
  | None -> 4

(* Run [f] on every element of [xs] as the jobs of a pool opened for the
   batch; [Pool.shutdown] returns once every job has run. *)
let in_pool f xs =
  let p = Pool.create ~jobs in
  List.iter (fun x -> Pool.submit p (fun () -> f x)) xs;
  Pool.shutdown p

(* [List.map f xs] with every [f x] one job of a pool, so the calls run
   concurrently across the pool's domains.  Each job must build its own
   graphs: an SG's analysis caches are not shared across domains. *)
let map_in_pool f xs =
  let out = Array.make (List.length xs) None in
  in_pool
    (fun (i, x) ->
      out.(i) <- Some (match f x with v -> Ok v | exception e -> Error e))
    (List.mapi (fun i x -> (i, x)) xs);
  Array.to_list out
  |> List.map (function
       | Some (Ok v) -> v
       | Some (Error e) -> raise e
       | None -> Alcotest.fail "a pool job did not run")

(* Run [f] with recording forced on/off, restoring the previous state
   (the CI tier-1 job runs the whole suite under ASYNC_REPRO_TRACE=1, so
   tests must not clobber it). *)
let with_enabled on f =
  let was = Obs.enabled () in
  Obs.set_enabled on;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) f

(* ------------------------------------------------------------------ *)
(* Differential: enabled vs disabled runs must be byte-identical.      *)

(* [run map] runs a batch of flows through [map] and renders each result
   as a (name, text) pair.  Recording off and on must render the same,
   with the batch on the calling domain ([List.map], "seq") and spread
   over a pool ([map_in_pool], "pool"). *)
let check_on_off run =
  List.iter
    (fun (mode, map) ->
      let off = with_enabled false (fun () -> run map) in
      let on = with_enabled true (fun () -> run map) in
      List.iter2
        (fun (name, a) (_, b) ->
          Alcotest.(check string)
            (Printf.sprintf "%s %s on=off" name mode)
            a b)
        off on)
    [ ("seq", List.map); ("pool", map_in_pool) ]

(* Paper specs, at the bench's search parameters. *)
let test_differential_named () =
  check_on_off (fun map ->
      map
        (fun (name, stg) ->
          ( name,
            Fuzz.outcome_repr stg
              (Search.optimize ~w:0.8 ~size_frontier:4 (Gen.sg_exn stg)) ))
        (Test_search.named_specs ()));
  Obs.reset ()

(* Full end-to-end reports — pretty-printed row, rendered table and
   synthesized equations — through Core.optimize, each spec's flow one
   pool job in the pooled half. *)
let test_differential_report () =
  let render (r : Core.report) =
    Core.render_table ~title:"obs-diff" [ r ]
    ^ Format.asprintf "%a@.%s" Core.pp_report r r.Core.equations
  in
  check_on_off (fun map ->
      map
        (fun (name, stg) ->
          ( name,
            render
              (Core.optimize ~w:0.8 ~size_frontier:4 ~name (Gen.sg_exn stg))
          ))
        (Test_search.named_specs ()));
  Obs.reset ()

(* Every .g file shipped under examples/data (skipping any the SG
   builder rejects — the differential only applies to flows that run). *)
let test_differential_examples () =
  List.iter
    (fun (file, path) ->
      let stg = Stg.Io.parse_file path in
      match Sg.of_stg stg with
      | Error _ -> ()
      | Ok sg ->
          let repr = Fuzz.outcome_repr stg in
          let run () = Search.optimize ~size_frontier:2 sg in
          let off = with_enabled false run in
          let on = with_enabled true run in
          Alcotest.(check string) (file ^ " on=off") (repr off) (repr on))
    (Test_roundtrip.g_files ());
  Obs.reset ()

(* 100 seeded random series-parallel STGs, ten to a batch.  Resets
   between batches keep the span buffers bounded on tracing-enabled CI
   runs (the per-domain event cap would otherwise engage and hide real
   events from the uploaded trace). *)
let test_differential_random () =
  for batch = 0 to 9 do
    let specs =
      List.init 10 (fun i ->
          let seed = (10 * batch) + i in
          (Printf.sprintf "seed %d" seed, Gen.random_stg ~max_signals:6 seed))
    in
    check_on_off (fun map ->
        map
          (fun (name, stg) ->
            ( name,
              Fuzz.outcome_repr stg
                (Search.optimize ~size_frontier:2 (Gen.sg_exn stg)) ))
          specs);
    Obs.reset ()
  done

(* ------------------------------------------------------------------ *)
(* QCheck: structural soundness of the recorded/merged/exported spans. *)

type stree = Leaf | Node of int * stree list

let rec exec_tree = function
  | Leaf -> Obs.span "t.leaf" (fun () -> ())
  | Node (k, kids) ->
      Obs.span (Printf.sprintf "t.n%d" k) (fun () -> List.iter exec_tree kids)

let rec tree_size = function
  | Leaf -> 1
  | Node (_, kids) -> 1 + List.fold_left (fun a t -> a + tree_size t) 0 kids

let gen_tree =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        if n <= 0 then return Leaf
        else
          frequency
            [
              (1, return Leaf);
              ( 3,
                map2
                  (fun k kids -> Node (k, kids))
                  (int_bound 3)
                  (list_size (int_bound 3) (self (n / 2))) );
            ]))

let arb_forest =
  QCheck.make
    ~print:(fun ts ->
      Printf.sprintf "forest of %d trees, %d spans" (List.length ts)
        (List.fold_left (fun a t -> a + tree_size t) 0 ts))
    QCheck.Gen.(list_size (int_bound 8) gen_tree)

(* Execute a forest of span trees across the pool's domains and return
   the merged event stream. *)
let record_forest forest =
  with_enabled true (fun () ->
      Obs.reset ();
      in_pool exec_tree forest);
  let evs = Obs.events () in
  Obs.reset ();
  evs

(* Stack discipline per tid: every E closes the innermost open B of the
   same name, timestamps are non-decreasing per tid, nothing left open. *)
let well_nested evs =
  let stacks : (int, string list) Hashtbl.t = Hashtbl.create 8 in
  let last : (int, float) Hashtbl.t = Hashtbl.create 8 in
  let ok = ref true in
  List.iter
    (fun (tid, name, ph, ts) ->
      (match Hashtbl.find_opt last tid with
      | Some prev when ts < prev -> ok := false
      | _ -> ());
      Hashtbl.replace last tid ts;
      let st = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
      match ph with
      | 'B' -> Hashtbl.replace stacks tid (name :: st)
      | 'E' -> (
          match st with
          | top :: rest when String.equal top name ->
              Hashtbl.replace stacks tid rest
          | _ -> ok := false)
      | _ -> ok := false)
    evs;
  Hashtbl.iter (fun _ st -> if st <> [] then ok := false) stacks;
  !ok

let prop_spans_well_nested =
  QCheck.Test.make ~name:"merged span events are well-nested per domain"
    ~count:50 arb_forest (fun forest -> well_nested (record_forest forest))

let prop_chrome_validates =
  QCheck.Test.make
    ~name:"chrome_trace passes the validator for any recorded forest"
    ~count:50 arb_forest (fun forest ->
      with_enabled true (fun () ->
          Obs.reset ();
          in_pool exec_tree forest);
      let r = Obs.Chrome.validate (Obs.chrome_trace ()) in
      Obs.reset ();
      r = Ok ())

(* Counter totals are exact under concurrent increments from pool tasks. *)
let prop_counter_totals =
  QCheck.Test.make
    ~name:"counter totals equal the sum of per-task increments" ~count:50
    QCheck.(list_of_size Gen.(int_range 1 16) (int_range 0 64))
    (fun tasks ->
      let c = Obs.Counter.make "test.obs.incr" in
      let a = Obs.Counter.make "test.obs.add" in
      with_enabled true (fun () ->
          Obs.reset ();
          in_pool
            (fun n ->
              for _ = 1 to n do
                Obs.Counter.incr c
              done;
              Obs.Counter.add a n)
            tasks);
      let sum = List.fold_left ( + ) 0 tasks in
      let ok = Obs.Counter.value c = sum && Obs.Counter.value a = sum in
      Obs.reset ();
      ok)

(* ------------------------------------------------------------------ *)
(* Golden exporter tests: one fixed sequential flow, pinned artifacts. *)

(* Where the source test/ directory lives (for ASYNC_REPRO_BLESS; dune
   runs tests from _build/default/test). *)
let source_test_dir () =
  let rec up dir n =
    let cand = Filename.concat dir "test" in
    if Sys.file_exists (Filename.concat cand "test_obs.ml") then cand
    else if n = 0 || Filename.dirname dir = dir then
      Alcotest.fail "source test/ directory not found (for blessing)"
    else up (Filename.dirname dir) (n - 1)
  in
  up (Sys.getcwd ()) 8

let check_golden name actual =
  match Sys.getenv_opt "ASYNC_REPRO_BLESS" with
  | Some _ ->
      let path = Filename.concat (source_test_dir ()) name in
      let oc = open_out_bin path in
      output_string oc actual;
      close_out oc;
      Printf.printf "blessed %s\n" path
  | None ->
      (* dune runtest copies the .expected deps next to the binary; a
         bare `dune exec` runs from the project root, so fall back to
         the source tree. *)
      let name =
        if Sys.file_exists name then name
        else Filename.concat (source_test_dir ()) name
      in
      if not (Sys.file_exists name) then
        Alcotest.fail
          (name ^ " missing - regenerate with ASYNC_REPRO_BLESS=1 dune runtest");
      let ic = open_in_bin name in
      let expected = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check string) name expected actual

(* [f file] on a spec's file: a shipped file ([`File path]) or an STG
   printed to a temporary one ([`Printed stg]), removed afterwards. *)
let with_spec_file name spec f =
  match spec with
  | `File path -> f path
  | `Printed stg ->
      let file = Filename.temp_file ("astg_" ^ name) ".g" in
      Fun.protect
        ~finally:(fun () -> Sys.remove file)
        (fun () ->
          Out_channel.with_open_bin file (fun oc ->
              Out_channel.output_string oc (Stg.Io.print stg));
          f file)

(* A command's decisions, pinned: the [counters:] block of [astg
   <command> --metrics <flags> <spec>] for every spec and flag set,
   against the golden [expected].  Each run is a fresh process, so every
   count is deterministic; it runs with ASYNC_REPRO_TRACE=0 whatever the
   suite runs with, since recording from program start would also count
   the parse before [--metrics].  A spec is a shipped file ([`File
   path]) or an STG printed to a temporary one ([`Printed stg]).  Bless
   an intended change with ASYNC_REPRO_BLESS=1. *)
let check_counters_golden expected ~command ~flag_sets specs =
  let counters out =
    let rec skip = function
      | [] -> []
      | l :: rest -> if l = "counters:" then take rest else skip rest
    and take = function
      | [] | "spans:" :: _ -> []
      | l :: rest -> l :: take rest
    in
    skip (String.split_on_char '\n' out)
  in
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, spec) ->
      with_spec_file name spec @@ fun file ->
      List.iter
        (fun flags ->
          let args = ([ command; "--metrics" ] @ flags) @ [ file ] in
          match Test_serve.run_cli ~env:[ "ASYNC_REPRO_TRACE=0" ] args with
          | 0, out, _ ->
              Printf.bprintf b "== %s %s%s\n" command name
                (String.concat "" (List.map (( ^ ) " ") flags));
              List.iter (Printf.bprintf b "%s\n") (counters out)
          | rc, _, err ->
              Alcotest.failf "astg %s %s exited %d: %s" command name rc err)
        flag_sets)
    specs;
  check_golden expected (Buffer.contents b)

(* Blank the total_ms column of the summary's span table (counts and
   counters are deterministic for a fixed sequential flow; wall time is
   not). *)
let scrub_summary s =
  String.split_on_char '\n' s
  |> List.map (fun line ->
         match String.split_on_char ' ' line |> List.filter (( <> ) "") with
         | [ name; count; ms ]
           when String.contains ms '.' && float_of_string_opt ms <> None ->
             Printf.sprintf "  %-36s %8s %12s" name count "-"
         | _ -> line)
  |> String.concat "\n"

(* The fixed flow: print/parse round-trip of the four-phase LR handshake,
   SG construction, a small reduction search, logic synthesis on the
   winner.  Everything is sequential and the Boolf memo is cleared first,
   so every counter and span count is deterministic; only timestamps vary
   (scrubbed before comparison). *)
let fixed_artifacts =
  lazy
    (let text = Stg.Io.print (Expansion.four_phase Specs.lr) in
     Boolf.Memo.clear ();
     Obs.reset ();
     with_enabled true (fun () ->
         let stg = Stg.Io.parse text in
         let sg = Gen.sg_exn stg in
         let o = Search.optimize ~w:0.8 ~size_frontier:2 sg in
         ignore (Logic.synthesize o.Search.best.Search.sg));
     let summary = scrub_summary (Obs.summary ()) in
     let trace = Obs.Chrome.scrub_timestamps (Obs.chrome_trace ()) in
     Obs.reset ();
     (summary, trace))

let test_golden_summary () =
  check_golden "obs_summary.expected" (fst (Lazy.force fixed_artifacts))

let test_golden_trace () =
  let trace = snd (Lazy.force fixed_artifacts) in
  (match Obs.Chrome.validate trace with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("golden trace invalid: " ^ e));
  check_golden "obs_trace.expected" trace

(* No search.level span opens inside another on the same domain: a
   level's span covers that level's evaluation and merge, and the arms'
   levels run one after another.  (A span left open across another arm's
   level would still pass [well_nested], since both arms' level spans
   carry the same name.) *)
let levels_disjoint evs =
  let depth = Hashtbl.create 4 in
  List.for_all
    (fun (tid, name, ph, _) ->
      name <> "search.level"
      ||
      let d = Option.value ~default:0 (Hashtbl.find_opt depth tid) in
      let d = if ph = 'B' then d + 1 else d - 1 in
      Hashtbl.replace depth tid d;
      d <= 1)
    evs

(* Acceptance: a traced full MMU flow (the biggest paper spec: search,
   CSC, logic, techmap) exports a Chrome trace the validator accepts, run
   on the calling domain and as a pool job, and the trace reaches the CSC
   and mapping layers.  So does a traced two-arm portfolio, whose level
   spans never nest. *)
let test_mmu_trace () =
  let stg = Expansion.four_phase Specs.mmu in
  let check_trace mode run spans =
    Obs.reset ();
    with_enabled true run;
    (match Obs.Chrome.validate (Obs.chrome_trace ()) with
    | Ok () -> ()
    | Error e -> Alcotest.fail (mode ^ " MMU trace invalid: " ^ e));
    let events = Obs.events () in
    Alcotest.(check bool) (mode ^ " MMU spans well-nested") true
      (well_nested events);
    Alcotest.(check bool) (mode ^ " MMU level spans disjoint") true
      (levels_disjoint events);
    List.iter
      (fun span ->
        Alcotest.(check bool)
          (Printf.sprintf "%s MMU trace has %s" mode span)
          true
          (List.exists (fun (_, name, ph, _) -> name = span && ph = 'B') events))
      spans;
    Obs.reset ()
  in
  let flow () =
    ignore
      (Core.optimize ~name:"MMU" ~w:0.8 ~size_frontier:4 (Gen.sg_exn stg)
        : Core.report)
  in
  check_trace "seq" flow [ "csc.resolve"; "techmap.map" ];
  check_trace "pool"
    (fun () -> in_pool flow [ () ])
    [ "csc.resolve"; "techmap.map" ];
  check_trace "portfolio"
    (fun () ->
      match
        Core.Cli.reduce_text
          { Core.Cli.default_reduce with portfolio = [ 0.3; 0.8 ] }
          stg
      with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail msg)
    [ "search.portfolio"; "search.level" ]

(* The validator parses the JSON document: text that is no trace, a
   trace cut off before its end and each break of stack discipline are
   rejected, whatever the line layout. *)
let test_validate_rejects () =
  let trace events = {|{"traceEvents":[|} ^ String.concat "," events ^ "]}" in
  let ev ?(tid = 0) name ph ts =
    Printf.sprintf {|{"name":"%s","ph":"%s","ts":%g,"pid":1,"tid":%d}|} name
      ph ts tid
  in
  let real =
    Obs.reset ();
    with_enabled true (fun () -> Obs.span "a" (fun () -> Obs.span "b" ignore));
    let t = Obs.chrome_trace () in
    Obs.reset ();
    t
  in
  let tail = "],\"displayTimeUnit\":\"ms\"}\n" in
  Alcotest.(check bool) "trace ends with displayTimeUnit" true
    (String.ends_with ~suffix:tail real);
  let cut = String.sub real 0 (String.length real - String.length tail) in
  List.iter
    (fun (what, text) ->
      match Obs.Chrome.validate text with
      | Ok () -> Alcotest.failf "validate accepted %s" what
      | Error _ -> ())
    [
      ("the empty string", "");
      ("plain text", "hello world");
      ("a trace cut before its end", cut);
      ("an E naming another open span", trace [ ev "a" "B" 0.; ev "b" "E" 1. ]);
      ("a ts going backwards", trace [ ev "a" "B" 2.; ev "a" "E" 1. ]);
      ( "a B never closed",
        trace [ ev "a" "B" 0.; ev "b" "B" 1.; ev "b" "E" 2. ] );
    ];
  let two_tids =
    [ ev "a" "B" 0.; ev ~tid:1 "c" "B" 0.5; ev "a" "E" 1.; ev ~tid:1 "c" "E" 2. ]
  in
  match Obs.Chrome.validate (trace two_tids) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "one-line trace rejected: %s" e

let suite =
  [
    Alcotest.test_case "differential: named specs (seq+pool)" `Slow
      test_differential_named;
    Alcotest.test_case "differential: pooled Core reports" `Slow
      test_differential_report;
    Alcotest.test_case "differential: examples/data" `Quick
      test_differential_examples;
    Alcotest.test_case "differential: 100 random specs (seq+pool)" `Slow
      test_differential_random;
    QCheck_alcotest.to_alcotest prop_spans_well_nested;
    QCheck_alcotest.to_alcotest prop_chrome_validates;
    QCheck_alcotest.to_alcotest prop_counter_totals;
    Alcotest.test_case "golden: summary table" `Quick test_golden_summary;
    Alcotest.test_case "golden: chrome trace" `Quick test_golden_trace;
    Alcotest.test_case "MMU trace validates (seq+pool)" `Slow test_mmu_trace;
    Alcotest.test_case "Chrome.validate rejects malformed traces" `Quick
      test_validate_rejects;
  ]
