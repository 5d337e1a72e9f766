(* Differential fuzzing of the full synthesis flow: generate -> print/parse
   round-trip -> SG -> search under every evaluation mode -> realize ->
   verify, with triage, structural shrinking and a deterministic JSON
   report.  See fuzz.mli for the contract. *)

type failure_kind =
  | Crash of { phase : string; exn_text : string }
  | Inconsistent of string
  | Divergence of string
  | Verify_fail of string

type outcome = Pass | Unrealizable of Regions.unsupported | Fail of failure_kind

let kind_tag = function
  | Crash _ -> "crash"
  | Inconsistent _ -> "inconsistent"
  | Divergence _ -> "divergence"
  | Verify_fail _ -> "verify-fail"

let kind_detail = function
  | Crash { phase; exn_text } -> Printf.sprintf "in %s: %s" phase exn_text
  | Inconsistent msg | Divergence msg | Verify_fail msg -> msg

let unsupported_tag = function
  | Regions.Not_excitation_closed _ -> "not-excitation-closed"
  | Regions.State_separation _ -> "state-separation"
  | Regions.Budget_exhausted -> "budget"

let outcome_tag = function
  | Pass -> "pass"
  | Unrealizable u -> "unrealizable:" ^ unsupported_tag u
  | Fail k -> kind_tag k

type failure = {
  f_cls : Gen.cls;
  f_seed : int;
  f_kind : failure_kind;
  f_case : Gen.case;
  f_orig : Gen.case;
  f_shrink_steps : int;
  f_repro : string;
  f_file : string option;
}

type report = {
  r_seed : int;
  r_count : int;
  r_classes : Gen.cls list;
  r_max_signals : int;
  r_cases : (Gen.cls * int) list;
  r_outcomes : (string * int) list;
  r_failures : failure list;
  r_counters : (string * int) list;
}

(* Search parameters held fixed across the campaign: reproducibility needs
   one canonical configuration, and the differential contract (all modes
   byte-identical) is parameter-independent anyway. *)
let search_w = 0.8
let search_frontier = 3

(* Full textual rendering of a search outcome INCLUDING the best
   configuration's per-signal logic (sets, conflict counts, covers): any
   divergence anywhere breaks string equality. *)
let outcome_repr stg (o : Search.outcome) =
  let names = Array.map (fun s -> s.Stg.Signal.name) stg.Stg.signals in
  let script cfg =
    cfg.Search.applied
    |> List.map (fun (a, b) ->
           Printf.sprintf "(%s,%s)" (Stg.label_name stg a)
             (Stg.label_name stg b))
    |> String.concat " "
  in
  let cfg c =
    Printf.sprintf "cost=%.9f logic=%d csc=%d states=%d applied=[%s]"
      c.Search.cost c.Search.logic_estimate c.Search.csc_pairs
      (Sg.n_states c.Search.sg) (script c)
  in
  let sig_repr (ps : Logic.per_sig) =
    let ints a = String.concat "," (List.map string_of_int (Array.to_list a)) in
    Printf.sprintf "%s: on=[%s] off=[%s] conflicts=%d lits=%d cover=%s"
      names.(ps.Logic.ps_signal) (ints ps.Logic.ps_on) (ints ps.Logic.ps_off)
      ps.Logic.ps_conflicts ps.Logic.ps_literals
      (Boolf.Cover.render ~names ps.Logic.ps_cover)
  in
  let logic = o.Search.best.Search.logic in
  Printf.sprintf
    "feasible=%b explored=%d levels=%d fanout=[%s]\nbest: %s\ninitial: \
     %s\nbest-sig=%s\ntotal=%d penalty=%d\n%s"
    o.Search.feasible o.Search.explored o.Search.levels
    (String.concat ";" (List.map string_of_int o.Search.fanout))
    (cfg o.Search.best) (cfg o.Search.initial)
    (Sg.signature o.Search.best.Search.sg)
    logic.Logic.e_total logic.Logic.e_penalty
    (String.concat "\n" (List.map sig_repr logic.Logic.e_sigs))

let divergence name = raise (Failure ("__divergence__ " ^ name))

(* Netlist arm: resolve CSC on the spec (bounded; unresolvable specs skip
   the arm), build the shared netlist, then on EVERY reachable state
   cross-check the one-pass netlist simulator against a direct evaluation
   of the synthesized covers, and the [Circuit.conforms] verdict (which
   runs on the netlist) against the same verdict recomputed from the
   direct semantics.  Any disagreement is a divergence between the IR
   (constructor folds, hash-consing, simulation) and the logic it was
   built from. *)
let check_netlist sg =
  if Sg.n_states sg > 500 then None
  else
    match Csc.resolve ~max_signals:3 ~work:1_500 sg with
    | Error _ -> None
    | Ok res -> (
        let rsg = res.Csc.sg in
        let impl = Logic.synthesize rsg in
        match Circuit.of_impl impl with
        | exception Invalid_argument _ -> None
        | circuit ->
            let driver_of =
              List.map (fun si -> (si.Logic.signal, si.Logic.driver))
                impl.Logic.per_signal
            in
            let mismatch = ref None in
            let spec_disagrees = ref None in
            for s = 0 to Sg.n_states rsg - 1 do
              let code = Sg.code_bits rsg s in
              let direct i =
                let ev cover = Boolf.Cover.covers cover code in
                match List.assoc i driver_of with
                | Logic.Sop cover -> ev cover
                | Logic.Gc { set; reset } ->
                    ev set || (Sg.value rsg s i = 1 && not (ev reset))
              in
              List.iter
                (fun (i, v) ->
                  if !mismatch = None && v <> direct i then
                    mismatch := Some (s, i);
                  (* independent conformance verdict for this (state,
                     signal): excitation from the direct semantics vs the
                     specification's enabled events *)
                  let excited = direct i <> (Sg.value rsg s i = 1) in
                  let specified =
                    List.exists
                      (function
                        | Stg.Edge (sigid, _) -> sigid = i
                        | Stg.Dummy _ -> false)
                      (Sg.enabled_labels rsg s)
                  in
                  if !spec_disagrees = None && excited <> specified then
                    spec_disagrees := Some (s, i))
                (Circuit.next_values circuit ~state:s)
            done;
            (match !mismatch with
            | Some (s, i) ->
                divergence
                  (Printf.sprintf "netlist sim vs covers (state %d signal %d)"
                     s i)
            | None -> ());
            (* conforms runs on the netlist; it must agree with the
               verdict recomputed from the direct cover semantics *)
            let conforms_ok = Circuit.conforms circuit = Ok () in
            if conforms_ok <> (!spec_disagrees = None) then
              divergence "Circuit.conforms vs direct-semantics verdict";
            Some ())

let run_case ?(record = false) case =
  let phase = ref "generate" in
  (* A fresh cover cache: the searches whose counters may be recorded
     always run against the same cache state, whatever earlier cases left
     behind. *)
  Boolf.Memo.clear ();
  let with_recording f =
    if record then Obs.set_enabled true;
    Fun.protect ~finally:(fun () -> if record then Obs.set_enabled false) f
  in
  try
    let stg = Gen.case_to_stg case in
    phase := "print-parse";
    let text = Stg.Io.print stg in
    let stg2 = Stg.Io.parse text in
    let text2 = Stg.Io.print stg2 in
    if not (String.equal text text2) then
      Fail (Divergence "print/parse round-trip is not a fixpoint")
    else begin
      phase := "sg";
      match Sg.of_stg ~warn:(fun _ -> ()) stg with
      | Error e ->
          Fail (Inconsistent (Format.asprintf "%a" Sg.pp_error e))
      | Ok sg -> (
          match Sg.of_stg ~warn:(fun _ -> ()) stg2 with
          | Error e ->
              Fail
                (Divergence
                   (Format.asprintf "reparsed spec loses consistency: %a"
                      Sg.pp_error e))
          | Ok sg2 ->
              if not (String.equal (Sg.signature sg) (Sg.signature sg2)) then
                Fail (Divergence "reparsed spec changes the SG signature")
              else begin
                phase := "search";
                let search mode =
                  Search.optimize ~w:search_w ~size_frontier:search_frontier
                    ~eval_mode:mode sg
                in
                let reference, best =
                  with_recording (fun () ->
                      let o_scratch = search `Scratch in
                      let reference = outcome_repr stg o_scratch in
                      if
                        not
                          (String.equal reference
                             (outcome_repr stg (search `Delta)))
                      then divergence "delta";
                      (reference, o_scratch.Search.best))
                in
                phase := "portfolio";
                (* Portfolio arm: every arm of a portfolio run must be
                   byte-identical to its standalone [Search.optimize]
                   counterpart.  Arm 0 is the campaign's
                   reference search; arm 1 costs one extra standalone
                   run. *)
                let arms =
                  [
                    { Search.arm_w = search_w; arm_area = `Tree };
                    { Search.arm_w = 0.5; arm_area = `Tree };
                  ]
                in
                let standalone =
                  [|
                    reference;
                    outcome_repr stg
                      (Search.optimize ~w:0.5 ~size_frontier:search_frontier
                         sg);
                  |]
                in
                let po =
                  Search.portfolio ~size_frontier:search_frontier ~arms sg
                in
                Array.iteri
                  (fun i ao ->
                    if
                      not
                        (String.equal standalone.(i)
                           (outcome_repr stg ao.Search.outcome))
                    then divergence (Printf.sprintf "portfolio arm %d" i))
                  po.Search.arms;
                phase := "netlist";
                ignore (check_netlist sg : unit option);
                phase := "realize";
                if best.Search.applied = [] then Pass
                else
                  match
                    Reduction.realize ~applied:best.Search.applied
                      best.Search.sg
                  with
                  | Ok _ -> Pass (* realize verified the isomorphism *)
                  | Error _ -> (
                      phase := "verify";
                      match Regions.synthesize best.Search.sg with
                      | Ok _ -> Pass (* regions verified the signature *)
                      | Error (Regions.Unsupported u) -> Unrealizable u
                      | Error (Regions.Invalid msg) -> Fail (Verify_fail msg))
              end)
    end
  with
  | Failure msg
    when String.length msg > 15 && String.sub msg 0 15 = "__divergence__ " ->
      Fail
        (Divergence
           (Printf.sprintf "%s differs from scratch"
              (String.sub msg 15 (String.length msg - 15))))
  | e ->
      Fail (Crash { phase = !phase; exn_text = Printexc.to_string e })

(* Greedy structural minimization: descend into the first shrink candidate
   that reproduces the same failure tag, until none does or the attempt
   budget runs out.  Shrink runs never record counters. *)
let shrink_to_min case kind =
  let tag = kind_tag kind in
  let budget = ref 120 in
  let exception Found of Gen.case * failure_kind in
  let rec go case kind steps =
    if !budget <= 0 then (case, kind, steps)
    else
      match
        Gen.shrink_case case (fun c ->
            if !budget > 0 then begin
              decr budget;
              match run_case c with
              | Fail k when String.equal (kind_tag k) tag ->
                  raise (Found (c, k))
              | _ -> ()
            end)
      with
      | () -> (case, kind, steps)
      | exception Found (c, k) -> go c k (steps + 1)
  in
  go case kind 0

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.file_exists dir -> ()
  end

let repro_text ~cls ~seed ~kind ~orig case =
  let stg = Gen.case_to_stg case in
  String.concat ""
    [
      "# astg fuzz repro\n";
      Printf.sprintf "# class: %s\n" (Gen.class_name cls);
      Printf.sprintf "# seed: %d\n" seed;
      Printf.sprintf "# failure: %s: %s\n" (kind_tag kind) (kind_detail kind);
      Printf.sprintf "# case: %s\n" (Gen.case_to_string case);
      Printf.sprintf "# generated as: %s\n" (Gen.case_to_string orig);
      Stg.Io.print stg;
    ]

let run ?(classes = Gen.all_classes) ?(max_signals = 6) ?corpus ~count ~seed
    () =
  if classes = [] then invalid_arg "Fuzz.run: empty class list";
  if count < 0 then invalid_arg "Fuzz.run: negative count";
  let saved_enabled = Obs.enabled () in
  let counters_before = Obs.counters () in
  Fun.protect ~finally:(fun () -> Obs.set_enabled saved_enabled) @@ fun () ->
  let n_classes = List.length classes in
  let cases = Hashtbl.create 4 and outcomes = Hashtbl.create 8 in
  let bump tbl key = Hashtbl.replace tbl key (1 + try Hashtbl.find tbl key with Not_found -> 0) in
  let failures = ref [] in
  Option.iter mkdir_p corpus;
  for i = 0 to count - 1 do
    let cls = List.nth classes (i mod n_classes) in
    let case_seed = seed + i in
    let case = Gen.random_case ~max_signals ~cls case_seed in
    bump cases cls;
    let outcome = run_case ~record:true case in
    bump outcomes (outcome_tag outcome);
    match outcome with
    | Pass | Unrealizable _ -> ()
    | Fail kind ->
        let min_case, min_kind, steps = shrink_to_min case kind in
        let repro =
          repro_text ~cls ~seed:case_seed ~kind:min_kind ~orig:case min_case
        in
        let file =
          match corpus with
          | None -> None
          | Some dir ->
              let name =
                Printf.sprintf "%s-%d-%s.g" (Gen.class_name cls) case_seed
                  (kind_tag min_kind)
              in
              let oc = open_out (Filename.concat dir name) in
              output_string oc repro;
              close_out oc;
              Some name
        in
        failures :=
          {
            f_cls = cls;
            f_seed = case_seed;
            f_kind = min_kind;
            f_case = min_case;
            f_orig = case;
            f_shrink_steps = steps;
            f_repro = repro;
            f_file = file;
          }
          :: !failures
  done;
  let counters_after = Obs.counters () in
  let counters =
    (* Delta against the pre-run snapshot: the engine reports only what
       its own recorded searches added, whatever the host process recorded
       before. *)
    List.filter_map
      (fun (name, v) ->
        let v0 =
          try List.assoc name counters_before with Not_found -> 0
        in
        if v - v0 <> 0 then Some (name, v - v0) else None)
      counters_after
  in
  {
    r_seed = seed;
    r_count = count;
    r_classes = classes;
    r_max_signals = max_signals;
    r_cases =
      List.filter_map
        (fun c ->
          match Hashtbl.find_opt cases c with
          | Some n -> Some (c, n)
          | None -> None)
        classes;
    r_outcomes =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) outcomes []
      |> List.sort compare;
    r_failures = List.rev !failures;
    r_counters = counters;
  }

(* ---- JSON rendering: key order is the [Obj] field order ---- *)

let report_to_json r =
  let str s = Json.Str s and int n = Json.Int n in
  let failure f =
    Json.Obj
      [
        ("class", str (Gen.class_name f.f_cls));
        ("seed", int f.f_seed);
        ("kind", str (kind_tag f.f_kind));
        ("detail", str (kind_detail f.f_kind));
        ("case", str (Gen.case_to_string f.f_case));
        ("generated_as", str (Gen.case_to_string f.f_orig));
        ("shrink_steps", int f.f_shrink_steps);
        ("file", match f.f_file with None -> Json.Null | Some f -> str f);
        ("repro", str f.f_repro);
      ]
  in
  let counts key l = Json.Obj (List.map (fun (k, n) -> (key k, int n)) l) in
  Json.to_string
    (Json.Obj
       [
         ("tool", str "astg fuzz");
         ("seed", int r.r_seed);
         ("count", int r.r_count);
         ( "classes",
           Json.List (List.map (fun c -> str (Gen.class_name c)) r.r_classes) );
         ( "params",
           Json.Obj
             [
               ("w", Json.Float search_w);
               ("frontier", int search_frontier);
               ("max_signals", int r.r_max_signals);
             ] );
         ("cases", counts Gen.class_name r.r_cases);
         ("outcomes", counts Fun.id r.r_outcomes);
         ("failure_count", int (List.length r.r_failures));
         ("failures", Json.List (List.map failure r.r_failures));
         ("counters", counts Fun.id r.r_counters);
       ])

let report_summary r =
  let b = Buffer.create 256 in
  Printf.bprintf b "fuzz: %d cases (seed %d, classes %s)\n" r.r_count r.r_seed
    (String.concat "," (List.map Gen.class_name r.r_classes));
  List.iter
    (fun (tag, n) -> Printf.bprintf b "  %-32s %d\n" tag n)
    r.r_outcomes;
  List.iter
    (fun f ->
      Printf.bprintf b "  FAIL %s seed %d: %s: %s%s\n"
        (Gen.class_name f.f_cls) f.f_seed (kind_tag f.f_kind)
        (kind_detail f.f_kind)
        (match f.f_file with None -> "" | Some file -> " -> " ^ file))
    r.r_failures;
  Buffer.contents b
