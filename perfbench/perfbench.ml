(* The repository benchmark.  Usage (from the repository root, through
   run.sh, which builds it first):

     perfbench --workload synth|reduce|serve --seed N --seconds S --trace 0|1

   The last line of stdout is one JSON object: {"correct", "attempted",
   "failed", "metrics"}.  With --trace 0 the metrics are the end-to-end
   ones, measured with Obs off; with --trace 1 they are the per-layer ones,
   from the same untraced measurement plus a separate traced replay.
   Every output is checked; any failure exits 1.  See README.md. *)

let end_to_end =
  [ ("pass_s", "s"); ("op_geomean_ms", "ms"); ("setup_s", "s"); ("peak_rss_mb", "MB") ]

let synth_ops =
  [ "synth.par"; "synth.lr"; "synth.lr.emit_verilog";
    "synth.ahb_arbiter"; "synth.fig1" ]

let per_layer =
  List.map (fun l -> (l ^ ".self_ms", "ms")) Trace.layers
  @ [
      ("csc.insertions_tried", "count"); ("csc.signals_inserted", "count");
      ("csc.useful_ratio", "ratio"); ("csc.resolve_calls", "count");
    ]
  @ List.map (fun op -> ("csc.resolve_calls." ^ op, "count")) synth_ops
  @ [
      ("sg.of_stg.self_ms", "ms"); ("sg.of_stg.calls", "count");
      ("sg.of_stg.states", "count"); ("sg.of_stg.ns_per_state", "ns");
      ("search.candidates", "count"); ("search.dedup_ratio", "ratio");
      ("search.steal", "count"); ("search.portfolio.table_hit_ratio", "ratio");
      ("search.portfolio.spec_useful_ratio", "ratio");
      ("search.portfolio.j2.table_hits", "count");
      ("search.portfolio.j2.table_misses", "count");
      ("search.portfolio.j2.spec_published", "count");
      ("search.portfolio.j2.spec_consumed", "count");
      ("logic.delta.inherited_ratio", "ratio");
      ("logic.delta.support_hit_ratio", "ratio");
      ("boolf.memo.hit_ratio", "ratio"); ("netlist.cons_hit_ratio", "ratio");
      ("stg.parse_ms", "ms"); ("stg.print_ms", "ms");
      ("circuit.conforms_ms", "ms"); ("timing.analyze_ms", "ms");
      ("emit_ms", "ms");
      ("serve.req_p50_ms.low", "ms"); ("serve.req_p99_ms.low", "ms");
      ("serve.req_p50_ms.high", "ms"); ("serve.req_p99_ms.high", "ms");
      ("serve.max_rps", "1/s"); ("serve.hit_ratio", "ratio");
      ("serve.hit.mem", "count"); ("serve.hit.disk", "count");
      ("serve.miss", "count"); ("serve.dedup", "count");
      ("serve.shed", "count"); ("serve.timeout", "count");
      ("serve.disk.corrupt", "count"); ("serve.server_p50_ms", "ms");
      ("serve.server_p99_ms", "ms"); ("serve.queue_depth_max", "count");
      ("serve.inflight_max", "count"); ("serve.json_us", "us");
      ("serve.key_us", "us"); ("serve.cache_find_us.mem", "us");
      ("serve.cache_find_us.disk", "us"); ("serve.cache_store_us", "us");
      ("serve.compute_ms", "ms");
      ("gc.minor_mwords_per_pass", "Mwords");
      ("gc.major_collections_per_pass", "count"); ("gen.lag_p99_ms", "ms");
      ("trace.overhead_ratio", "ratio"); ("trace.unattributed_ms", "ms");
      ("fail_ratio", "ratio"); ("mapped_area_sum", "gates");
      ("raw.pass_s", "s"); ("machine.probe_ms", "ms");
    ]

open Report

(* ---- synth and reduce: closed loop, one client ---- *)

(* One op as the CLI runs it: cold caches, parse, render. *)
let exec ?(traced = false) run (op : Catalog.op) =
  Boolf.Memo.clear ();
  let body () =
    match Stg.Io.parse op.spec with
    | stg -> run op.verb stg
    | exception e -> Error (Printexc.to_string e)
  in
  Stats.time (fun () -> if traced then Obs.span "core.op" body else body ())

(* [perfbench --op NAME]: run one op and print one line, "<seconds>
   <minor words> <major collections> <peak RSS MB> <verdict>", where the
   verdict is "ok", "ok <cross-arm numbers>" or "fail <why>". *)
let op_child name =
  match List.find_opt (fun (op : Catalog.op) -> op.name = name) (Catalog.load ()) with
  | None -> Printf.printf "0 0 0 0 fail no op %s\n" name
  | Some op ->
      let g0 = Gc.quick_stat () in
      let out, dt = exec Serve.Ops.run op in
      let g1 = Gc.quick_stat () in
      Printf.printf "%.17g %.17g %d %.17g %s\n" dt
        (g1.minor_words -. g0.minor_words)
        (g1.major_collections - g0.major_collections)
        (Stats.peak_rss_mb "self")
        (match Result.map (Catalog.check op) out with
        | Ok (Ok None) -> "ok"
        | Ok (Ok (Some (h, m, p, c))) -> Printf.sprintf "ok %d %d %d %d" h m p c
        | Ok (Error why) | Error why -> "fail " ^ why)

type child = {
  secs : float;
  minor_words : float;
  majors : int;
  rss_mb : float;
  t0 : float;  (** when the parent started the child *)
  t1 : float;  (** when the child had exited *)
}

(* Each untraced op runs in a fresh process, as a CLI user runs it.  In
   one long-lived process the heap that earlier ops leave behind changes
   an op's GC work: micropipeline synth took 15 to 21 s depending on what
   ran before it. *)
let run_child (op : Catalog.op) =
  let exe = Sys.executable_name in
  let t0 = Stats.now () in
  let ic = Unix.open_process_args_in exe [| exe; "--op"; op.name |] in
  let line = In_channel.input_line ic in
  let status = Unix.close_process_in ic in
  let t1 = Stats.now () in
  incr attempted;
  match (line, status) with
  | Some l, WEXITED 0 -> (
      match
        Scanf.sscanf l "%f %f %d %f %s@ %[^\n]" (fun secs minor_words majors rss_mb v rest ->
            ({ secs; minor_words; majors; rss_mb; t0; t1 }, v, rest))
      with
      | r, "ok", "" -> Some r
      | r, "ok", rest ->
          cross_arm := Scanf.sscanf rest "%d %d %d %d" (fun h m p c -> (h, m, p, c)) :: !cross_arm;
          Some r
      | _, _, why ->
          fail_op op.name why;
          None
      | exception _ ->
          fail_op op.name ("bad child report: " ^ l);
          None)
  | _ ->
      fail_op op.name "child process failed";
      None

(* The sampling plan.  A first pass over the ops, in seeded order, times
   each op.  Every op then gets as many samples as fill [seconds] with
   whole passes, at least [min_passes], and any op that fits
   [min_samples] samples into [top_up_s] gets that many.  The remaining
   samples run interleaved: op i's k-th sample sits at (k + u_i) / n_i on
   one timeline, with u_i a seeded offset, so each op's samples spread
   over the whole run.  The host's speed wanders over seconds: LR synth
   sampled in one burst took 36 ms in one run and 51 ms in the next.
   After an op of d >= 1 s, the run takes min(5, ceil d) speed probes, so
   the long ops that dominate [pass_s] are scaled by more than one. *)
let min_passes = 4
let min_samples = 20
let top_up_s = 2.0

let closed_loop ~workload ~seed ~seconds ~trace =
  let rng = Random.State.make [| seed |] in
  (* The run, its op processes and its speed probes share CPU 0.  The two
     vCPUs of a shared VM slow down independently: unpinned, MMU portfolio
     at --jobs 2 took 200 ms in 7 runs of 10 and 93 ms in 3, as the other
     vCPU came and went, and the probes could not see it. *)
  Stats.pin ~cpus:"0" (Unix.getpid ());
  let ops, setup_s =
    Stats.median_setup 100 (fun () -> Catalog.for_workload workload (Catalog.load ()))
  in
  let runs : (string, child list) Hashtbl.t = Hashtbl.create 32 in
  let samples_of name = Option.value ~default:[] (Hashtbl.find_opt runs name) in
  (* one sample of [op]; its wall time *)
  let run (op : Catalog.op) =
    Stats.maybe_probe ();
    let r, d = Stats.time (fun () -> run_child op) in
    Option.iter (fun r -> Hashtbl.replace runs op.name (r :: samples_of op.name)) r;
    if d >= 1.0 then for _ = 1 to min 5 (int_of_float (Float.ceil d)) do Stats.probe () done;
    d
  in
  let first = List.map (fun op -> (op, run op)) (Stats.shuffle rng ops) in
  let pass = List.fold_left (fun acc (_, d) -> acc +. d) 0.0 first in
  let passes = max min_passes (int_of_float (Float.ceil (seconds /. pass))) in
  List.concat_map
    (fun (op, d) ->
      let n = max passes (min min_samples (int_of_float (top_up_s /. d))) - 1 in
      let u = Random.State.float rng 1.0 in
      List.init n (fun k -> ((float_of_int k +. u) /. float_of_int n, op)))
    first
  |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
  |> List.iter (fun (_, op) -> ignore (run op));
  Stats.probe ();
  let per_op f =
    Hashtbl.fold (fun name l acc -> (name, List.map f l) :: acc) runs []
  in
  let samples = per_op (fun r -> r.secs *. 1e3 *. Stats.speed ~t0:r.t0 ~t1:r.t1) in
  let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
  let sum_means f = List.fold_left (fun acc (_, l) -> acc +. mean l) 0.0 (per_op f) in
  (* one pass over the op list, from each op's median *)
  let pass_of samples =
    List.fold_left (fun acc (_, l) -> acc +. Stats.median l) 0.0 samples /. 1e3
  in
  let pass_s = pass_of samples and raw_pass_s = pass_of (per_op (fun r -> r.secs *. 1e3)) in
  set "pass_s" pass_s;
  set "raw.pass_s" raw_pass_s;
  set "machine.probe_ms" (Stats.probe_ms ());
  List.iter
    (fun (name, l) ->
      Printf.eprintf "perfbench: %-32s median %10.3f ms over %d\n" name
        (Stats.median l) (List.length l))
    (List.sort compare samples);
  set "op_geomean_ms" (Stats.geomean (List.map (fun (_, l) -> Stats.median l) samples));
  set "setup_s" setup_s;
  set "peak_rss_mb"
    (Hashtbl.fold (fun _ l acc -> List.fold_left (fun a r -> Float.max a r.rss_mb) acc l) runs 0.0);
  set "gc.minor_mwords_per_pass" (sum_means (fun r -> r.minor_words) /. 1e6);
  set "gc.major_collections_per_pass" (sum_means (fun r -> float_of_int r.majors));
  set "mapped_area_sum"
    (List.fold_left
       (fun acc (op : Catalog.op) ->
         match op.verb with
         | Synth _ ->
             String.split_on_char '\n' op.expected
             |> List.fold_left
                  (fun acc l ->
                    try Scanf.sscanf l "mapped area: %d%!" (fun a -> acc +. float_of_int a)
                    with _ -> acc)
                  acc
         | _ -> acc)
       0.0 ops);
  (match !cross_arm with
  | [] -> ()
  | l ->
      let med f = Stats.median (List.map (fun n -> float_of_int (f n)) l) in
      set "search.portfolio.j2.table_hits" (med (fun (h, _, _, _) -> h));
      set "search.portfolio.j2.table_misses" (med (fun (_, m, _, _) -> m));
      set "search.portfolio.j2.spec_published" (med (fun (_, _, p, _) -> p));
      set "search.portfolio.j2.spec_consumed" (med (fun (_, _, _, c) -> c)));
  if trace then begin
    (* one traced pass, in a seeded order *)
    let order = Stats.shuffle rng ops in
    let (), wall =
      traced (fun () ->
          Stats.time (fun () ->
              List.iter
                (fun (op : Catalog.op) ->
                  let c = Obs.Counter.make "csc.resolve.calls" in
                  let before = Obs.Counter.value c in
                  account op (fst (exec ~traced:true Trace.run op));
                  if List.mem op.name synth_ops then
                    set ("csc.resolve_calls." ^ op.name)
                      (float_of_int (Obs.Counter.value c - before)))
                order))
    in
    record_trace ~root:"core.op" ~wall_ms:(wall *. 1e3);
    set "trace.overhead_ratio" (wall /. raw_pass_s)
  end

(* ---- entry ---- *)

let print_result names =
  let b = Buffer.create 4096 in
  let correct = !failed = 0 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    correct !attempted !failed;
  List.iteri
    (fun i (name, unit) ->
      let v = Option.value ~default:0.0 (Hashtbl.find_opt metrics name) in
      let v = if Float.is_finite v then v else 0.0 in
      Printf.bprintf b "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}"
        (if i = 0 then "" else ", ")
        name v unit)
    names;
  Buffer.add_string b "}}";
  print_endline (Buffer.contents b);
  if not correct then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0
  and op = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "synth|reduce|serve");
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_int seconds, "S  measuring time");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end or per-layer metrics");
      ("--op", Arg.Set_string op, "NAME  run one catalog op (internal)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload W --seed N --seconds S --trace 0|1";
  let seconds = float_of_int !seconds and trace = !trace = 1 in
  if !op <> "" then (op_child !op; exit 0);
  (match !workload with
  | ("synth" | "reduce") as w ->
      closed_loop ~workload:w ~seed:!seed ~seconds ~trace
  | "serve" -> Load.run ~seed:!seed ~seconds ~trace
  | w ->
      prerr_endline ("perfbench: unknown workload " ^ w);
      exit 2);
  set "fail_ratio" (Stats.ratio !failed !attempted);
  print_result (if trace then per_layer else end_to_end)
