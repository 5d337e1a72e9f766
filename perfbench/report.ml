(* Run state shared by the workloads: metrics, op accounting and the
   per-layer numbers of a traced stretch of work. *)

let metrics : (string, float) Hashtbl.t = Hashtbl.create 128
let set name v = Hashtbl.replace metrics name v
let attempted = ref 0
let failed = ref 0

let fail_op name why =
  incr failed;
  Printf.eprintf "perfbench: %s FAILED: %s\n%!" name why

let cross_arm = ref []

(* Count one op against the catalog's expected bytes. *)
let account (op : Catalog.op) out =
  incr attempted;
  match out with
  | Error msg -> fail_op op.name msg
  | Ok text -> (
      match Catalog.check op text with
      | Ok None -> ()
      | Ok (Some n) -> cross_arm := n :: !cross_arm
      | Error why -> fail_op op.name why)

(* Counters from Obs.counters () as a lookup. *)
let counter counters name = Option.value ~default:0 (List.assoc_opt name counters)

(* The per-layer numbers a traced stretch of work leaves in Obs. *)
let record_trace ~root ~wall_ms =
  let tbl, covered = Trace.self_times ~root in
  let self name =
    Option.fold ~none:0.0 ~some:(fun a -> a.Trace.self_ms) (Hashtbl.find_opt tbl name)
  in
  let by_layer = Hashtbl.create 16 in
  Hashtbl.iter
    (fun name a ->
      let l = Trace.layer_of name in
      Hashtbl.replace by_layer l
        (a.Trace.self_ms +. Option.value ~default:0.0 (Hashtbl.find_opt by_layer l)))
    tbl;
  List.iter
    (fun l ->
      set (l ^ ".self_ms") (Option.value ~default:0.0 (Hashtbl.find_opt by_layer l)))
    Trace.layers;
  let unknown =
    Hashtbl.fold
      (fun l _ acc -> if List.mem l Trace.layers then acc else l :: acc)
      by_layer []
  in
  if unknown <> [] then
    fail_op "trace" ("spans outside the layer list: " ^ String.concat "," unknown);
  let c = counter (Obs.counters ()) in
  let states = c "sg.of_stg.states" in
  set "sg.of_stg.self_ms" (self "sg.of_stg");
  set "sg.of_stg.calls" (float_of_int (c "sg.of_stg.calls"));
  set "sg.of_stg.states" (float_of_int states);
  set "sg.of_stg.ns_per_state"
    (if states = 0 then 0.0 else self "sg.of_stg" *. 1e6 /. float_of_int states);
  set "csc.insertions_tried" (float_of_int (c "csc.insertions.tried"));
  set "csc.signals_inserted" (float_of_int (c "csc.signals.inserted"));
  set "csc.useful_ratio" (Stats.ratio (c "csc.signals.inserted") (c "csc.insertions.tried"));
  set "csc.resolve_calls" (float_of_int (c "csc.resolve.calls"));
  set "search.candidates" (float_of_int (c "search.candidates"));
  set "search.dedup_ratio" (Stats.ratio (c "search.deduped") (c "search.candidates"));
  set "search.steal" (float_of_int (c "search.steal"));
  let th = c "search.portfolio.table_hit" in
  set "search.portfolio.table_hit_ratio" (Stats.ratio th (th + c "search.portfolio.table_miss"));
  set "search.portfolio.spec_useful_ratio"
    (Stats.ratio (c "search.portfolio.spec_hit") (c "search.portfolio.spec_eval"));
  let inh = c "logic.delta.inherited" in
  set "logic.delta.inherited_ratio" (Stats.ratio inh (inh + c "logic.delta.recomputed"));
  let sh = c "logic.delta.support_hit" in
  set "logic.delta.support_hit_ratio" (Stats.ratio sh (sh + c "logic.delta.support_miss"));
  let mh = c "boolf.memo.hits" in
  set "boolf.memo.hit_ratio" (Stats.ratio mh (mh + c "boolf.memo.misses"));
  let nh = c "netlist.cons.hit" in
  set "netlist.cons_hit_ratio" (Stats.ratio nh (nh + c "netlist.cons.miss"));
  set "stg.parse_ms" (self "stg.parse");
  set "stg.print_ms" (self "stg.print");
  set "circuit.conforms_ms" (self "circuit.conforms");
  set "timing.analyze_ms" (self "timing.analyze");
  set "emit_ms" (self "circuit.emit");
  set "trace.unattributed_ms" (wall_ms -. covered);
  (* the trace itself must be whole *)
  if Obs.dropped_events () > 0 then
    fail_op "trace" (Printf.sprintf "%d spans dropped" (Obs.dropped_events ()));
  match Obs.Chrome.validate (Obs.chrome_trace ()) with
  | Ok () -> ()
  | Error msg -> fail_op "trace" ("invalid Chrome trace: " ^ msg)

(* Turn Obs on for [f] with a fresh, uncapped event buffer. *)
let traced f =
  Obs.set_event_cap max_int;
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) f

