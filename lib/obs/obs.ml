(* Tracing/metrics substrate.  See obs.mli for the contract; the short
   version: recording never influences results, the disabled path is one
   atomic load, and all shared state is either per-domain (span buffers)
   or a process-global Atomic (flags, counters, registries).  No Mutex —
   [Mutex] lives in the threads library on OCaml 4.x, and this module
   compiles against both backends of [Pool]. *)

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

let () =
  match Sys.getenv_opt "ASYNC_REPRO_TRACE" with
  | Some ("1" | "true" | "yes") -> set_enabled true
  | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* Per-domain span buffers. *)

type ev = {
  ev_name : string;
  ev_ph : char;  (* 'B' | 'E' *)
  ev_ts : float;  (* seconds, monotone-clamped per buffer *)
  ev_args : (string * string) list;
}

let dummy_ev = { ev_name = ""; ev_ph = 'B'; ev_ts = 0.; ev_args = [] }

type buffer = {
  tid : int;
  mutable evs : ev array;
  mutable len : int;
  mutable last_ts : float;
  mutable suppressed : int;
      (* depth of open spans whose B was dropped by the event cap; their
         matching span_end is dropped too, keeping the record well-nested *)
}

(* Per-domain event cap: long recording sessions (a whole test suite under
   ASYNC_REPRO_TRACE=1) would otherwise grow buffers without bound.  When a
   buffer is full, new spans are dropped WHOLE — begin and matching end —
   so exported traces stay well-nested; ends of already-recorded spans are
   always kept (the buffer may exceed the cap by its open depth).
   Counters are never capped. *)
let event_cap = Atomic.make 65_536
let set_event_cap n = Atomic.set event_cap (max 0 n)
let dropped = Atomic.make 0
let dropped_events () = Atomic.get dropped

(* Registry of every buffer ever created (buffers of dead pool domains
   keep their events).  Lock-free CAS push; tids from an atomic counter. *)
let buffers : buffer list Atomic.t = Atomic.make []
let next_tid = Atomic.make 0

let register b =
  let rec loop () =
    let l = Atomic.get buffers in
    if not (Atomic.compare_and_set buffers l (b :: l)) then loop ()
  in
  loop ()

let buffer_key : buffer Pool.Dls.key =
  Pool.Dls.new_key (fun () ->
      let b =
        {
          tid = Atomic.fetch_and_add next_tid 1;
          evs = Array.make 256 dummy_ev;
          len = 0;
          last_ts = 0.;
          suppressed = 0;
        }
      in
      register b;
      b)

let push b ev =
  if b.len = Array.length b.evs then begin
    let grown = Array.make (2 * b.len) dummy_ev in
    Array.blit b.evs 0 grown 0 b.len;
    b.evs <- grown
  end;
  b.evs.(b.len) <- ev;
  b.len <- b.len + 1

(* Wall-clock, clamped non-decreasing per buffer so per-tid timestamp
   monotonicity holds by construction. *)
let now b =
  let t = Unix.gettimeofday () in
  let t = if t >= b.last_ts then t else b.last_ts in
  b.last_ts <- t;
  t

let span_begin ?(args = []) name =
  if Atomic.get enabled_flag then begin
    let b = Pool.Dls.get buffer_key in
    if b.len >= Atomic.get event_cap then begin
      b.suppressed <- b.suppressed + 1;
      Atomic.incr dropped
    end
    else push b { ev_name = name; ev_ph = 'B'; ev_ts = now b; ev_args = args }
  end

let span_end name =
  if Atomic.get enabled_flag then begin
    let b = Pool.Dls.get buffer_key in
    if b.suppressed > 0 then b.suppressed <- b.suppressed - 1
    else push b { ev_name = name; ev_ph = 'E'; ev_ts = now b; ev_args = [] }
  end

let span ?args name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    span_begin ?args name;
    match f () with
    | v ->
        span_end name;
        v
    | exception e ->
        span_end name;
        raise e
  end

(* ------------------------------------------------------------------ *)
(* Counters and gauges: one process-global Atomic cell per name.  The
   registry is a CAS-pushed list; [make] re-scans on CAS failure, so one
   name can never get two cells. *)

type cell = { c_name : string; c_value : int Atomic.t }

let make_in registry name =
  let rec loop () =
    let l = Atomic.get registry in
    match List.find_opt (fun c -> String.equal c.c_name name) l with
    | Some c -> c
    | None ->
        let c = { c_name = name; c_value = Atomic.make 0 } in
        if Atomic.compare_and_set registry l (c :: l) then c else loop ()
  in
  loop ()

let snapshot registry =
  Atomic.get registry
  |> List.map (fun c -> (c.c_name, Atomic.get c.c_value))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counter_registry : cell list Atomic.t = Atomic.make []
let gauge_registry : cell list Atomic.t = Atomic.make []

module Counter = struct
  type t = cell

  let make name = make_in counter_registry name
  let name c = c.c_name
  let incr c = if Atomic.get enabled_flag then Atomic.incr c.c_value

  let add c k =
    if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c.c_value k)

  let value c = Atomic.get c.c_value
end

module Gauge = struct
  type t = cell

  let make name = make_in gauge_registry name
  let name c = c.c_name
  let set c v = if Atomic.get enabled_flag then Atomic.set c.c_value v
  let value c = Atomic.get c.c_value
end

let counters () = snapshot counter_registry
let gauges () = snapshot gauge_registry

(* ------------------------------------------------------------------ *)
(* Latency reservoirs: a bounded ring of float samples (milliseconds)
   guarded by a per-reservoir mutex — recording is a lock, a store and
   an increment, cheap enough for per-request paths; percentiles sort a
   snapshot copy on demand.  Like counters, samples are dropped while
   recording is disabled. *)

module Latency = struct
  type t = {
    l_name : string;
    l_mu : Mutex.t;
    l_ring : float array;
    mutable l_next : int;  (* next write slot *)
    mutable l_count : int;  (* total samples recorded since reset *)
  }

  type stats = { count : int; p50 : float; p99 : float; max : float }

  let registry : t list Atomic.t = Atomic.make []

  let make ?(cap = 4096) name =
    let rec loop () =
      let l = Atomic.get registry in
      match List.find_opt (fun r -> String.equal r.l_name name) l with
      | Some r -> r
      | None ->
          let r =
            {
              l_name = name;
              l_mu = Mutex.create ();
              l_ring = Array.make (max 1 cap) 0.0;
              l_next = 0;
              l_count = 0;
            }
          in
          if Atomic.compare_and_set registry l (r :: l) then r else loop ()
    in
    loop ()

  let name r = r.l_name

  let record r ms =
    if Atomic.get enabled_flag then begin
      Mutex.lock r.l_mu;
      r.l_ring.(r.l_next) <- ms;
      r.l_next <- (r.l_next + 1) mod Array.length r.l_ring;
      r.l_count <- r.l_count + 1;
      Mutex.unlock r.l_mu
    end

  let stats r =
    Mutex.lock r.l_mu;
    let n = min r.l_count (Array.length r.l_ring) in
    let samples = Array.sub r.l_ring 0 n in
    let count = r.l_count in
    Mutex.unlock r.l_mu;
    if n = 0 then { count; p50 = 0.0; p99 = 0.0; max = 0.0 }
    else begin
      Array.sort Float.compare samples;
      let pct p =
        samples.(min (n - 1) (int_of_float (Float.of_int (n - 1) *. p +. 0.5)))
      in
      { count; p50 = pct 0.5; p99 = pct 0.99; max = samples.(n - 1) }
    end

  let reset_all () =
    List.iter
      (fun r ->
        Mutex.lock r.l_mu;
        r.l_next <- 0;
        r.l_count <- 0;
        Mutex.unlock r.l_mu)
      (Atomic.get registry)
end

let reset () =
  List.iter
    (fun c -> Atomic.set c.c_value 0)
    (Atomic.get counter_registry @ Atomic.get gauge_registry);
  Latency.reset_all ();
  List.iter
    (fun b ->
      b.len <- 0;
      b.last_ts <- 0.;
      b.suppressed <- 0)
    (Atomic.get buffers);
  Atomic.set dropped 0

(* ------------------------------------------------------------------ *)
(* Export. *)

(* Buffers in tid order; a deterministic merge of whatever was recorded. *)
let sorted_buffers () =
  List.sort (fun a b -> Int.compare a.tid b.tid) (Atomic.get buffers)

let epoch () =
  List.fold_left
    (fun acc b -> if b.len > 0 then Float.min acc b.evs.(0).ev_ts else acc)
    infinity (sorted_buffers ())

(* Every recorded event as [(tid, ev, microseconds from the earliest)]. *)
let recorded () =
  let t0 = epoch () in
  List.concat_map
    (fun b ->
      List.init b.len (fun i ->
          let e = b.evs.(i) in
          (b.tid, e, (e.ev_ts -. t0) *. 1e6)))
    (sorted_buffers ())

let events () =
  List.map (fun (tid, e, us) -> (tid, e.ev_name, e.ev_ph, us)) (recorded ())

(* The one begin/end walk behind [summary] and [Chrome.validate]: pair
   the B/E events of each tid with a stack, call [on_span name t0 t1]
   once per closed span, and return the first break of stack discipline
   (a ts going backwards on a tid, an E that closes nothing or names
   another open span, a B never closed).  An E without a name closes the
   innermost open span, as in Chrome's format. *)
let walk_spans on_span evs =
  let tids = Hashtbl.create 8 (* tid -> last ts, open spans *) in
  let error = ref None in
  let fail fmt =
    Printf.ksprintf (fun s -> if !error = None then error := Some s) fmt
  in
  List.iter
    (fun (tid, name, ph, ts) ->
      let last, stack =
        Option.value (Hashtbl.find_opt tids tid) ~default:(ts, [])
      in
      if ts < last then fail "ts %.3f < %.3f on tid %d" ts last tid;
      let stack =
        match (ph, stack) with
        | 'B', _ -> (name, ts) :: stack
        | 'E', [] ->
            fail "E \"%s\" with empty stack on tid %d" name tid;
            []
        | 'E', (open_name, t0) :: rest ->
            if name <> "" && name <> open_name then
              fail "E \"%s\" closes open \"%s\" on tid %d" name open_name tid;
            on_span open_name t0 ts;
            rest
        | _ -> stack
      in
      Hashtbl.replace tids tid (ts, stack))
    evs;
  Hashtbl.iter
    (fun tid -> function
      | _, [] -> ()
      | _, (name, _) :: _ -> fail "tid %d: span \"%s\" never closed" tid name)
    tids;
  match !error with None -> Ok () | Some msg -> Error msg

let summary () =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "== observability summary ==\n";
  let section title = function
    | [] -> add "%s: (none)\n" title
    | entries ->
        add "%s:\n" title;
        List.iter (fun (name, v) -> add "  %-36s %12d\n" name v) entries
  in
  section "counters" (List.filter (fun (_, v) -> v <> 0) (counters ()));
  if Atomic.get dropped > 0 then
    add "dropped spans (event cap): %d\n" (Atomic.get dropped);
  let gs = List.filter (fun (_, v) -> v <> 0) (gauges ()) in
  if gs <> [] then section "gauges" gs;
  (* Per-name span aggregates: count and total microseconds. *)
  let agg = Hashtbl.create 16 in
  ignore
    (walk_spans
       (fun name t0 t1 ->
         let n, total =
           Option.value (Hashtbl.find_opt agg name) ~default:(0, 0.)
         in
         Hashtbl.replace agg name (n + 1, total +. (t1 -. t0)))
       (events ()));
  let spans = Hashtbl.fold (fun name (n, t) l -> (name, n, t) :: l) agg [] in
  (match List.sort compare spans with
  | [] -> add "spans: (none)\n"
  | spans ->
      add "spans:\n";
      add "  %-36s %8s %12s\n" "name" "count" "total_ms";
      List.iter
        (fun (name, n, t) -> add "  %-36s %8d %12.3f\n" name n (t /. 1e3))
        spans);
  Buffer.contents buf

(* One event per line; [ts] in microseconds, rounded to 3 decimals. *)
let chrome_trace () =
  let event (tid, e, us) =
    let args = List.map (fun (k, v) -> (k, Json.Str v)) e.ev_args in
    Json.to_string
      (Json.Obj
         ([
            ("name", Json.Str e.ev_name);
            ("ph", Json.Str (String.make 1 e.ev_ph));
            ("ts", Json.Float (Float.round (us *. 1e3) /. 1e3));
            ("pid", Json.Int 1);
            ("tid", Json.Int tid);
          ]
         @ if args = [] then [] else [ ("args", Json.Obj args) ]))
  in
  "{\"traceEvents\":[\n"
  ^ String.concat ",\n" (List.map event (recorded ()))
  ^ "\n],\"displayTimeUnit\":\"ms\"}\n"

module Chrome = struct
  let validate text =
    let invalid fmt = Printf.ksprintf failwith fmt in
    (* A B/E event as [(tid, name, ph, ts)]; [None] for any other phase. *)
    let span e =
      let field k = Json.member k e in
      let name = match field "name" with Some (Json.Str n) -> n | _ -> "" in
      let ts =
        match field "ts" with
        | Some (Json.Int n) -> Some (float_of_int n)
        | Some (Json.Float f) -> Some f
        | _ -> None
      in
      match (field "ph", field "tid", ts) with
      | Some (Json.Str (("B" | "E") as ph)), Some (Json.Int tid), Some ts ->
          Some (tid, name, ph.[0], ts)
      | Some (Json.Str (("B" | "E") as ph)), _, _ ->
          invalid "%s \"%s\" without an integer tid and a numeric ts" ph name
      | _ -> None
    in
    match
      List.filter_map span
        (match Json.parse text with
        | Json.List evs -> evs
        | doc -> (
            match Json.member "traceEvents" doc with
            | Some (Json.List evs) -> evs
            | _ -> invalid "no traceEvents array"))
    with
    | spans -> walk_spans (fun _ _ _ -> ()) spans
    | exception (Json.Parse_error msg | Failure msg) -> Error msg

  let scrub_timestamps text =
    let buf = Buffer.create (String.length text) in
    let n = String.length text in
    let pat = "\"ts\":" in
    let m = String.length pat in
    let i = ref 0 in
    while !i < n do
      if !i + m <= n && String.sub text !i m = pat then begin
        Buffer.add_string buf "\"ts\":0";
        i := !i + m;
        while
          !i < n
          && (match text.[!i] with
             | '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' -> true
             | _ -> false)
        do
          incr i
        done
      end
      else begin
        Buffer.add_char buf text.[!i];
        incr i
      end
    done;
    Buffer.contents buf
end
