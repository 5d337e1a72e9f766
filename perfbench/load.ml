(* The serve workload: a real `astg serve` child process over a Unix
   socket, driven by a single-threaded generator on at most two
   connections (plus a third that only polls the `metrics` op).

   Traffic: 80% of requests hit a hot key set (the catalog's serve ops,
   Zipf popularity in catalog order), 20% are cold keys from lib/gen
   (distinct specs per seed, small enough that each compute stays well
   under the latency limit).  The hot set is larger than the server's
   in-memory cache, so both cache tiers serve. *)

open Report

let astg = "_build/default/bin/astg.exe"
let work_dir = ".perfbench"
let socket = Filename.concat work_dir "serve.sock"
let cache_dir = Filename.concat work_dir "serve-cache"
let replay_dir = Filename.concat work_dir "replay-cache"

(* One worker domain plus the server's dispatcher domain, beside a
   single-threaded generator: the shape that fits two cores. *)
let workers = 1
let mem_entries = 16
let hot_share = 0.8

(* Offered rates (requests/s) of the open-loop phases: [low] and [high]
   are about 30% and 70% of the 400 requests/s one worker typically
   sustains on a two-core x86 VM; the rest extend the ladder that finds
   [max_rps]. *)
let low_rps = 120.0
let high_rps = 280.0
let ladder = [ low_rps; high_rps; 400.0; 560.0; 780.0; 1060.0 ]
let phase_s = 2.5

(* A phase offers at least this many requests, so its p99 has ten samples
   beyond it: the low phase lasts 8.3 s. *)
let min_phase_requests = 1000
let limit_ms = 250.0

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { st_kind = S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

(* ---- requests ---- *)

type request = {
  line : string;  (** the request as sent, without its newline *)
  label : string;  (** hot: the catalog op name; cold: "cold" *)
  expected : string Lazy.t;  (** the Core.Cli bytes the response must carry *)
}

(* Prefix every signal name of a .g text.  Small lib/gen specs repeat
   often; renamed, each one is a distinct cache key with the same work. *)
let rename ~prefix text =
  let is_edge piece = String.exists (fun ch -> ch = '+' || ch = '-' || ch = '~') piece in
  let pieces f word =
    (* transitions inside marking pairs such as <a+,b-> *)
    String.split_on_char ',' word
    |> List.map (fun p ->
           let n = String.length p in
           let lt = n > 0 && p.[0] = '<' and gt = n > 0 && p.[n - 1] = '>' in
           let core = String.sub p (Bool.to_int lt) (n - Bool.to_int lt - Bool.to_int gt) in
           (if lt then "<" else "") ^ f core ^ if gt then ">" else "")
    |> String.concat ","
  in
  String.split_on_char '\n' text
  |> List.map (fun line ->
         match String.split_on_char ' ' line with
         | (".inputs" | ".outputs" | ".internal") as d :: names ->
             String.concat " " (d :: List.map (fun s -> prefix ^ s) names)
         | words ->
             String.concat " "
               (List.map
                  (pieces (fun p -> if is_edge p then prefix ^ p else p))
                  words))
  |> String.concat "\n"

(* A cold key: a lib/gen spec with one of three ops, each bounded so one
   compute stays far below [limit_ms]: synth gets two-signal specs, as
   three-signal ones took up to 120 ms. *)
let cold_request ~id gseed =
  let cls, max_signals, verb, options =
    match gseed mod 10 with
    | 0 | 1 | 2 | 3 | 4 -> (List.nth Gen.all_classes (gseed mod 3), 5, Serve.Ops.Check, [])
    | 5 | 6 | 7 ->
        ( (if gseed mod 2 = 0 then `Sp else `Fc), 4,
          Serve.Ops.Reduce Core.Cli.default_reduce, [] )
    | _ ->
        ( `Sp, 2,
          Serve.Ops.Synth { Core.Cli.default_synth with max_csc = 1 },
          [ ("max_csc", Serve.Json.Int 1) ] )
  in
  let spec =
    Stg.Io.print (Gen.case_to_stg (Gen.random_case ~max_signals ~cls gseed))
    |> rename ~prefix:(Printf.sprintf "c%dx" id)
  in
  let cli () =
    let stg = Stg.Io.parse spec in
    match verb with
    | Check -> Ok (Core.Cli.check_text stg)
    | Synth o -> Core.Cli.synth_text o stg
    | Reduce o -> Core.Cli.reduce_text o stg
  in
  {
    line = Catalog.request_line ~id verb ~options spec;
    label = "cold";
    expected = lazy (match cli () with Ok s -> s | Error msg -> "error: " ^ msg);
  }

let hot_request ~id (op : Catalog.op) =
  {
    line =
      Catalog.request_line ~id op.verb ~options:(Catalog.options_json op.flags)
        op.spec;
    label = op.name;
    expected = lazy op.expected;
  }

(* Zipf(1) over the hot ops, rank = catalog order. *)
let zipf hot =
  let n = Array.length hot in
  let w = Array.init n (fun i -> 1.0 /. float_of_int (i + 1)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  fun rng ->
    let x = Random.State.float rng total in
    let rec go i acc =
      if i >= n - 1 || acc +. w.(i) > x then hot.(i) else go (i + 1) (acc +. w.(i))
    in
    go 0 0.0

type inputs = {
  warm : request list;  (** every hot op once *)
  pass : request list;  (** closed-loop pass: every hot op plus Zipf draws *)
  phases : (float * request array) list;  (** offered rate, stream *)
}

let make_inputs ~seed hot =
  let rng = Random.State.make [| seed; 7 |] in
  let id = ref 0 in
  let next_id () =
    incr id;
    !id
  in
  let draw = zipf hot in
  let cold = ref 0 in
  let mix () =
    if Random.State.float rng 1.0 < hot_share then
      hot_request ~id:(next_id ()) (draw rng)
    else begin
      incr cold;
      cold_request ~id:(next_id ()) ((seed * 100_003) + !cold)
    end
  in
  let warm = Array.to_list (Array.map (fun op -> hot_request ~id:(next_id ()) op) hot) in
  let pass =
    Stats.shuffle rng
      (warm @ List.init (2 * Array.length hot) (fun _ -> hot_request ~id:0 (draw rng)))
  in
  let phases =
    List.map
      (fun rate ->
        let n = max min_phase_requests (int_of_float (rate *. phase_s)) in
        (rate, Array.init n (fun _ -> mix ())))
      ladder
  in
  { warm; pass; phases }

(* ---- connections ---- *)

type conn = { fd : Unix.file_descr; buf : Buffer.t; chunk : Bytes.t }

let rec connect ~deadline =
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  match Unix.connect fd (ADDR_UNIX socket) with
  | () -> { fd; buf = Buffer.create 4096; chunk = Bytes.create 65536 }
  | exception Unix.Unix_error _ when Stats.now () < deadline ->
      Unix.close fd;
      Unix.sleepf 0.002;
      connect ~deadline
  | exception e ->
      Unix.close fd;
      raise e

let send c line =
  let s = line ^ "\n" in
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring c.fd s off (String.length s - off))
  in
  go 0

(* One read into the buffer. *)
let fill c =
  match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
  | 0 -> failwith "server closed the connection"
  | n -> Buffer.add_subbytes c.buf c.chunk 0 n

(* Complete lines in the buffer, oldest first. *)
let take_lines c =
  match String.split_on_char '\n' (Buffer.contents c.buf) |> List.rev with
  | rest :: complete ->
      Buffer.clear c.buf;
      Buffer.add_string c.buf rest;
      List.rev complete
  | [] -> []

let rec recv_line c =
  let s = Buffer.contents c.buf in
  match String.index_opt s '\n' with
  | Some i ->
      Buffer.clear c.buf;
      Buffer.add_string c.buf (String.sub s (i + 1) (String.length s - i - 1));
      String.sub s 0 i
  | None ->
      fill c;
      recv_line c

let request c line =
  send c line;
  recv_line c

let metrics_line = {|{"id":0,"op":"metrics"}|}

(* ---- server process ---- *)

type server = { pid : int; log : Unix.file_descr }

let spawn () =
  rm_rf cache_dir;
  (try Sys.remove socket with Sys_error _ -> ());
  let log =
    Unix.openfile (Filename.concat work_dir "serve.log")
      [ O_WRONLY; O_CREAT; O_APPEND ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ O_RDONLY ] 0 in
  let pid =
    Unix.create_process astg
      [|
        astg; "serve"; "--socket"; socket; "--cache-dir"; cache_dir;
        "--workers"; string_of_int workers; "--mem-entries";
        string_of_int mem_entries; "--queue-bound"; "1000000";
      |]
      null log log
  in
  Unix.close null;
  let srv = { pid; log } in
  (* set-up ends with the first answer *)
  let c = connect ~deadline:(Stats.now () +. 30.0) in
  ignore (request c metrics_line);
  Unix.close c.fd;
  srv

let stop srv =
  (try Unix.kill srv.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] srv.pid);
  Unix.close srv.log

(* The running server, stopped on any exit. *)
let current = ref None

let stop_current () =
  Option.iter stop !current;
  current := None

let () = at_exit stop_current

(* ---- response checking ---- *)

let check (r : request) response =
  incr attempted;
  let open Serve.Json in
  match parse response with
  | exception Parse_error msg -> fail_op r.label ("bad response: " ^ msg)
  | j -> (
      match (member "ok" j, Option.bind (member "result" j) (member "output")) with
      | Some (Bool true), Some (Str out) ->
          if not (String.equal out (Lazy.force r.expected)) then
            fail_op r.label "response differs from the CLI bytes"
      | _ -> fail_op r.label ("error response: " ^ response))

let closed c reqs =
  List.map
    (fun r ->
      let resp, dt = Stats.time (fun () -> request c r.line) in
      check r resp;
      (r.label, dt))
    reqs

let field path j =
  List.fold_left (fun j k -> Option.bind j (Serve.Json.member k)) (Some j) path

let num path j =
  match field path j with
  | Some (Serve.Json.Float f) -> f
  | Some (Serve.Json.Int n) -> float_of_int n
  | _ -> 0.0

(* ---- open loop ---- *)

type phase = {
  rate : float;
  lat_ms : float list;
  lag_ms : float list;
  drain_ms : float;  (** last response after the last due time *)
  done_rps : float;
  queue_max : float;
  inflight_max : float;
}

(* Send [stream] on schedule, alternating two connections, and time each
   request from when it was due.  [cm] polls the server's gauges. *)
let open_loop (c0, c1, cm) rate (stream : request array) =
  let n = Array.length stream in
  let conns = [| c0; c1 |] in
  let pending = [| Queue.create (); Queue.create () |] in
  let lat = ref [] and lag = ref [] and responses = ref [] in
  let received = ref 0 and last_recv = ref 0.0 in
  let queue_max = ref 0.0 and inflight_max = ref 0.0 in
  let next_poll = ref 0.0 and polling = ref false in
  let t0 = Stats.now () +. 0.01 in
  let due i = t0 +. (float_of_int i /. rate) in
  let sent = ref 0 in
  let deadline = due n +. 30.0 in
  while !received < n && Stats.now () < deadline do
    let now = Stats.now () in
    if !sent < n && now >= due !sent then begin
      let i = !sent in
      send conns.(i mod 2) stream.(i).line;
      Queue.push (i, due i) pending.(i mod 2);
      lag := ((now -. due i) *. 1e3) :: !lag;
      incr sent
    end
    else begin
      if (not !polling) && now >= !next_poll then begin
        send cm metrics_line;
        polling := true;
        next_poll := now +. 0.05
      end;
      let timeout = if !sent < n then Float.max 0.0 (due !sent -. now) else 0.05 in
      let ready, _, _ =
        try Unix.select [ c0.fd; c1.fd; cm.fd ] [] [] timeout
        with Unix.Unix_error (EINTR, _, _) -> ([], [], [])
      in
      List.iter
        (fun fd ->
          if fd = cm.fd then begin
            fill cm;
            List.iter
              (fun l ->
                polling := false;
                let j = Serve.Json.parse l in
                queue_max := Float.max !queue_max (num [ "result"; "queue"; "depth" ] j);
                inflight_max :=
                  Float.max !inflight_max (num [ "result"; "queue"; "inflight" ] j))
              (take_lines cm)
          end
          else begin
            let k = if fd = c0.fd then 0 else 1 in
            fill conns.(k);
            let t = Stats.now () in
            List.iter
              (fun l ->
                let i, d = Queue.pop pending.(k) in
                responses := (i, l) :: !responses;
                lat := ((t -. d) *. 1e3) :: !lat;
                incr received;
                last_recv := t)
              (take_lines conns.(k))
          end)
        ready
    end
  done;
  if !polling then ignore (recv_line cm);
  (* checked after the schedule, so the generator never computes *)
  List.iter (fun (i, l) -> check stream.(i) l) !responses;
  for _ = !received + 1 to n do
    incr attempted;
    fail_op "serve" "response lost"
  done;
  {
    rate;
    lat_ms = !lat;
    lag_ms = !lag;
    drain_ms = Float.max 0.0 ((!last_recv -. due (n - 1)) *. 1e3);
    done_rps = float_of_int !received /. (!last_recv -. t0);
    queue_max = !queue_max;
    inflight_max = !inflight_max;
  }

(* Within the latency limit, with no backlog left when the schedule ends. *)
let meets_limit p =
  Stats.quantile 0.99 p.lat_ms <= limit_ms && p.drain_ms <= limit_ms

(* ---- in-process replay, for the traced run ---- *)

type timer = { mutable sum : float; mutable count : int }

let timer () = { sum = 0.0; count = 0 }

let add tm dt =
  tm.sum <- tm.sum +. dt;
  tm.count <- tm.count + 1

let timed tm f =
  let r, dt = Stats.time f in
  add tm dt;
  r

let mean_us tm = if tm.count = 0 then 0.0 else tm.sum *. 1e6 /. float_of_int tm.count

(* The server's request path, one step at a time: JSON, canonical spec
   and key, the two-tier cache, compute and store. *)
let replay reqs =
  rm_rf replay_dir;
  Boolf.Memo.clear ();
  let cache = Serve.Cache.create ~mem_entries ~dir:replay_dir () in
  let t_json = timer () and t_key = timer () and t_mem = timer ()
  and t_disk = timer () and t_store = timer () and t_compute = timer () in
  let span = Obs.span in
  List.iter
    (fun r ->
      span "serve.request" @@ fun () ->
      match
        timed t_json (fun () ->
            span "serve.json" (fun () ->
                Serve.Ops.request_of_json (Serve.Json.parse r.line)))
      with
      | Ok (Serve.Ops.Exec (op, spec)) ->
          let stg, key =
            timed t_key (fun () ->
                let stg = Stg.Io.parse spec in
                let canon = span "stg.print" (fun () -> Stg.Io.print stg) in
                (stg, span "serve.key" (fun () -> Serve.Ops.key ~spec:canon op)))
          in
          let found, dt =
            Stats.time (fun () ->
                span "serve.cache.find" (fun () -> Serve.Cache.find cache key))
          in
          let payload =
            match found with
            | Some (payload, tier) ->
                add (match tier with `Mem -> t_mem | `Disk -> t_disk) dt;
                payload
            | None ->
                let out =
                  timed t_compute (fun () ->
                      span "serve.compute" (fun () -> Serve.Ops.run op stg))
                in
                let payload =
                  span "serve.json" (fun () ->
                      Serve.Json.(
                        to_string
                          (Obj
                             [ ("output", Str (Result.fold ~ok:Fun.id ~error:Fun.id out)) ])))
                in
                timed t_store (fun () ->
                    span "serve.cache.store" (fun () ->
                        Serve.Cache.store cache key payload));
                payload
          in
          check r (Printf.sprintf {|{"ok":true,"result":%s}|} payload)
      | Ok Serve.Ops.Metrics | Error _ ->
          incr attempted;
          fail_op r.label "replay: not a compute request")
    reqs;
  [
    ("serve.json_us", mean_us t_json);
    ("serve.key_us", mean_us t_key);
    ("serve.cache_find_us.mem", mean_us t_mem);
    ("serve.cache_find_us.disk", mean_us t_disk);
    ("serve.cache_store_us", mean_us t_store);
    ("serve.compute_ms", mean_us t_compute /. 1e3);
  ]

(* ---- the workload ---- *)

let run ~seed ~seconds ~trace =
  if not (Sys.file_exists work_dir) then Unix.mkdir work_dir 0o755;
  let hot = Array.of_list (Catalog.for_workload "serve" (Catalog.load ())) in
  (* Until the open loop, the generator, its speed probes and the server
     (which inherits the mask) share one CPU: the two vCPUs of a shared VM
     slow down independently, and with the server on the other one, 2
     closed-loop runs in 10 read 2x slower than the probes showed. *)
  let all_cpus = Printf.sprintf "0-%d" (Domain.recommended_domain_count () - 1) in
  Stats.pin ~cpus:"0" (Unix.getpid ());
  (* set-up: make the inputs, spawn the server, wait for its first answer *)
  let inputs, setup_s =
    Stats.median_setup 5 ~untimed:stop_current (fun () ->
        let inputs = make_inputs ~seed hot in
        current := Some (spawn ());
        inputs)
  in
  let srv = Option.get !current in
  let dial () = connect ~deadline:(Stats.now () +. 5.0) in
  let c0 = dial () and c1 = dial () and cm = dial () in
  ignore (closed c0 inputs.warm);
  (* the server's peak RSS after the same work in every run: the warm-up.
     After the open loop it varied by 7% between seeds, with the cold
     specs they draw. *)
  set "peak_rss_mb" (Stats.peak_rss_mb (string_of_int srv.pid));
  (* closed loop over the warm hot set *)
  let passes = ref [] in
  let budget = Float.max 1.0 (seconds /. 4.0) in
  let t_start = Stats.now () in
  while !passes = [] || Stats.now () -. t_start < budget do
    Stats.maybe_probe ();
    let t0 = Stats.now () in
    let lat = closed c0 inputs.pass in
    passes := (t0, Stats.now (), lat) :: !passes
  done;
  Stats.probe ();
  List.iter (Stats.pin ~cpus:all_cpus) [ srv.pid; Unix.getpid () ];
  let samples = Hashtbl.create 64 and pass_times = ref [] in
  List.iter
    (fun (t0, t1, lat) ->
      let speed = Stats.speed ~t0 ~t1 in
      pass_times := (speed *. (t1 -. t0), t1 -. t0) :: !pass_times;
      List.iter
        (fun (label, dt) ->
          Hashtbl.replace samples label
            ((speed *. dt *. 1e3) :: Option.value ~default:[] (Hashtbl.find_opt samples label)))
        lat)
    !passes;
  set "setup_s" setup_s;
  set "pass_s" (Stats.median (List.map fst !pass_times));
  set "raw.pass_s" (Stats.median (List.map snd !pass_times));
  set "machine.probe_ms" (Stats.probe_ms ());
  set "op_geomean_ms"
    (Stats.geomean (Hashtbl.fold (fun _ l acc -> Stats.median l :: acc) samples []));
  (* open loop: climb the rate ladder until the latency limit breaks *)
  let rec climb acc = function
    | [] -> List.rev acc
    | (rate, stream) :: rest ->
        let p = open_loop (c0, c1, cm) rate stream in
        if meets_limit p || rate <= high_rps then climb (p :: acc) rest
        else List.rev (p :: acc)
  in
  let phases = climb [] inputs.phases in
  List.iter
    (fun (name, rate) ->
      Option.iter
        (fun p ->
          set ("serve.req_p50_ms." ^ name) (Stats.median p.lat_ms);
          set ("serve.req_p99_ms." ^ name) (Stats.quantile 0.99 p.lat_ms))
        (List.find_opt (fun p -> p.rate = rate) phases))
    [ ("low", low_rps); ("high", high_rps) ];
  set "serve.max_rps"
    (List.fold_left
       (fun acc p -> if meets_limit p then Float.max acc p.done_rps else acc)
       0.0 phases);
  set "gen.lag_p99_ms" (Stats.quantile 0.99 (List.concat_map (fun p -> p.lag_ms) phases));
  set "serve.queue_depth_max" (List.fold_left (fun a p -> Float.max a p.queue_max) 0.0 phases);
  set "serve.inflight_max" (List.fold_left (fun a p -> Float.max a p.inflight_max) 0.0 phases);
  (* the server's own counters and latency reservoir *)
  let m = Serve.Json.parse (request cm metrics_line) in
  let counter name = num [ "result"; "counters"; name ] m in
  List.iter
    (fun (metric, name) -> set metric (counter name))
    [
      ("serve.hit.mem", "serve.hit.mem"); ("serve.hit.disk", "serve.hit.disk");
      ("serve.miss", "serve.miss"); ("serve.dedup", "serve.hit.dedup");
      ("serve.shed", "serve.shed"); ("serve.timeout", "serve.timeout");
      ("serve.disk.corrupt", "serve.disk.corrupt");
    ];
  set "serve.hit_ratio" (num [ "result"; "cache"; "hit_rate" ] m);
  set "serve.server_p50_ms" (num [ "result"; "latency_ms"; "p50" ] m);
  set "serve.server_p99_ms" (num [ "result"; "latency_ms"; "p99" ] m);
  if counter "serve.disk.corrupt" > 0.0 then fail_op "serve" "corrupt disk cache entries";
  List.iter (fun c -> Unix.close c.fd) [ c0; c1; cm ];
  stop_current ();
  if trace then begin
    (* the same request stream in process: untraced, then traced *)
    let stream =
      inputs.warm @ inputs.pass
      @ List.concat_map
          (fun p ->
            Array.to_list (List.assoc p.rate inputs.phases))
          phases
    in
    let gc0 = Gc.quick_stat () in
    let _, plain = Stats.time (fun () -> replay stream) in
    let gc1 = Gc.quick_stat () in
    set "gc.minor_mwords_per_pass" ((gc1.minor_words -. gc0.minor_words) /. 1e6);
    set "gc.major_collections_per_pass"
      (float_of_int (gc1.major_collections - gc0.major_collections));
    let per_call, wall = traced (fun () -> Stats.time (fun () -> replay stream)) in
    List.iter (fun (k, v) -> set k v) per_call;
    record_trace ~root:"serve.request" ~wall_ms:(wall *. 1e3);
    set "trace.overhead_ratio" (wall /. plain)
  end
