(* The serve suite: the PR 10 hard gates.

   - Differential: for every spec under examples/data and a batch of
     lib/gen random STGs, the serve response payload is byte-identical
     to the astg CLI (true subprocess differential for the examples,
     in-process Core.Cli differential for the random batch), and a
     cache-hit replay is byte-identical to the cold miss.
   - Concurrency stress: 8 client threads with interleaved duplicate and
     distinct requests — responses match ids in FIFO order per client,
     and duplicate keys are computed at most once (counter check).
   - Fault injection: malformed JSON, oversized requests, mid-request
     disconnects, truncated/corrupted disk entries, restarts — always a
     typed error or a silent eviction, never a crash or a wrong answer.
   - Key normalization: option spelling, flag order and jobs must not
     change the cache key (unit + QCheck property); an unknown option
     such as the retired "speculate" is a typed error.

   With ASTG_SERVE_SOCKET set (the CI smoke does this), the examples
   differential runs against that external server instead of an
   in-process one; every other test manages its own server. *)

let examples_dir () =
  match Sys.getenv_opt "ASYNC_REPRO_EXAMPLES" with
  | Some d -> d
  | None ->
      let rec up dir n =
        let cand = Filename.concat dir "examples/data" in
        if Sys.file_exists cand && Sys.is_directory cand then cand
        else if n = 0 || Filename.dirname dir = dir then
          Alcotest.fail "examples/data not found (set ASYNC_REPRO_EXAMPLES)"
        else up (Filename.dirname dir) (n - 1)
      in
      up (Sys.getcwd ()) 8

let g_files () =
  let dir = examples_dir () in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".g")
  |> List.sort compare
  |> List.map (fun f -> (f, Filename.concat dir f))

let read_file path = In_channel.with_open_bin path In_channel.input_all

let tmpdir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

(* ---- server/client plumbing ---- *)

let with_server ?workers ?mem_entries ?cache_dir ?queue_bound ?max_inflight
    ?timeout_ms ?max_request_bytes f =
  let srv =
    Serve.Server.start ?workers ?mem_entries ?cache_dir ?queue_bound
      ?max_inflight ?timeout_ms ?max_request_bytes (`Tcp 0)
  in
  Fun.protect
    ~finally:(fun () -> Serve.Server.stop srv)
    (fun () -> f (Serve.Server.addr srv))

let with_client addr f =
  let c = Serve.Client.connect addr in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> f c)

let request_obj ?options ~id ~op spec =
  let base =
    [
      ("id", Serve.Json.Str id);
      ("op", Serve.Json.Str op);
      ("spec", Serve.Json.Str spec);
    ]
  in
  Serve.Json.Obj
    (match options with None -> base | Some o -> base @ [ ("options", o) ])

let send ?options ~id ~op c spec =
  Serve.Client.request_json c (request_obj ?options ~id ~op spec)

let member name j =
  match Serve.Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "response lacks %S: %s" name (Serve.Json.to_string j)

let get_str = function
  | Serve.Json.Str s -> s
  | j -> Alcotest.failf "expected a string, got %s" (Serve.Json.to_string j)

let get_bool = function
  | Serve.Json.Bool b -> b
  | j -> Alcotest.failf "expected a bool, got %s" (Serve.Json.to_string j)

(* A successful response's output payload — the CLI stdout bytes. *)
let ok_output resp =
  (match member "ok" resp with
  | Serve.Json.Bool true -> ()
  | _ -> Alcotest.failf "expected ok response: %s" (Serve.Json.to_string resp));
  get_str (member "output" (member "result" resp))

let err_kind resp =
  (match member "ok" resp with
  | Serve.Json.Bool false -> ()
  | _ -> Alcotest.failf "expected error response: %s" (Serve.Json.to_string resp));
  get_str (member "kind" (member "error" resp))

let counter name = Obs.Counter.value (Obs.Counter.make name)

(* ---- subprocess CLI ---- *)

let astg_bin () =
  match Sys.getenv_opt "ASTG_BIN" with
  | Some b -> b
  | None ->
      let cand =
        Filename.concat (Filename.dirname Sys.executable_name) "../bin/astg.exe"
      in
      if Sys.file_exists cand then cand
      else Alcotest.fail "astg binary not found (set ASTG_BIN)"

let run_cli args =
  let out = Filename.temp_file "astg_out" ".txt" in
  let err = Filename.temp_file "astg_err" ".txt" in
  let cmd = Filename.quote_command (astg_bin ()) args ~stdout:out ~stderr:err in
  let rc = Sys.command cmd in
  let o = read_file out and e = read_file err in
  Sys.remove out;
  Sys.remove err;
  (rc, o, e)

(* ---- differential: serve vs the CLI, every example spec ---- *)

(* The CI smoke exports ASTG_SERVE_SOCKET to aim this differential at a
   real `astg serve` process; locally it runs against an in-process
   server over TCP. *)
let differential_target f =
  match Sys.getenv_opt "ASTG_SERVE_SOCKET" with
  | Some path -> f (`Unix path)
  | None -> with_server ~workers:2 f

let test_differential_examples () =
  differential_target @@ fun addr ->
  with_client addr @@ fun c ->
  List.iter
    (fun (name, path) ->
      let spec = read_file path in
      (* check always succeeds (failures render in the report) *)
      let rc, cli_out, _ = run_cli [ "check"; path ] in
      Alcotest.(check int) (name ^ " cli check rc") 0 rc;
      let out = ok_output (send ~id:("chk-" ^ name) ~op:"check" c spec) in
      Alcotest.(check string) (name ^ " check payload = CLI stdout") cli_out out;
      (* reduce may fail (e.g. inconsistent partial specs): then the
         serve error must be typed "failed" and carry the CLI's message *)
      let rc, cli_out, cli_err = run_cli [ "reduce"; path ] in
      let resp = send ~id:("red-" ^ name) ~op:"reduce" c spec in
      if rc = 0 then
        Alcotest.(check string)
          (name ^ " reduce payload = CLI stdout")
          cli_out (ok_output resp)
      else begin
        Alcotest.(check string) (name ^ " reduce error typed") "failed"
          (err_kind resp);
        let msg = get_str (member "message" (member "error" resp)) in
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
          nn = 0 || go 0
        in
        if not (contains cli_err msg) then
          Alcotest.failf "%s: serve message %S not in CLI stderr %S" name msg
            cli_err
      end)
    (g_files ())

let test_differential_options () =
  let path = Filename.concat (examples_dir ()) "fig1.g" in
  let spec = read_file path in
  differential_target @@ fun addr ->
  with_client addr @@ fun c ->
  (* synth with both netlist backends *)
  let rc, cli_out, _ =
    run_cli [ "synth"; path; "--emit"; "verilog"; "--emit"; "blif" ]
  in
  Alcotest.(check int) "cli synth rc" 0 rc;
  let options =
    Serve.Json.(Obj [ ("emit", List [ Str "verilog"; Str "blif" ]) ])
  in
  let out = ok_output (send ~options ~id:"syn" ~op:"synth" c spec) in
  Alcotest.(check string) "synth payload = CLI stdout" cli_out out;
  (* reduce with the full option surface *)
  let rc, cli_out, _ =
    run_cli
      [
        "reduce"; path; "--portfolio"; "0.8,0.3"; "--stg"; "--area-model";
        "shared"; "--frontier"; "3";
      ]
  in
  Alcotest.(check int) "cli reduce rc" 0 rc;
  let options =
    Serve.Json.(
      Obj
        [
          ("portfolio", List [ Float 0.8; Float 0.3 ]);
          ("stg", Bool true);
          ("area_model", Str "shared");
          ("frontier", Int 3);
        ])
  in
  let out = ok_output (send ~options ~id:"red" ~op:"reduce" c spec) in
  Alcotest.(check string) "reduce payload = CLI stdout" cli_out out

(* ---- differential: 50 random STGs vs the in-process CLI renderer
   (the same function the binary prints, so this pins the transport:
   JSON escaping of .g text, canonicalization, payload wrapping) ---- *)

let test_differential_random () =
  with_server ~workers:2 @@ fun addr ->
  with_client addr @@ fun c ->
  for i = 0 to 49 do
    let stg =
      if i < 25 then Gen.random_stg ~max_signals:5 i
      else Gen.random_fc_stg ~max_signals:5 (i - 25)
    in
    let spec = Stg.Io.print stg in
    let expected = Core.Cli.check_text (Stg.Io.parse spec) in
    let out = ok_output (send ~id:(string_of_int i) ~op:"check" c spec) in
    Alcotest.(check string)
      (Printf.sprintf "random %d payload = CLI renderer" i)
      expected out
  done

(* ---- cache replay: warm hits replay the cold bytes exactly ---- *)

let test_cache_replay () =
  let dir = tmpdir "serve_replay" in
  let path = Filename.concat (examples_dir ()) "fig1.g" in
  let spec = read_file path in
  let cold = ref "" in
  with_server ~workers:1 ~cache_dir:dir (fun addr ->
      with_client addr @@ fun c ->
      let r1 = send ~id:"cold" ~op:"reduce" c spec in
      Alcotest.(check bool) "cold is uncached" false (get_bool (member "cached" r1));
      Alcotest.(check string) "cold tier" "compute" (get_str (member "tier" r1));
      cold := Serve.Json.to_string (member "result" r1);
      let r2 = send ~id:"warm" ~op:"reduce" c spec in
      Alcotest.(check bool) "warm is cached" true (get_bool (member "cached" r2));
      Alcotest.(check string) "warm tier" "mem" (get_str (member "tier" r2));
      Alcotest.(check string) "warm payload = cold payload" !cold
        (Serve.Json.to_string (member "result" r2)));
  (* restart on the same disk tier: served back without recomputing *)
  let computed0 = counter "serve.computed" in
  with_server ~workers:1 ~cache_dir:dir (fun addr ->
      with_client addr @@ fun c ->
      let r3 = send ~id:"disk" ~op:"reduce" c spec in
      Alcotest.(check string) "disk tier" "disk" (get_str (member "tier" r3));
      Alcotest.(check string) "restart payload = cold payload" !cold
        (Serve.Json.to_string (member "result" r3)));
  Alcotest.(check int) "restart recomputed nothing" computed0
    (counter "serve.computed")

(* ---- key normalization ---- *)

let parse_exec line =
  match Serve.Ops.request_of_json (Serve.Json.parse line) with
  | Ok (Serve.Ops.Exec (op, spec)) -> (op, spec)
  | Ok Serve.Ops.Metrics -> Alcotest.fail "unexpected metrics request"
  | Error msg -> Alcotest.failf "request rejected: %s" msg

let key_of_line line =
  let op, spec = parse_exec line in
  match Serve.Ops.canonical_spec spec with
  | Ok (_, canon) -> Serve.Ops.key ~spec:canon op
  | Error msg -> Alcotest.failf "spec rejected: %s" msg

let test_key_normalization () =
  let spec_text = Stg.Io.print (Gen.random_stg ~max_signals:4 1) in
  let line opts =
    Serve.Json.to_string
      (Serve.Json.Obj
         [
           ("id", Serve.Json.Int 1);
           ("op", Serve.Json.Str "reduce");
           ("spec", Serve.Json.Str spec_text);
           ("options", Serve.Json.parse opts);
         ])
  in
  (* the ISSUE's example: numeric spelling of the same weights *)
  Alcotest.(check string) "0.3,0.7 = 0.30,0.70 (string spelling)"
    (key_of_line (line {|{"portfolio":"0.3,0.7"}|}))
    (key_of_line (line {|{"portfolio":"0.30,0.70"}|}));
  Alcotest.(check string) "list spelling = string spelling"
    (key_of_line (line {|{"portfolio":[0.3,0.7]}|}))
    (key_of_line (line {|{"portfolio":"0.3,0.7"}|}));
  Alcotest.(check string) "w int spelling = float spelling"
    (key_of_line (line {|{"w":1}|}))
    (key_of_line (line {|{"w":1.0}|}));
  (* flag order and jobs must not matter *)
  Alcotest.(check string) "field order + jobs are no-ops"
    (key_of_line (line {|{"frontier":3,"w":0.5,"keep":["a+,b+","a-,b-"]}|}))
    (key_of_line
       (line
          {|{"keep":["b+,a+","a-,b-","a+,b+"],"w":0.5,"jobs":7,"frontier":3}|}));
  (* speculate is not an option: rejected like any unknown field *)
  Alcotest.(check (result reject string))
    "speculate is an unknown option"
    (Error {|unknown reduce option "speculate"|})
    (Serve.Ops.request_of_json
       (Serve.Json.parse (line {|{"speculate":false}|})));
  (* ...but semantics must *)
  let k1 = key_of_line (line {|{"w":0.5}|}) in
  let k2 = key_of_line (line {|{"w":0.25}|}) in
  if k1 = k2 then Alcotest.fail "different w must give different keys";
  (* spec canonicalization: whitespace/comment spelling of the same net *)
  let op, _ = parse_exec (line "{}") in
  let canon_key text =
    match Serve.Ops.canonical_spec text with
    | Ok (_, canon) -> Serve.Ops.key ~spec:canon op
    | Error msg -> Alcotest.failf "spec rejected: %s" msg
  in
  let stg = Gen.random_stg ~max_signals:5 3 in
  let printed = Stg.Io.print stg in
  Alcotest.(check string) "print fixpoint keys agree" (canon_key printed)
    (canon_key ("# a comment\n" ^ printed))

let prop_key_invariance =
  let open QCheck in
  let opts_gen =
    Gen.(
      let* w = oneofl [ 0.0; 0.25; 0.5; 0.8; 1.0 ] in
      let* frontier = 1 -- 6 in
      let* keeps =
        list_size (0 -- 4)
          (pair (oneofl [ "a+"; "b-"; "c+" ]) (oneofl [ "a-"; "b+"; "d-" ]))
      in
      let* print_stg = bool in
      let* area_tree = bool in
      let* portfolio = list_size (0 -- 3) (oneofl [ 0.2; 0.5; 0.9 ]) in
      return (w, frontier, keeps, print_stg, area_tree, portfolio))
  in
  QCheck.Test.make ~count:100
    ~name:"cache key invariant under keep order/dup and jobs"
    (make opts_gen) (fun (w, frontier, keeps, print_stg, area_tree, portfolio) ->
      let mk keeps jobs =
        Serve.Ops.Reduce
          {
            Core.Cli.w;
            frontier;
            keeps;
            print_stg;
            area_mode = (if area_tree then `Tree else `Shared);
            portfolio;
            jobs;
          }
      in
      let spec = "spec-fixpoint-text" in
      let base = Serve.Ops.key ~spec (mk keeps 1) in
      let swapped =
        Serve.Ops.key ~spec
          (mk (List.rev_map (fun (a, b) -> (b, a)) keeps @ keeps) 9)
      in
      String.equal base swapped)

(* ---- concurrency stress ---- *)

let test_stress () =
  let n_clients = 8 in
  (* 4 specs shared by every client (duplicate keys), 1 unique per
     client, requested twice to also exercise the warm path *)
  let shared = List.init 4 (fun i -> Stg.Io.print (Gen.random_stg ~max_signals:4 (100 + i))) in
  let uniq i = Stg.Io.print (Gen.random_stg ~max_signals:4 (200 + i)) in
  (* small random STGs collide across seeds; count the truly distinct
     specs so the computed-once assertion is exact *)
  let distinct_keys =
    List.length
      (List.sort_uniq compare (shared @ List.init n_clients uniq))
  in
  let computed0 = counter "serve.computed" in
  let failures = Array.make n_clients None in
  with_server ~workers:4 ~queue_bound:128 (fun addr ->
      let client i () =
        try
          with_client addr @@ fun c ->
          let specs =
            [ List.nth shared (i mod 4); uniq i; List.nth shared ((i + 1) mod 4);
              uniq i; List.nth shared ((i + 2) mod 4); List.nth shared ((i + 3) mod 4) ]
          in
          (* pipeline: send everything, then read responses back — they
             must come back in request order with matching ids *)
          List.iteri
            (fun j spec ->
              Serve.Client.send_line c
                (Serve.Json.to_string
                   (request_obj ~id:(Printf.sprintf "c%d-%d" i j) ~op:"check"
                      spec)))
            specs;
          List.iteri
            (fun j _ ->
              match Serve.Client.recv_line c with
              | None -> failwith "server closed mid-stream"
              | Some resp ->
                  let r = Serve.Json.parse resp in
                  let id = get_str (member "id" r) in
                  let want = Printf.sprintf "c%d-%d" i j in
                  if id <> want then
                    failwith (Printf.sprintf "FIFO violation: got %s want %s" id want);
                  ignore (ok_output r))
            specs
        with e -> failures.(i) <- Some (Printexc.to_string e)
      in
      let threads = List.init n_clients (fun i -> Thread.create (client i) ()) in
      List.iter Thread.join threads);
  Array.iteri
    (fun i f ->
      match f with
      | Some msg -> Alcotest.failf "client %d failed: %s" i msg
      | None -> ())
    failures;
  Alcotest.(check int) "duplicate keys computed at most once" distinct_keys
    (counter "serve.computed" - computed0)

(* ---- fault injection ---- *)

let test_fault_malformed () =
  with_server ~workers:1 @@ fun addr ->
  with_client addr @@ fun c ->
  let expect_kind kind line =
    let r = Serve.Json.parse (Serve.Client.request c line) in
    Alcotest.(check string) (kind ^ " is typed") kind (err_kind r)
  in
  expect_kind "parse" "{nope";
  expect_kind "parse" "[1,2,3";
  expect_kind "op" {|{"id":1,"op":"frobnicate","spec":"x"}|};
  expect_kind "op" {|{"id":1,"spec":"x"}|};
  expect_kind "op" {|{"id":1,"op":"reduce","spec":"x","options":{"wibble":1}}|};
  expect_kind "op" {|{"id":1,"op":"check"}|};
  expect_kind "spec" {|{"id":1,"op":"check","spec":"not a .g file"}|};
  (* the connection survived all of it *)
  let spec = read_file (Filename.concat (examples_dir ()) "fig1.g") in
  ignore (ok_output (send ~id:"after" ~op:"check" c spec))

let test_fault_oversized () =
  with_server ~workers:1 ~max_request_bytes:1024 @@ fun addr ->
  with_client addr @@ fun c ->
  let big =
    Printf.sprintf {|{"id":1,"op":"check","spec":"%s"}|} (String.make 4096 'x')
  in
  let r = Serve.Json.parse (Serve.Client.request c big) in
  Alcotest.(check string) "oversized is typed" "oversized" (err_kind r);
  let spec = read_file (Filename.concat (examples_dir ()) "fig1.g") in
  ignore (ok_output (send ~id:"after" ~op:"check" c spec))

let test_fault_disconnect () =
  with_server ~workers:1 @@ fun addr ->
  let spec = read_file (Filename.concat (examples_dir ()) "micropipeline.g") in
  (* fire a compute-heavy request and hang up before the response *)
  let c = Serve.Client.connect addr in
  Serve.Client.send_line c
    (Serve.Json.to_string (request_obj ~id:"gone" ~op:"reduce" spec));
  Serve.Client.close c;
  Thread.delay 0.05;
  (* the server shrugged it off and still answers *)
  with_client addr @@ fun c2 ->
  ignore (ok_output (send ~id:"alive" ~op:"check" c2 spec))

let test_fault_corrupt_disk () =
  let dir = tmpdir "serve_corrupt" in
  let path = Filename.concat (examples_dir ()) "fig1.g" in
  let spec = read_file path in
  let good = ref "" in
  with_server ~workers:1 ~cache_dir:dir (fun addr ->
      with_client addr @@ fun c ->
      good := ok_output (send ~id:"seed" ~op:"check" c spec));
  (* mangle every cache entry: truncation and byte corruption *)
  let entries =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> not (String.length f > 0 && f.[0] = '.'))
  in
  Alcotest.(check bool) "disk tier was written" true (entries <> []);
  List.iteri
    (fun i f ->
      let p = Filename.concat dir f in
      if i mod 2 = 0 then
        (* truncate *)
        let oc = open_out_gen [ Open_wronly; Open_trunc ] 0o644 p in
        close_out oc
      else begin
        let body = read_file p in
        let b = Bytes.of_string body in
        Bytes.set b (Bytes.length b - 1) '!';
        Out_channel.with_open_bin p (fun oc -> Out_channel.output_bytes oc b)
      end)
    entries;
  let corrupt0 = counter "serve.disk.corrupt" in
  with_server ~workers:1 ~cache_dir:dir (fun addr ->
      with_client addr @@ fun c ->
      let r = send ~id:"re" ~op:"check" c spec in
      (* silently evicted and recomputed: right bytes, compute tier *)
      Alcotest.(check string) "recomputed bytes match" !good (ok_output r);
      Alcotest.(check string) "corrupt entry not served" "compute"
        (get_str (member "tier" r)));
  Alcotest.(check bool) "corruption was counted" true
    (counter "serve.disk.corrupt" > corrupt0)

let test_shedding () =
  with_server ~workers:1 ~queue_bound:0 @@ fun addr ->
  with_client addr @@ fun c ->
  let spec = read_file (Filename.concat (examples_dir ()) "fig1.g") in
  let r = send ~id:"shed" ~op:"check" c spec in
  Alcotest.(check string) "load shedding is typed busy" "busy" (err_kind r)

let test_timeout () =
  let spec = read_file (Filename.concat (examples_dir ()) "micropipeline.g") in
  let expected =
    match Core.Cli.reduce_text Core.Cli.default_reduce (Stg.Io.parse spec) with
    | Ok text -> text
    | Error msg -> Alcotest.failf "reduce failed: %s" msg
  in
  with_server ~workers:1 ~timeout_ms:5 @@ fun addr ->
  with_client addr @@ fun c ->
  let r = send ~id:"slow" ~op:"reduce" c spec in
  Alcotest.(check string) "deadline is typed timeout" "timeout" (err_kind r);
  (* the late result still lands in the cache: retry until it serves *)
  let rec retry n =
    if n = 0 then Alcotest.fail "timed-out result never became servable"
    else
      let r = send ~id:(Printf.sprintf "retry%d" n) ~op:"reduce" c spec in
      match member "ok" r with
      | Serve.Json.Bool true ->
          Alcotest.(check string) "late result bytes are the CLI bytes" expected
            (ok_output r)
      | _ ->
          Thread.delay 0.05;
          retry (n - 1)
  in
  retry 100

let test_metrics () =
  with_server ~workers:1 @@ fun addr ->
  with_client addr @@ fun c ->
  let spec = read_file (Filename.concat (examples_dir ()) "fig1.g") in
  ignore (ok_output (send ~id:"a" ~op:"check" c spec));
  ignore (ok_output (send ~id:"b" ~op:"check" c spec));
  let r = Serve.Client.request_json c
      (Serve.Json.Obj [ ("id", Serve.Json.Str "m"); ("op", Serve.Json.Str "metrics") ])
  in
  let result = member "result" r in
  let cache = member "cache" result in
  (match member "hits" cache with
  | Serve.Json.Int h when h >= 1 -> ()
  | j -> Alcotest.failf "expected >= 1 cache hit, got %s" (Serve.Json.to_string j));
  (match member "count" (member "latency_ms" result) with
  | Serve.Json.Int n when n >= 2 -> ()
  | j -> Alcotest.failf "expected >= 2 latency samples, got %s" (Serve.Json.to_string j));
  ignore (member "depth" (member "queue" result));
  ignore (member "counters" result)

let suite =
  [
    Alcotest.test_case "differential: serve = CLI on every example" `Quick
      test_differential_examples;
    Alcotest.test_case "differential: full option surface" `Quick
      test_differential_options;
    Alcotest.test_case "differential: 50 random STGs" `Quick
      test_differential_random;
    Alcotest.test_case "cache replay is byte-identical (mem + disk)" `Quick
      test_cache_replay;
    Alcotest.test_case "cache key normalization (unit)" `Quick
      test_key_normalization;
    QCheck_alcotest.to_alcotest prop_key_invariance;
    Alcotest.test_case "stress: 8 clients, FIFO ids, dedup computes once"
      `Quick test_stress;
    Alcotest.test_case "faults: malformed requests are typed, conn survives"
      `Quick test_fault_malformed;
    Alcotest.test_case "faults: oversized requests are typed, conn survives"
      `Quick test_fault_oversized;
    Alcotest.test_case "faults: mid-request disconnect" `Quick
      test_fault_disconnect;
    Alcotest.test_case "faults: corrupt disk entries evicted, never served"
      `Quick test_fault_corrupt_disk;
    Alcotest.test_case "load shedding is a typed busy response" `Quick
      test_shedding;
    Alcotest.test_case "deadline: typed timeout, late result still cached"
      `Quick test_timeout;
    Alcotest.test_case "metrics: live counters, hit rate, latency" `Quick
      test_metrics;
  ]
