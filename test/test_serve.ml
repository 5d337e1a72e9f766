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

let examples_dir = Test_roundtrip.examples_dir
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

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* A "failed" response whose message the CLI also printed to stderr. *)
let check_failed_like_cli name resp cli_err =
  Alcotest.(check string) (name ^ " error typed") "failed" (err_kind resp);
  let msg = get_str (member "message" (member "error" resp)) in
  if not (contains cli_err msg) then
    Alcotest.failf "%s: serve message %S not in CLI stderr %S" name msg cli_err

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

(* [astg args] in a fresh process: exit code, stdout and stderr.  [env]
   sets variables of its environment ([NAME=value], through env(1)). *)
let run_cli ?(env = []) args =
  let out = Filename.temp_file "astg_out" ".txt" in
  let err = Filename.temp_file "astg_err" ".txt" in
  let prog, args =
    if env = [] then (astg_bin (), args)
    else ("env", env @ (astg_bin () :: args))
  in
  let cmd = Filename.quote_command prog args ~stdout:out ~stderr:err in
  let rc = Sys.command cmd in
  let o = read_file out and e = read_file err in
  Sys.remove out;
  Sys.remove err;
  (rc, o, e)

(* ---- past the logic layer's signal limit ---- *)

(* [f stg path] on the 63-signal sequential ring with one input (126
   states), one signal past [Boolf.max_vars], printed to a temporary .g
   file.  The spec is built here, not shipped under examples/data:
   test_crosscheck's BDD engine stops at 62 places. *)
let with_ring_past_limit f =
  let stg = Gen.ring ~inputs:1 63 in
  let path = Filename.temp_file "ring63" ".g" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (Stg.Io.print stg));
      f stg path)

(* What synth and reduce answer on that ring, at the CLI and in serve. *)
let past_limit_error = "63 signals: logic synthesis handles at most 62"

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
      else check_failed_like_cli (name ^ " reduce") resp cli_err)
    (Test_roundtrip.g_files ())

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
  Alcotest.(check string) "reduce payload = CLI stdout" cli_out out;
  (* a --keep pair with a blank after the comma: both trim the names *)
  let rc, cli_out, _ = run_cli [ "reduce"; path; "--keep"; "Req+, Ack-" ] in
  Alcotest.(check int) "cli spaced keep rc" 0 rc;
  let options = Serve.Json.(Obj [ ("keep", List [ Str "Req+, Ack-" ]) ]) in
  let out = ok_output (send ~options ~id:"keep" ~op:"reduce" c spec) in
  Alcotest.(check string) "spaced keep payload = CLI stdout" cli_out out;
  (* out-of-range reduce options: both reject them, with one message *)
  List.iter
    (fun (args, options) ->
      let name = String.concat " " args in
      let rc, cli_out, cli_err = run_cli ("reduce" :: path :: args) in
      Alcotest.(check bool) (name ^ " cli fails") true (rc <> 0);
      Alcotest.(check string) (name ^ " cli prints nothing") "" cli_out;
      check_failed_like_cli name
        (send ~options ~id:"bad" ~op:"reduce" c spec)
        cli_err)
    Serve.Json.
      [
        ([ "-w"; "1.5" ], Obj [ ("w", Float 1.5) ]);
        ([ "--portfolio"; "0.3,inf" ], Obj [ ("portfolio", Str "0.3,inf") ]);
        ([ "--frontier=0" ], Obj [ ("frontier", Int 0) ]);
      ];
  (* NaN has no JSON spelling; the CLI rejects it too *)
  let rc, cli_out, cli_err = run_cli [ "reduce"; path; "-w"; "nan" ] in
  Alcotest.(check bool) "-w nan cli fails" true (rc <> 0);
  Alcotest.(check string) "-w nan cli prints nothing" "" cli_out;
  Alcotest.(check bool) "-w nan cli says why" true
    (contains cli_err "w must be in [0, 1], got nan")

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
  expect_kind "parse" {|{"id":1e400,"op":"metrics"}|};
  expect_kind "op" {|{"id":1,"op":"frobnicate","spec":"x"}|};
  expect_kind "op" {|{"id":1,"spec":"x"}|};
  expect_kind "op" {|{"id":1,"op":"reduce","spec":"x","options":{"wibble":1}}|};
  expect_kind "op" {|{"id":1,"op":"check"}|};
  expect_kind "spec" {|{"id":1,"op":"check","spec":"not a .g file"}|};
  (* the connection survived all of it *)
  let spec = read_file (Filename.concat (examples_dir ()) "fig1.g") in
  ignore (ok_output (send ~id:"after" ~op:"check" c spec));
  (* pipelined behind a compute, each error waits its turn *)
  let slow = read_file (Filename.concat (examples_dir ()) "micropipeline.g") in
  List.iter (Serve.Client.send_line c)
    [
      Serve.Json.to_string (request_obj ~id:"slow" ~op:"reduce" slow);
      {|{"id":"op","op":"frobnicate"}|};
      "{nope";
      {|{"id":"spec","op":"check","spec":"not a .g file"}|};
    ];
  let next () =
    match Serve.Client.recv_line c with
    | Some l -> Serve.Json.parse l
    | None -> Alcotest.fail "server closed mid-stream"
  in
  let r = next () in
  Alcotest.(check string) "the compute is answered first" "slow"
    (get_str (member "id" r));
  ignore (ok_output r);
  List.iter
    (fun kind ->
      Alcotest.(check string) (kind ^ " error in request order") kind
        (err_kind (next ())))
    [ "op"; "parse"; "spec" ]

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

(* The deadline needs a compute that outlasts it on any host: micropipeline
   synth resolves CSC for about 0.2 s, where its reduce now takes about
   5 ms, as long as the deadline itself. *)
let test_timeout () =
  let spec = read_file (Filename.concat (examples_dir ()) "micropipeline.g") in
  let expected =
    match Core.Cli.synth_text Core.Cli.default_synth (Stg.Io.parse spec) with
    | Ok text -> text
    | Error msg -> Alcotest.failf "synth failed: %s" msg
  in
  with_server ~workers:1 ~timeout_ms:5 @@ fun addr ->
  with_client addr @@ fun c ->
  let r = send ~id:"slow" ~op:"synth" c spec in
  Alcotest.(check string) "deadline is typed timeout" "timeout" (err_kind r);
  (* the late result still lands in the cache: retry until it serves *)
  let rec retry n =
    if n = 0 then Alcotest.fail "timed-out result never became servable"
    else
      let r = send ~id:(Printf.sprintf "retry%d" n) ~op:"synth" c spec in
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

(* An artifact the CLI cannot write is a command error (exit 124) after
   the run's own output, not an uncaught exception. *)
let test_cli_unwritable () =
  let fig1 = Filename.concat (examples_dir ()) "fig1.g" in
  let dir = tmpdir "astg_unwritable" in
  let bad = Filename.concat dir "missing/out.json" in
  let _, check_out, _ = run_cli [ "check"; fig1 ] in
  List.iter
    (fun (what, args, stdout) ->
      let rc, out, err = run_cli args in
      Alcotest.(check int) (what ^ " exits 124") 124 rc;
      if not (contains err ("cannot write " ^ bad)) then
        Alcotest.failf "%s: stderr lacks the write error: %S" what err;
      Option.iter
        (fun s -> Alcotest.(check string) (what ^ " stdout") s out)
        stdout)
    [
      ("check --trace", [ "check"; "--trace"; bad; fig1 ], Some check_out);
      ( "fuzz --report",
        [ "fuzz"; "--count"; "2"; "--corpus"; dir; "--report"; bad ],
        None );
    ];
  Unix.rmdir dir

(* One of the server's live counters, read through a [metrics] request. *)
let server_counter c name =
  let r =
    Serve.Client.request_json c
      Serve.Json.(Obj [ ("id", Str "m"); ("op", Str "metrics") ])
  in
  match member name (member "counters" (member "result" r)) with
  | Serve.Json.Int n -> n
  | j -> Alcotest.failf "%s is not a count: %s" name (Serve.Json.to_string j)

(* ---- the spec memo: a repeated spec is not parsed again ---- *)

let test_spec_memo () =
  with_server ~workers:1 @@ fun addr ->
  with_client addr @@ fun c ->
  let spec = read_file (Filename.concat (examples_dir ()) "fig1.g") in
  let counter = server_counter c in
  let cold = ok_output (send ~id:"cold" ~op:"reduce" c spec) in
  let parses = counter "stg.parse.calls" in
  let memo_hits = counter "serve.spec_memo.hit" in
  for i = 1 to 5 do
    let r = send ~id:(Printf.sprintf "warm%d" i) ~op:"reduce" c spec in
    Alcotest.(check string) "repeat tier" "mem" (get_str (member "tier" r));
    Alcotest.(check string) "repeat bytes" cold (ok_output r)
  done;
  Alcotest.(check int) "byte-identical repeats parse nothing" parses
    (counter "stg.parse.calls");
  Alcotest.(check int) "every repeat is a memo hit" (memo_hits + 5)
    (counter "serve.spec_memo.hit");
  (* other comments and whitespace: parsed once, same cache entry *)
  let variant =
    String.split_on_char '\n' spec
    |> List.map (fun l -> if l = "" then l else "\t" ^ l ^ "   # note")
    |> String.concat "\n"
  in
  let r = send ~id:"variant" ~op:"reduce" c ("# a variant\n" ^ variant) in
  Alcotest.(check string) "variant tier" "mem" (get_str (member "tier" r));
  Alcotest.(check string) "variant bytes" cold (ok_output r);
  Alcotest.(check int) "the variant is parsed once" (parses + 1)
    (counter "stg.parse.calls")

(* ---- every compute starts from an empty minimization memo ---- *)

(* [text] with every identifier in [names] prefixed by "s_": the same
   net and signal order under other signal names. *)
let rename_signals names text =
  let b = Buffer.create (String.length text + 64) in
  let is_ident ch =
    match ch with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
    | _ -> false
  in
  let n = String.length text in
  let i = ref 0 in
  while !i < n do
    if is_ident text.[!i] then begin
      let j = ref !i in
      while !j < n && is_ident text.[!j] do
        incr j
      done;
      let id = String.sub text !i (!j - !i) in
      if List.mem id names then Buffer.add_string b "s_";
      Buffer.add_string b id;
      i := !j
    end
    else begin
      Buffer.add_char b text.[!i];
      incr i
    end
  done;
  Buffer.contents b

(* A spec and a copy with renamed signals have different cache keys but
   the same minimizations.  A long-lived server would keep every cover it
   ever minimized in its domains' memo tables; each compute clears its
   table, so the copy misses the memo exactly as often as the original. *)
let test_memo_per_compute () =
  with_server ~workers:1 @@ fun addr ->
  with_client addr @@ fun c ->
  let spec = read_file (Filename.concat (examples_dir ()) "micropipeline.g") in
  let renamed =
    rename_signals [ "rin"; "aout"; "ain"; "rout"; "lt1"; "lt2" ] spec
  in
  let misses id text =
    let m0 = server_counter c "boolf.memo.misses" in
    let r = send ~id ~op:"reduce" c text in
    Alcotest.(check string) (id ^ " tier") "compute" (get_str (member "tier" r));
    server_counter c "boolf.memo.misses" - m0
  in
  let first = misses "original" spec in
  if first = 0 then Alcotest.fail "the original compute minimized nothing";
  Alcotest.(check int) "renamed copy misses as often" first
    (misses "renamed" renamed)

(* ---- per-client order while computes outlive their deadlines ---- *)

(* Each round times out a slow compute, then pipelines a second one and
   a cache hit while the first may still run on another worker: nothing
   may overtake the second compute's answer.  The rounds grow the
   computes (1 to 4 portfolio arms) so some round straddles the deadline
   on a fast or a slow machine.  Only the order is checked, as which
   requests time out depends on the machine. *)
let test_fifo_under_timeouts () =
  let slow = read_file (Filename.concat (examples_dir ()) "micropipeline.g") in
  let fast = read_file (Filename.concat (examples_dir ()) "fig1.g") in
  let n_clients = 2 and rounds = 4 in
  let failures = Array.make n_clients None in
  with_server ~workers:4 ~timeout_ms:30 (fun addr ->
      let client i () =
        try
          with_client addr @@ fun c ->
          let seq = ref 0 in
          let send_req ?options op spec =
            incr seq;
            Serve.Client.send_line c
              (Serve.Json.to_string
                 (request_obj ?options ~id:(Printf.sprintf "c%d-%d" i !seq) ~op
                    spec))
          in
          let expect j =
            match Serve.Client.recv_line c with
            | None -> failwith "server closed mid-stream"
            | Some resp ->
                let r = Serve.Json.parse resp in
                let want = Printf.sprintf "c%d-%d" i j in
                let id = get_str (member "id" r) in
                if id <> want then
                  failwith
                    (Printf.sprintf "FIFO violation: got %s want %s" id want);
                if not (get_bool (member "ok" r) || err_kind r = "timeout")
                then failwith ("unexpected response: " ^ resp)
          in
          (* distinct weights: every reduce is a fresh compute *)
          let reduce k r =
            let base = float_of_int ((((i * rounds) + k) * 2) + r + 1) /. 100. in
            let weights =
              List.init (k + 1) (fun a ->
                  Serve.Json.Float (base +. (0.25 *. float_of_int a)))
            in
            send_req
              ~options:Serve.Json.(Obj [ ("portfolio", List weights) ])
              "reduce" slow
          in
          for k = 0 to rounds - 1 do
            reduce k 0;
            expect !seq;
            reduce k 1;
            send_req "check" fast;
            expect (!seq - 1);
            expect !seq
          done
        with e -> failures.(i) <- Some (Printexc.to_string e)
      in
      let threads =
        List.init n_clients (fun i -> Thread.create (client i) ())
      in
      List.iter Thread.join threads);
  Array.iteri
    (fun i f ->
      match f with
      | Some msg -> Alcotest.failf "client %d failed: %s" i msg
      | None -> ())
    failures

(* ---- past the signal limit: serve answers as the CLI ---- *)

(* On the 63-signal ring, check's payload is the CLI's stdout, and synth
   and reduce are typed "failed" with the CLI's message.  Aimed at the
   external server too when ASTG_SERVE_SOCKET is set. *)
let test_past_signal_limit () =
  with_ring_past_limit @@ fun _ path ->
  let spec = read_file path in
  differential_target @@ fun addr ->
  with_client addr @@ fun c ->
  let rc, cli_out, _ = run_cli [ "check"; path ] in
  Alcotest.(check int) "cli check rc" 0 rc;
  Alcotest.(check string) "check payload = CLI stdout" cli_out
    (ok_output (send ~id:"chk" ~op:"check" c spec));
  List.iter
    (fun (op, args, options) ->
      let name = String.concat " " (op :: args) in
      let rc, _, cli_err = run_cli ((op :: args) @ [ path ]) in
      Alcotest.(check int) (name ^ " cli rc") 124 rc;
      let resp = send ?options ~id:name ~op c spec in
      check_failed_like_cli name resp cli_err;
      Alcotest.(check string) (name ^ " message") past_limit_error
        (get_str (member "message" (member "error" resp))))
    Serve.Json.
      [
        ("synth", [], None);
        ( "synth",
          [ "--emit"; "verilog" ],
          Some (Obj [ ("emit", Str "verilog") ]) );
        ("reduce", [], None);
        ( "reduce",
          [ "--portfolio"; "0.3,0.8" ],
          Some (Obj [ ("portfolio", Str "0.3,0.8") ]) );
      ]

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
    Alcotest.test_case "CLI: an unwritable --trace or --report exits 124"
      `Quick test_cli_unwritable;
    Alcotest.test_case "spec memo: repeats parse nothing, variants still hit"
      `Quick test_spec_memo;
    Alcotest.test_case "stress: FIFO per client while computes time out"
      `Quick test_fifo_under_timeouts;
    Alcotest.test_case "memo: each compute starts from an empty table"
      `Quick test_memo_per_compute;
    Alcotest.test_case "past 62 signals: check runs, synth and reduce fail"
      `Quick test_past_signal_limit;
  ]
