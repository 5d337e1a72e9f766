(* The synthesis service.  See serve.mli for the protocol and the
   scheduling/caching contracts; DESIGN.md ("Synthesis service") for the
   design rationale.

   Thread/domain layout: one accept thread, one reader thread per
   connection, one dispatcher thread, an optional deadline watchdog —
   all ordinary Threads on the main domain — plus the pool's worker
   domains executing compute jobs through a long-lived Pool.Stream
   session.  All scheduler state is guarded by one mutex [t.mu];
   per-connection writes are serialized by a per-connection mutex so
   response lines never interleave.  Lock order: [t.mu] may be held
   while taking a connection's write mutex, never the reverse. *)

(* ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  exception Parse_error of string

  let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

  (* ---- printer ---- *)

  let escape b s =
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | '\b' -> Buffer.add_string b "\\b"
        | '\012' -> Buffer.add_string b "\\f"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'

  let rec write b = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (string_of_bool v)
    | Int v -> Buffer.add_string b (string_of_int v)
    | Float v ->
        if Float.is_integer v && Float.abs v < 1e15 then
          Buffer.add_string b (Printf.sprintf "%.1f" v)
        else Buffer.add_string b (Printf.sprintf "%.12g" v)
    | Str s -> escape b s
    | List l ->
        Buffer.add_char b '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char b ',';
            write b v)
          l;
        Buffer.add_char b ']'
    | Obj fields ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            escape b k;
            Buffer.add_char b ':';
            write b v)
          fields;
        Buffer.add_char b '}'

  let to_string v =
    let b = Buffer.create 256 in
    write b v;
    Buffer.contents b

  (* ---- parser: recursive descent over the input string ---- *)

  type state = { src : string; mutable pos : int }

  let peek st =
    if st.pos < String.length st.src then Some st.src.[st.pos] else None

  let skip_ws st =
    while
      st.pos < String.length st.src
      &&
      match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      st.pos <- st.pos + 1
    done

  let expect st c =
    match peek st with
    | Some c' when c' = c -> st.pos <- st.pos + 1
    | Some c' -> fail "expected '%c' at offset %d, got '%c'" c st.pos c'
    | None -> fail "expected '%c' at offset %d, got end of input" c st.pos

  let literal st word v =
    let n = String.length word in
    if
      st.pos + n <= String.length st.src
      && String.equal (String.sub st.src st.pos n) word
    then (
      st.pos <- st.pos + n;
      v)
    else fail "bad literal at offset %d" st.pos

  let add_utf8 b code =
    if code < 0x80 then Buffer.add_char b (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
    end
    else if code < 0x10000 then begin
      Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xF0 lor (code lsr 18)));
      Buffer.add_char b (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
    end

  let hex4 st =
    if st.pos + 4 > String.length st.src then fail "truncated \\u escape";
    let s = String.sub st.src st.pos 4 in
    match int_of_string_opt ("0x" ^ s) with
    | Some v ->
        st.pos <- st.pos + 4;
        v
    | None -> fail "bad \\u escape %S" s

  let parse_string st =
    expect st '"';
    let b = Buffer.create 32 in
    let rec loop () =
      match peek st with
      | None -> fail "unterminated string"
      | Some '"' -> st.pos <- st.pos + 1
      | Some '\\' -> (
          st.pos <- st.pos + 1;
          match peek st with
          | None -> fail "unterminated escape"
          | Some c ->
              st.pos <- st.pos + 1;
              (match c with
              | '"' -> Buffer.add_char b '"'
              | '\\' -> Buffer.add_char b '\\'
              | '/' -> Buffer.add_char b '/'
              | 'n' -> Buffer.add_char b '\n'
              | 'r' -> Buffer.add_char b '\r'
              | 't' -> Buffer.add_char b '\t'
              | 'b' -> Buffer.add_char b '\b'
              | 'f' -> Buffer.add_char b '\012'
              | 'u' ->
                  let hi = hex4 st in
                  if
                    hi >= 0xD800 && hi <= 0xDBFF
                    && st.pos + 2 <= String.length st.src
                    && st.src.[st.pos] = '\\'
                    && st.src.[st.pos + 1] = 'u'
                  then begin
                    st.pos <- st.pos + 2;
                    let lo = hex4 st in
                    add_utf8 b (0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00))
                  end
                  else add_utf8 b hi
              | c -> fail "bad escape '\\%c'" c);
              loop ())
      | Some c ->
          st.pos <- st.pos + 1;
          Buffer.add_char b c;
          loop ()
    in
    loop ();
    Buffer.contents b

  let parse_number st =
    let start = st.pos in
    let is_num c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while st.pos < String.length st.src && is_num st.src.[st.pos] do
      st.pos <- st.pos + 1
    done;
    let s = String.sub st.src start (st.pos - start) in
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> fail "bad number %S at offset %d" s start)

  let rec parse_value st =
    skip_ws st;
    match peek st with
    | None -> fail "empty input"
    | Some '{' ->
        st.pos <- st.pos + 1;
        skip_ws st;
        if peek st = Some '}' then (
          st.pos <- st.pos + 1;
          Obj [])
        else
          let rec fields acc =
            skip_ws st;
            let k = parse_string st in
            skip_ws st;
            expect st ':';
            let v = parse_value st in
            skip_ws st;
            match peek st with
            | Some ',' ->
                st.pos <- st.pos + 1;
                fields ((k, v) :: acc)
            | Some '}' ->
                st.pos <- st.pos + 1;
                Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}' at offset %d" st.pos
          in
          fields []
    | Some '[' ->
        st.pos <- st.pos + 1;
        skip_ws st;
        if peek st = Some ']' then (
          st.pos <- st.pos + 1;
          List [])
        else
          let rec elems acc =
            let v = parse_value st in
            skip_ws st;
            match peek st with
            | Some ',' ->
                st.pos <- st.pos + 1;
                elems (v :: acc)
            | Some ']' ->
                st.pos <- st.pos + 1;
                List (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']' at offset %d" st.pos
          in
          elems []
    | Some '"' -> Str (parse_string st)
    | Some 't' -> literal st "true" (Bool true)
    | Some 'f' -> literal st "false" (Bool false)
    | Some 'n' -> literal st "null" Null
    | Some _ -> parse_number st

  let parse s =
    let st = { src = s; pos = 0 } in
    let v = parse_value st in
    skip_ws st;
    if st.pos <> String.length s then fail "trailing garbage at offset %d" st.pos;
    v

  let member name = function
    | Obj fields -> List.assoc_opt name fields
    | _ -> None
end

(* ------------------------------------------------------------------ *)

module Ops = struct
  type op =
    | Check
    | Synth of Core.Cli.synth_opts
    | Reduce of Core.Cli.reduce_opts

  type request = Exec of op * string | Metrics

  let ( let* ) = Result.bind

  let as_int what = function
    | Json.Int i -> Ok i
    | _ -> Error (what ^ " expects an integer")

  let as_bool what = function
    | Json.Bool b -> Ok b
    | _ -> Error (what ^ " expects a boolean")

  let as_float what = function
    | Json.Int i -> Ok (float_of_int i)
    | Json.Float f -> Ok f
    | _ -> Error (what ^ " expects a number")

  let rec fold_fields f acc = function
    | [] -> Ok acc
    | (k, v) :: rest ->
        let* acc = f acc k v in
        fold_fields f acc rest

  let option_fields what = function
    | None -> Ok []
    | Some (Json.Obj fields) -> Ok fields
    | Some _ -> Error (what ^ ": \"options\" must be an object")

  let parse_emit v =
    let backend = function
      | Json.Str "verilog" -> Ok `Verilog
      | Json.Str "blif" -> Ok `Blif
      | _ -> Error "emit expects \"verilog\" or \"blif\""
    in
    match v with
    | Json.Str _ ->
        let* b = backend v in
        Ok [ b ]
    | Json.List l ->
        List.fold_right
          (fun v acc ->
            let* acc = acc in
            let* b = backend v in
            Ok (b :: acc))
          l (Ok [])
    | _ -> Error "emit expects a string or a list of strings"

  let parse_keep v =
    let pair = function
      | Json.Str s -> (
          match String.split_on_char ',' s with
          | [ a; b ] -> Ok (String.trim a, String.trim b)
          | _ -> Error ("bad keep pair " ^ s ^ " (expected \"a,b\")"))
      | Json.List [ Json.Str a; Json.Str b ] -> Ok (a, b)
      | _ -> Error "keep entries must be \"a,b\" strings or [a, b] pairs"
    in
    match v with
    | Json.List l ->
        List.fold_right
          (fun v acc ->
            let* acc = acc in
            let* p = pair v in
            Ok (p :: acc))
          l (Ok [])
    | _ -> Error "keep expects a list"

  let parse_portfolio v =
    match v with
    | Json.List l ->
        List.fold_right
          (fun v acc ->
            let* acc = acc in
            let* f = as_float "portfolio" v in
            Ok (f :: acc))
          l (Ok [])
    | Json.Str s -> (
        (* the CLI's --portfolio "w1,w2,..." spelling, verbatim *)
        try
          Ok
            (List.map
               (fun x -> float_of_string (String.trim x))
               (String.split_on_char ',' s))
        with _ -> Error ("bad portfolio spec " ^ s))
    | _ -> Error "portfolio expects a list of numbers or \"w1,w2,...\""

  let synth_of_options fields =
    fold_fields
      (fun (o : Core.Cli.synth_opts) k v ->
        match k with
        | "max_csc" ->
            let* n = as_int "max_csc" v in
            Ok { o with Core.Cli.max_csc = n }
        | "emit" ->
            let* e = parse_emit v in
            Ok { o with Core.Cli.emit = e }
        | _ -> Error ("unknown synth option \"" ^ k ^ "\""))
      Core.Cli.default_synth fields

  let reduce_of_options fields =
    fold_fields
      (fun (o : Core.Cli.reduce_opts) k v ->
        match k with
        | "w" ->
            let* w = as_float "w" v in
            Ok { o with Core.Cli.w }
        | "frontier" ->
            let* n = as_int "frontier" v in
            Ok { o with Core.Cli.frontier = n }
        | "keep" ->
            let* keeps = parse_keep v in
            Ok { o with Core.Cli.keeps }
        | "stg" ->
            let* b = as_bool "stg" v in
            Ok { o with Core.Cli.print_stg = b }
        | "area_model" -> (
            match v with
            | Json.Str "tree" -> Ok { o with Core.Cli.area_mode = `Tree }
            | Json.Str "shared" -> Ok { o with Core.Cli.area_mode = `Shared }
            | _ -> Error "area_model expects \"tree\" or \"shared\"")
        | "portfolio" ->
            let* portfolio = parse_portfolio v in
            Ok { o with Core.Cli.portfolio }
        (* jobs is accepted but normalized away: it never changes
           response bytes (the search and its cross-arm accounting are
           deterministic at any job count), and the server's parallelism
           is its own worker pool, not the client's business. *)
        | "jobs" ->
            let* _ = as_int "jobs" v in
            Ok o
        | _ -> Error ("unknown reduce option \"" ^ k ^ "\""))
      { Core.Cli.default_reduce with jobs = 1 }
      fields

  let request_of_json j =
    match Json.member "op" j with
    | None -> Error "missing \"op\" field"
    | Some (Json.Str opname) -> (
        let options = Json.member "options" j in
        let* op =
          match opname with
          | "metrics" -> Ok None
          | "check" -> (
              match options with
              | None | Some (Json.Obj []) -> Ok (Some Check)
              | Some _ -> Error "check takes no options")
          | "synth" ->
              let* fields = option_fields "synth" options in
              let* o = synth_of_options fields in
              Ok (Some (Synth o))
          | "reduce" ->
              let* fields = option_fields "reduce" options in
              let* o = reduce_of_options fields in
              Ok (Some (Reduce o))
          | other -> Error ("unknown op \"" ^ other ^ "\"")
        in
        match op with
        | None -> Ok Metrics
        | Some op -> (
            match Json.member "spec" j with
            | Some (Json.Str spec) -> Ok (Exec (op, spec))
            | Some _ -> Error "\"spec\" must be a string"
            | None -> Error "missing \"spec\" field"))
    | Some _ -> Error "\"op\" must be a string"

  let canonical_spec text =
    match Stg.Io.parse text with
    | stg -> Ok (stg, Stg.Io.print stg)
    | exception Stg.Io.Parse_error msg -> Error ("parse error: " ^ msg)
    | exception e -> Error ("parse error: " ^ Printexc.to_string e)

  let canonical op =
    let fl = Printf.sprintf "%h" in
    match op with
    | Check -> "check"
    | Synth { Core.Cli.max_csc; emit } ->
        Printf.sprintf "synth max_csc=%d emit=[%s]" max_csc
          (String.concat ","
             (List.map (function `Verilog -> "verilog" | `Blif -> "blif") emit))
    | Reduce o ->
        let keeps =
          o.Core.Cli.keeps
          |> List.map (fun (a, b) -> if a <= b then (a, b) else (b, a))
          |> List.sort_uniq compare
          |> List.map (fun (a, b) -> a ^ "|" ^ b)
          |> String.concat ";"
        in
        Printf.sprintf
          "reduce w=%s frontier=%d keep=[%s] stg=%b area=%s portfolio=[%s]"
          (fl o.Core.Cli.w) o.Core.Cli.frontier keeps o.Core.Cli.print_stg
          (match o.Core.Cli.area_mode with `Tree -> "tree" | `Shared -> "shared")
          (String.concat "," (List.map fl o.Core.Cli.portfolio))

  let key ~spec op = Digest.to_hex (Digest.string (spec ^ "\x00" ^ canonical op))

  let run op stg =
    match op with
    | Check -> Ok (Core.Cli.check_text stg)
    | Synth o -> Core.Cli.synth_text o stg
    | Reduce o -> Core.Cli.reduce_text o stg
end

(* ------------------------------------------------------------------ *)

let c_corrupt = Obs.Counter.make "serve.disk.corrupt"

module Cache = struct
  type tier = [ `Mem | `Disk ]

  type node = {
    n_key : string;
    n_value : string;
    mutable n_prev : node option;  (* towards MRU *)
    mutable n_next : node option;  (* towards LRU *)
  }

  type t = {
    mu : Mutex.t;
    tbl : (string, node) Hashtbl.t;
    cap : int;
    dir : string option;
    mutable head : node option;  (* MRU *)
    mutable tail : node option;  (* LRU *)
    mutable tmp_seq : int;
  }

  let create ?(mem_entries = 256) ?dir () =
    (match dir with
    | Some d when not (Sys.file_exists d) -> (
        try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    | _ -> ());
    {
      mu = Mutex.create ();
      tbl = Hashtbl.create 64;
      cap = max 1 mem_entries;
      dir;
      head = None;
      tail = None;
      tmp_seq = 0;
    }

  (* ---- intrusive LRU list, all under [mu] ---- *)

  let unlink t n =
    (match n.n_prev with
    | Some p -> p.n_next <- n.n_next
    | None -> t.head <- n.n_next);
    (match n.n_next with
    | Some s -> s.n_prev <- n.n_prev
    | None -> t.tail <- n.n_prev);
    n.n_prev <- None;
    n.n_next <- None

  let push_front t n =
    n.n_next <- t.head;
    (match t.head with Some h -> h.n_prev <- Some n | None -> t.tail <- Some n);
    t.head <- Some n

  let insert_locked t key value =
    (match Hashtbl.find_opt t.tbl key with
    | Some n ->
        unlink t n;
        Hashtbl.remove t.tbl key
    | None -> ());
    let n = { n_key = key; n_value = value; n_prev = None; n_next = None } in
    Hashtbl.add t.tbl key n;
    push_front t n;
    if Hashtbl.length t.tbl > t.cap then
      match t.tail with
      | Some lru ->
          unlink t lru;
          Hashtbl.remove t.tbl lru.n_key
      | None -> ()

  (* ---- disk tier ---- *)

  let magic = "astg-serve-cache v1"

  let disk_path dir key = Filename.concat dir key

  let disk_store t key payload =
    match t.dir with
    | None -> ()
    | Some dir ->
        let tmp =
          Mutex.lock t.mu;
          t.tmp_seq <- t.tmp_seq + 1;
          let s = t.tmp_seq in
          Mutex.unlock t.mu;
          Filename.concat dir
            (Printf.sprintf ".tmp.%s.%d.%d" key (Unix.getpid ()) s)
        in
        let write () =
          let oc = open_out_bin tmp in
          Printf.fprintf oc "%s %s %d\n" magic
            (Digest.to_hex (Digest.string payload))
            (String.length payload);
          output_string oc payload;
          close_out oc;
          Unix.rename tmp (disk_path dir key)
        in
        (* a failed disk write only loses the disk tier *)
        (try write () with _ -> ( try Sys.remove tmp with _ -> ()))

  let disk_find t key =
    match t.dir with
    | None -> None
    | Some dir -> (
        let path = disk_path dir key in
        if not (Sys.file_exists path) then None
        else
          let load () =
            let ic = open_in_bin path in
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () ->
                let header = input_line ic in
                match String.split_on_char ' ' header with
                | [ m1; m2; digest; len ] when String.equal (m1 ^ " " ^ m2) magic
                  -> (
                    match int_of_string_opt len with
                    | Some len when len >= 0 ->
                        let payload = really_input_string ic len in
                        if
                          (* the entry must end exactly here and hash
                             back to its recorded checksum *)
                          pos_in ic = in_channel_length ic
                          && String.equal digest
                               (Digest.to_hex (Digest.string payload))
                        then Some payload
                        else None
                    | _ -> None)
                | _ -> None)
          in
          match load () with
          | Some payload -> Some payload
          | None | (exception _) ->
              (* truncated, corrupted or unreadable: evict silently *)
              Obs.Counter.incr c_corrupt;
              (try Sys.remove path with _ -> ());
              None)

  (* ---- public ---- *)

  let find t key =
    Mutex.lock t.mu;
    let mem =
      match Hashtbl.find_opt t.tbl key with
      | Some n ->
          unlink t n;
          push_front t n;
          Some n.n_value
      | None -> None
    in
    Mutex.unlock t.mu;
    match mem with
    | Some v -> Some (v, `Mem)
    | None -> (
        match disk_find t key with
        | Some v ->
            Mutex.lock t.mu;
            insert_locked t key v;
            Mutex.unlock t.mu;
            Some (v, `Disk)
        | None -> None)

  let store t key value =
    Mutex.lock t.mu;
    insert_locked t key value;
    Mutex.unlock t.mu;
    disk_store t key value

  let mem_len t =
    Mutex.lock t.mu;
    let n = Hashtbl.length t.tbl in
    Mutex.unlock t.mu;
    n
end

(* ------------------------------------------------------------------ *)

type addr = [ `Unix of string | `Tcp of int ]

let sockaddr_of_addr = function
  | `Unix path -> Unix.ADDR_UNIX path
  | `Tcp port -> Unix.ADDR_INET (Unix.inet_addr_loopback, port)

let rec write_all fd s off len =
  if len > 0 then begin
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)
  end

(* ------------------------------------------------------------------ *)

module Server = struct
  (* counters/gauges backing the metrics response *)
  let c_req = Obs.Counter.make "serve.request"
  let c_hit_mem = Obs.Counter.make "serve.hit.mem"
  let c_hit_disk = Obs.Counter.make "serve.hit.disk"
  let c_hit_dedup = Obs.Counter.make "serve.hit.dedup"
  let c_miss = Obs.Counter.make "serve.miss"
  let c_computed = Obs.Counter.make "serve.computed"
  let c_shed = Obs.Counter.make "serve.shed"
  let c_timeout = Obs.Counter.make "serve.timeout"
  let c_err_parse = Obs.Counter.make "serve.error.parse"
  let c_err_oversized = Obs.Counter.make "serve.error.oversized"
  let c_err_request = Obs.Counter.make "serve.error.request"
  let c_disconnect = Obs.Counter.make "serve.disconnect"
  let g_queue = Obs.Gauge.make "serve.queue_depth"
  let g_inflight = Obs.Gauge.make "serve.inflight"
  let lat = Obs.Latency.make "serve.request_ms"

  type job = {
    j_id : Json.t;
    j_key : string;
    j_op : Ops.op;
    j_stg : Stg.t;
    j_enq : float;
  }

  type conn = {
    c_fd : Unix.file_descr;
    c_wmu : Mutex.t;
    mutable c_open : bool;  (* writes still allowed; guarded by [c_wmu] *)
    mutable c_alive : bool;  (* reader still attached; guarded by [t.mu] *)
    c_queue : job Queue.t;  (* guarded by [t.mu] *)
    mutable c_busy : bool;  (* one request in flight; guarded by [t.mu] *)
  }

  type pending = {
    p_conn : conn;
    p_id : Json.t;
    p_enq : float;
    mutable p_done : bool;  (* a response was (or is being) sent *)
  }

  type flight = {
    f_key : string;
    f_op : Ops.op;
    f_stg : Stg.t;
    f_primary : pending;
    mutable f_waiters : pending list;  (* reverse arrival order *)
  }

  type config = {
    workers : int;
    queue_bound : int;
    max_inflight : int;
    timeout_ms : int;
    max_request_bytes : int;
  }

  type t = {
    mu : Mutex.t;
    cond : Condition.t;
    cfg : config;
    cache : Cache.t;
    pool : Pool.t;
    session : Pool.Stream.session option;  (* None: compute inline *)
    lsock : Unix.file_descr;
    a_addr : addr;
    inflight : (string, flight) Hashtbl.t;
    mutable conns : conn list;
    mutable rr : int;  (* round-robin scan offset into [conns] *)
    mutable queued : int;  (* total queued jobs, for shedding *)
    mutable inflight_n : int;
    mutable stopping : bool;
    mutable stopped : bool;
    mutable threads : Thread.t list;  (* guarded by [t.mu] *)
  }

  (* ---- response lines ---- *)

  let err_line ~id kind msg =
    Json.to_string
      (Json.Obj
         [
           ("id", id);
           ("ok", Json.Bool false);
           ( "error",
             Json.Obj [ ("kind", Json.Str kind); ("message", Json.Str msg) ] );
         ])

  (* [payload] is already-serialized JSON (the cached bytes), spliced
     raw so a cache hit replays the cold response byte-for-byte. *)
  let ok_line ~id ~cached ~tier payload =
    Printf.sprintf
      "{\"id\":%s,\"ok\":true,\"cached\":%b,\"tier\":\"%s\",\"result\":%s}"
      (Json.to_string id) cached tier payload

  (* ---- connection I/O.  The reader thread owns the fd and is the
     only closer; everyone else only shuts the socket down (shutdown
     reliably wakes a blocked read, close does not). ---- *)

  let conn_shut c =
    Mutex.lock c.c_wmu;
    if c.c_open then begin
      c.c_open <- false;
      try Unix.shutdown c.c_fd Unix.SHUTDOWN_ALL with _ -> ()
    end;
    Mutex.unlock c.c_wmu

  let conn_send c line =
    Mutex.lock c.c_wmu;
    (if c.c_open then
       try write_all c.c_fd (line ^ "\n") 0 (String.length line + 1)
       with _ ->
         (* mid-request disconnect: this client loses its responses,
            nobody else is affected *)
         Obs.Counter.incr c_disconnect;
         c.c_open <- false;
         (try Unix.shutdown c.c_fd Unix.SHUTDOWN_ALL with _ -> ()));
    Mutex.unlock c.c_wmu

  (* ---- metrics ---- *)

  let metrics_payload t =
    let kv l = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) l) in
    let s = Obs.Latency.stats lat in
    let hits =
      Obs.Counter.(value c_hit_mem + value c_hit_disk + value c_hit_dedup)
    in
    let misses = Obs.Counter.value c_miss in
    Mutex.lock t.mu;
    let queued = t.queued and inflight = t.inflight_n in
    Mutex.unlock t.mu;
    Json.to_string
      (Json.Obj
         [
           ("counters", kv (Obs.counters ()));
           ("gauges", kv (Obs.gauges ()));
           ( "latency_ms",
             Json.Obj
               [
                 ("count", Json.Int s.Obs.Latency.count);
                 ("p50", Json.Float s.Obs.Latency.p50);
                 ("p99", Json.Float s.Obs.Latency.p99);
                 ("max", Json.Float s.Obs.Latency.max);
               ] );
           ( "cache",
             Json.Obj
               [
                 ("mem_entries", Json.Int (Cache.mem_len t.cache));
                 ("hits", Json.Int hits);
                 ("misses", Json.Int misses);
                 ( "hit_rate",
                   Json.Float
                     (if hits + misses = 0 then 0.0
                      else float_of_int hits /. float_of_int (hits + misses)) );
               ] );
           ( "queue",
             Json.Obj
               [
                 ("depth", Json.Int queued);
                 ("bound", Json.Int t.cfg.queue_bound);
                 ("inflight", Json.Int inflight);
                 ("workers", Json.Int t.cfg.workers);
               ] );
         ])

  (* ---- compute path (runs on a pool domain, or inline in the
     dispatcher on the sequential backend) ---- *)

  let respond_flight t fl ?(cached = false) ?(tier = "compute") payload =
    (* close the single-flight entry first so no new waiter can attach
       after the snapshot, then answer everyone, then free the conns *)
    Mutex.lock t.mu;
    Hashtbl.remove t.inflight fl.f_key;
    let all = fl.f_primary :: List.rev fl.f_waiters in
    let to_send =
      List.filter
        (fun p ->
          if p.p_done then false
          else begin
            p.p_done <- true;
            true
          end)
        all
    in
    Mutex.unlock t.mu;
    let now = Unix.gettimeofday () in
    List.iter
      (fun p ->
        let line =
          match payload with
          | Ok payload ->
              let tier = if p == fl.f_primary then tier else "dedup" in
              let cached = cached || p != fl.f_primary in
              ok_line ~id:p.p_id ~cached ~tier payload
          | Error (kind, msg) -> err_line ~id:p.p_id kind msg
        in
        if p != fl.f_primary then Obs.Counter.incr c_hit_dedup;
        conn_send p.p_conn line;
        Obs.Latency.record lat ((now -. p.p_enq) *. 1e3))
      to_send;
    Mutex.lock t.mu;
    t.inflight_n <- t.inflight_n - 1;
    Obs.Gauge.set g_inflight t.inflight_n;
    List.iter (fun p -> p.p_conn.c_busy <- false) all;
    Condition.broadcast t.cond;
    Mutex.unlock t.mu

  let run_flight t fl =
    let outcome =
      match Cache.find t.cache fl.f_key with
      | Some (payload, tier) ->
          (match tier with
          | `Mem -> Obs.Counter.incr c_hit_mem
          | `Disk -> Obs.Counter.incr c_hit_disk);
          `Hit (payload, (match tier with `Mem -> "mem" | `Disk -> "disk"))
      | None -> (
          Obs.Counter.incr c_miss;
          match Ops.run fl.f_op fl.f_stg with
          | Ok text ->
              let payload =
                Json.to_string (Json.Obj [ ("output", Json.Str text) ])
              in
              Cache.store t.cache fl.f_key payload;
              Obs.Counter.incr c_computed;
              `Fresh payload
          | Error msg -> `Err ("failed", msg)
          | exception e -> `Err ("internal", Printexc.to_string e))
    in
    match outcome with
    | `Hit (payload, tier) -> respond_flight t fl ~cached:true ~tier (Ok payload)
    | `Fresh payload ->
        respond_flight t fl ~cached:false ~tier:"compute" (Ok payload)
    | `Err (kind, msg) -> respond_flight t fl (Error (kind, msg))

  (* ---- dispatcher: round-robin over per-connection FIFO queues,
     at most one request of a given client in flight (which is what
     makes per-client responses arrive in request order) ---- *)

  let dispatcher t =
    Mutex.lock t.mu;
    let rec loop () =
      if t.stopping then Mutex.unlock t.mu
      else begin
        t.conns <- List.filter (fun c -> c.c_alive || c.c_busy) t.conns;
        let n = List.length t.conns in
        let action = ref None in
        if n > 0 && t.inflight_n < t.cfg.max_inflight then begin
          let arr = Array.of_list t.conns in
          try
            for i = 0 to n - 1 do
              let c = arr.((t.rr + i) mod n) in
              if (not c.c_busy) && not (Queue.is_empty c.c_queue) then begin
                t.rr <- (t.rr + i + 1) mod n;
                let j = Queue.pop c.c_queue in
                t.queued <- t.queued - 1;
                Obs.Gauge.set g_queue t.queued;
                action := Some (c, j);
                raise Exit
              end
            done
          with Exit -> ()
        end;
        match !action with
        | None ->
            Condition.wait t.cond t.mu;
            loop ()
        | Some (c, j) ->
            let now = Unix.gettimeofday () in
            if
              t.cfg.timeout_ms > 0
              && (now -. j.j_enq) *. 1e3 > float_of_int t.cfg.timeout_ms
            then begin
              Mutex.unlock t.mu;
              Obs.Counter.incr c_timeout;
              conn_send c
                (err_line ~id:j.j_id "timeout"
                   (Printf.sprintf "deadline exceeded in queue (%d ms)"
                      t.cfg.timeout_ms));
              Mutex.lock t.mu;
              loop ()
            end
            else begin
              let p =
                { p_conn = c; p_id = j.j_id; p_enq = j.j_enq; p_done = false }
              in
              c.c_busy <- true;
              match Hashtbl.find_opt t.inflight j.j_key with
              | Some fl ->
                  (* single-flight: coalesce onto the running compute *)
                  fl.f_waiters <- p :: fl.f_waiters;
                  loop ()
              | None ->
                  let fl =
                    {
                      f_key = j.j_key;
                      f_op = j.j_op;
                      f_stg = j.j_stg;
                      f_primary = p;
                      f_waiters = [];
                    }
                  in
                  Hashtbl.add t.inflight j.j_key fl;
                  t.inflight_n <- t.inflight_n + 1;
                  Obs.Gauge.set g_inflight t.inflight_n;
                  Mutex.unlock t.mu;
                  (match t.session with
                  | Some s -> (
                      try Pool.Stream.submit s (fun () -> run_flight t fl)
                      with Pool.Stream_finished -> run_flight t fl)
                  | None -> run_flight t fl);
                  Mutex.lock t.mu;
                  loop ()
            end
      end
    in
    loop ()

  (* ---- deadline watchdog (only spawned when timeout_ms > 0) ---- *)

  let watchdog t =
    let stopping () =
      Mutex.lock t.mu;
      let s = t.stopping in
      Mutex.unlock t.mu;
      s
    in
    while not (stopping ()) do
      Thread.delay 0.005;
      let victims = ref [] in
      Mutex.lock t.mu;
      let now = Unix.gettimeofday () in
      Hashtbl.iter
        (fun _ fl ->
          List.iter
            (fun p ->
              if
                (not p.p_done)
                && (now -. p.p_enq) *. 1e3 > float_of_int t.cfg.timeout_ms
              then begin
                (* the compute keeps running and still lands in the
                   cache; only this response is replaced *)
                p.p_done <- true;
                p.p_conn.c_busy <- false;
                victims := p :: !victims
              end)
            (fl.f_primary :: fl.f_waiters))
        t.inflight;
      if !victims <> [] then Condition.broadcast t.cond;
      Mutex.unlock t.mu;
      List.iter
        (fun p ->
          Obs.Counter.incr c_timeout;
          conn_send p.p_conn
            (err_line ~id:p.p_id "timeout"
               (Printf.sprintf "deadline exceeded (%d ms)" t.cfg.timeout_ms)))
        !victims
    done

  (* ---- per-connection reader ---- *)

  let handle_line t c line =
    let line =
      let n = String.length line in
      if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line
    in
    if String.length line = 0 then ()
    else
      match Json.parse line with
      | exception Json.Parse_error msg ->
          Obs.Counter.incr c_err_parse;
          conn_send c (err_line ~id:Json.Null "parse" msg)
      | j -> (
          let id = Option.value (Json.member "id" j) ~default:Json.Null in
          match Ops.request_of_json j with
          | Error msg ->
              Obs.Counter.incr c_err_request;
              conn_send c (err_line ~id "op" msg)
          | Ok Ops.Metrics ->
              (* served inline: a live probe must not sit behind queued
                 compute (a documented deviation from per-client FIFO) *)
              conn_send c
                (ok_line ~id ~cached:false ~tier:"metrics" (metrics_payload t))
          | Ok (Ops.Exec (op, spec)) -> (
              Obs.Counter.incr c_req;
              match Ops.canonical_spec spec with
              | Error msg -> conn_send c (err_line ~id "spec" msg)
              | Ok (stg, canon) ->
                  let key = Ops.key ~spec:canon op in
                  let job =
                    {
                      j_id = id;
                      j_key = key;
                      j_op = op;
                      j_stg = stg;
                      j_enq = Unix.gettimeofday ();
                    }
                  in
                  Mutex.lock t.mu;
                  if t.stopping then begin
                    Mutex.unlock t.mu;
                    conn_send c (err_line ~id "busy" "server stopping")
                  end
                  else if t.queued >= t.cfg.queue_bound then begin
                    Mutex.unlock t.mu;
                    Obs.Counter.incr c_shed;
                    conn_send c
                      (err_line ~id "busy"
                         (Printf.sprintf "queue full (%d queued)"
                            t.cfg.queue_bound))
                  end
                  else begin
                    Queue.push job c.c_queue;
                    t.queued <- t.queued + 1;
                    Obs.Gauge.set g_queue t.queued;
                    Condition.broadcast t.cond;
                    Mutex.unlock t.mu
                  end))

  let reader t c =
    let chunk = Bytes.create 4096 in
    let buf = Buffer.create 256 in
    let discard = ref false in
    let rec loop () =
      match Unix.read c.c_fd chunk 0 (Bytes.length chunk) with
      | 0 -> ()
      | exception _ -> ()
      | n ->
          for i = 0 to n - 1 do
            let ch = Bytes.get chunk i in
            if ch = '\n' then begin
              let line = Buffer.contents buf in
              Buffer.clear buf;
              if !discard then discard := false else handle_line t c line
            end
            else if not !discard then begin
              Buffer.add_char buf ch;
              if Buffer.length buf > t.cfg.max_request_bytes then begin
                (* reject once at the cap, then discard to the newline
                   so the connection stays usable *)
                Buffer.clear buf;
                discard := true;
                Obs.Counter.incr c_err_oversized;
                conn_send c
                  (err_line ~id:Json.Null "oversized"
                     (Printf.sprintf "request exceeds %d bytes"
                        t.cfg.max_request_bytes))
              end
            end
          done;
          loop ()
    in
    loop ();
    (* detach: drop queued work, let the dispatcher prune the record;
       an in-flight compute keeps its (now unwritable) pending *)
    Mutex.lock t.mu;
    c.c_alive <- false;
    t.queued <- t.queued - Queue.length c.c_queue;
    Queue.clear c.c_queue;
    Obs.Gauge.set g_queue t.queued;
    Condition.broadcast t.cond;
    Mutex.unlock t.mu;
    conn_shut c;
    (try Unix.close c.c_fd with _ -> ())

  (* ---- accept loop (select-based so [stop] is always noticed) ---- *)

  let acceptor t =
    let stopping () =
      Mutex.lock t.mu;
      let s = t.stopping in
      Mutex.unlock t.mu;
      s
    in
    let rec loop () =
      if not (stopping ()) then
        match Unix.select [ t.lsock ] [] [] 0.2 with
        | exception _ -> if not (stopping ()) then loop ()
        | [], _, _ -> loop ()
        | _ -> (
            match Unix.accept t.lsock with
            | exception _ -> if not (stopping ()) then loop ()
            | fd, _ ->
                let c =
                  {
                    c_fd = fd;
                    c_wmu = Mutex.create ();
                    c_open = true;
                    c_alive = true;
                    c_queue = Queue.create ();
                    c_busy = false;
                  }
                in
                (Mutex.lock t.mu;
                 if t.stopping then begin
                   Mutex.unlock t.mu;
                   try Unix.close fd with _ -> ()
                 end
                 else begin
                   (* arrival order, for fair round-robin *)
                   t.conns <- t.conns @ [ c ];
                   let th = Thread.create (fun () -> reader t c) () in
                   t.threads <- th :: t.threads;
                   Mutex.unlock t.mu
                 end);
                loop ())
    in
    loop ()

  (* ---- lifecycle ---- *)

  let start ?workers ?(mem_entries = 256) ?cache_dir ?(queue_bound = 64)
      ?max_inflight ?(timeout_ms = 0) ?(max_request_bytes = 8 * 1024 * 1024)
      (addr : addr) =
    let workers =
      match workers with Some w -> max 0 w | None -> Pool.default_jobs ()
    in
    let max_inflight =
      match max_inflight with Some m -> max 1 m | None -> max 1 workers
    in
    if not Sys.win32 then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    Obs.set_enabled true;
    let lsock, a_addr =
      match addr with
      | `Unix path ->
          if Sys.file_exists path then (try Unix.unlink path with _ -> ());
          let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.bind s (Unix.ADDR_UNIX path);
          Unix.listen s 64;
          (s, `Unix path)
      | `Tcp port ->
          let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          Unix.setsockopt s Unix.SO_REUSEADDR true;
          Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          Unix.listen s 64;
          let port =
            match Unix.getsockname s with
            | Unix.ADDR_INET (_, p) -> p
            | _ -> port
          in
          (s, `Tcp port)
    in
    let pool = Pool.create ~jobs:(workers + 1) in
    (* the dispatcher thread never helps: when pool domains exist they
       drain submitted jobs autonomously, otherwise (sequential
       backend, or workers = 0) the dispatcher computes inline *)
    let session =
      if Pool.jobs pool > 1 then Some (Pool.Stream.start pool) else None
    in
    let cache = Cache.create ~mem_entries ?dir:cache_dir () in
    let t =
      {
        mu = Mutex.create ();
        cond = Condition.create ();
        cfg =
          { workers; queue_bound; max_inflight; timeout_ms; max_request_bytes };
        cache;
        pool;
        session;
        lsock;
        a_addr;
        inflight = Hashtbl.create 16;
        conns = [];
        rr = 0;
        queued = 0;
        inflight_n = 0;
        stopping = false;
        stopped = false;
        threads = [];
      }
    in
    let spawn f =
      let th = Thread.create f () in
      Mutex.lock t.mu;
      t.threads <- th :: t.threads;
      Mutex.unlock t.mu
    in
    spawn (fun () -> acceptor t);
    spawn (fun () -> dispatcher t);
    if timeout_ms > 0 then spawn (fun () -> watchdog t);
    t

  let addr t = t.a_addr

  let stop t =
    Mutex.lock t.mu;
    if t.stopped || t.stopping then Mutex.unlock t.mu
    else begin
      t.stopping <- true;
      Condition.broadcast t.cond;
      Mutex.unlock t.mu;
      (try Unix.shutdown t.lsock Unix.SHUTDOWN_ALL with _ -> ());
      (try Unix.close t.lsock with _ -> ());
      (match t.a_addr with
      | `Unix path -> ( try Unix.unlink path with _ -> ())
      | `Tcp _ -> ());
      Mutex.lock t.mu;
      let conns = t.conns in
      Mutex.unlock t.mu;
      List.iter conn_shut conns;
      (* drain in-flight compute (late responses hit shut sockets
         harmlessly), then join every service thread *)
      Mutex.lock t.mu;
      while t.inflight_n > 0 do
        Condition.wait t.cond t.mu
      done;
      let threads = t.threads in
      t.threads <- [];
      Mutex.unlock t.mu;
      List.iter (fun th -> try Thread.join th with _ -> ()) threads;
      (match t.session with Some s -> Pool.Stream.finish s | None -> ());
      Pool.shutdown t.pool;
      Mutex.lock t.mu;
      t.stopped <- true;
      Mutex.unlock t.mu
    end
end

(* ------------------------------------------------------------------ *)

module Client = struct
  type t = { fd : Unix.file_descr; ic : in_channel; mutable alive : bool }

  let connect (addr : addr) =
    let dom =
      match addr with `Unix _ -> Unix.PF_UNIX | `Tcp _ -> Unix.PF_INET
    in
    let fd = Unix.socket dom Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (sockaddr_of_addr addr)
     with e ->
       (try Unix.close fd with _ -> ());
       raise e);
    { fd; ic = Unix.in_channel_of_descr fd; alive = true }

  let send_line t line = write_all t.fd (line ^ "\n") 0 (String.length line + 1)

  let recv_line t =
    match input_line t.ic with
    | line ->
        let n = String.length line in
        Some
          (if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1)
           else line)
    | exception End_of_file -> None

  let request t line =
    send_line t line;
    match recv_line t with
    | Some l -> l
    | None -> failwith "astg client: server closed the connection"

  let request_json t j = Json.parse (request t (Json.to_string j))

  let close t =
    if t.alive then begin
      t.alive <- false;
      try Unix.close t.fd with _ -> ()
    end
end
