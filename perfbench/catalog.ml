(* The operation catalog (ops.txt): frozen specs, typed options and the
   expected bytes each op must reproduce. *)

type op = {
  name : string;
  workloads : string list;
  verb : Serve.Ops.op;
  flags : string list;  (** CLI flags, as written in ops.txt *)
  spec : string;  (** spec text (specs/<file>) *)
  expected : string;  (** expected/<name>.out, recorded by the CLI *)
}

let dir = "perfbench"
let read_file path = In_channel.with_open_bin path In_channel.input_all

let fail fmt = Printf.ksprintf failwith fmt

(* The subset of `astg synth|reduce` flags the catalog uses. *)
let verb_of verb flags =
  let rec synth (o : Core.Cli.synth_opts) = function
    | [] -> o
    | "--emit" :: "verilog" :: r -> synth { o with emit = o.emit @ [ `Verilog ] } r
    | "--emit" :: "blif" :: r -> synth { o with emit = o.emit @ [ `Blif ] } r
    | "--max-csc" :: n :: r -> synth { o with max_csc = int_of_string n } r
    | f :: _ -> fail "unsupported synth flag %s" f
  in
  let rec reduce (o : Core.Cli.reduce_opts) = function
    | [] -> o
    | "-w" :: w :: r -> reduce { o with w = float_of_string w } r
    | "--frontier" :: n :: r -> reduce { o with frontier = int_of_string n } r
    | "--stg" :: r -> reduce { o with print_stg = true } r
    | "--area-model" :: "shared" :: r -> reduce { o with area_mode = `Shared } r
    | "--area-model" :: "tree" :: r -> reduce { o with area_mode = `Tree } r
    | "--portfolio" :: ws :: r ->
        reduce
          {
            o with
            portfolio = List.map float_of_string (String.split_on_char ',' ws);
          }
          r
    | "--jobs" :: n :: r -> reduce { o with jobs = int_of_string n } r
    | f :: _ -> fail "unsupported reduce flag %s" f
  in
  match verb with
  | "check" when flags = [] -> Serve.Ops.Check
  | "synth" -> Serve.Ops.Synth (synth Core.Cli.default_synth flags)
  | "reduce" -> Serve.Ops.Reduce (reduce Core.Cli.default_reduce flags)
  | v -> fail "unsupported op %s %s" v (String.concat " " flags)

(* The same flags as a serve request's "options" object. *)
let options_json flags =
  let open Serve.Json in
  let rec go acc = function
    | [] -> List.rev acc
    | "--emit" :: b :: r -> go (("emit", List [ Str b ]) :: acc) r
    | "--max-csc" :: n :: r -> go (("max_csc", Int (int_of_string n)) :: acc) r
    | "-w" :: w :: r -> go (("w", Float (float_of_string w)) :: acc) r
    | "--frontier" :: n :: r -> go (("frontier", Int (int_of_string n)) :: acc) r
    | "--stg" :: r -> go (("stg", Bool true) :: acc) r
    | "--area-model" :: m :: r -> go (("area_model", Str m) :: acc) r
    | "--portfolio" :: ws :: r -> go (("portfolio", Str ws) :: acc) r
    | "--jobs" :: n :: r -> go (("jobs", Int (int_of_string n)) :: acc) r
    | f :: _ -> fail "no serve option for flag %s" f
  in
  go [] flags

let verb_name = function
  | Serve.Ops.Check -> "check"
  | Serve.Ops.Synth _ -> "synth"
  | Serve.Ops.Reduce _ -> "reduce"

(* One request line of the serve protocol. *)
let request_line ~id verb ~options spec =
  let open Serve.Json in
  to_string
    (Obj
       ([ ("id", Int id); ("op", Str (verb_name verb)); ("spec", Str spec) ]
       @ if options = [] then [] else [ ("options", Obj options) ]))

let words line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (( <> ) "")

let load () =
  read_file (Filename.concat dir "ops.txt")
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match words line with
         | [] -> None
         | w :: _ when w.[0] = '#' -> None
         | workloads :: name :: verb :: spec :: flags ->
             Some
               {
                 name;
                 workloads = String.split_on_char ',' workloads;
                 verb = verb_of verb flags;
                 flags;
                 spec = read_file (Filename.concat dir ("specs/" ^ spec));
                 expected =
                   read_file (Filename.concat dir ("expected/" ^ name ^ ".out"));
               }
         | _ -> fail "malformed ops.txt line: %s" line)

let for_workload w ops = List.filter (fun op -> List.mem w op.workloads) ops

(* [reduce --portfolio ... --jobs N] with N > 1 prints a "cross-arm
   table:" line whose hit/miss/speculation counts depend on how the pool's
   domains interleave.  Every other line is deterministic, so for that op
   the line is checked by prefix only and its numbers are returned for the
   per-layer metrics. *)
let racy_prefix = "cross-arm table:"

let racy op =
  match op.verb with
  | Serve.Ops.Reduce o -> o.portfolio <> [] && o.jobs > 1
  | _ -> false

let cross_arm_numbers line =
  Scanf.sscanf line
    "cross-arm table: %d hits, %d misses; speculation: %d published, %d \
     consumed"
    (fun h m p c -> (h, m, p, c))

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* [check op out] — [Ok None], [Ok (Some cross_arm)] for a racy op, or
   [Error why]. *)
let check op out =
  if not (racy op) then
    if String.equal out op.expected then Ok None else Error "output differs"
  else
    let got = String.split_on_char '\n' out
    and want = String.split_on_char '\n' op.expected in
    if List.length got <> List.length want then Error "line count differs"
    else
      List.fold_left2
        (fun acc g w ->
          match acc with
          | Error _ -> acc
          | Ok found ->
              if starts_with ~prefix:racy_prefix w then
                if starts_with ~prefix:racy_prefix g then
                  match cross_arm_numbers g with
                  | n -> Ok (Some n)
                  | exception _ -> Error "malformed cross-arm line"
                else Error "cross-arm line missing"
              else if String.equal g w then Ok found
              else Error "output differs")
        (Ok None) got want
