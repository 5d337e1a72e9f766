module Signal = struct
  type kind = Input | Output | Internal | Dummy_kind

  type t = { name : string; kind : kind }

  let is_input s = s.kind = Input

  let pp_kind ppf = function
    | Input -> Format.pp_print_string ppf "input"
    | Output -> Format.pp_print_string ppf "output"
    | Internal -> Format.pp_print_string ppf "internal"
    | Dummy_kind -> Format.pp_print_string ppf "dummy"

  let pp ppf s = Format.fprintf ppf "%s:%a" s.name pp_kind s.kind
end

type dir = Plus | Minus | Toggle

type label = Edge of int * dir | Dummy of string

type t = {
  net : Petri.t;
  signals : Signal.t array;
  labels : label array;
}

let n_signals stg = Array.length stg.signals
let signal stg i = stg.signals.(i)

let signal_of_name stg name =
  let rec loop i =
    if i >= Array.length stg.signals then raise Not_found
    else if String.equal stg.signals.(i).Signal.name name then i
    else loop (i + 1)
  in
  loop 0

let label stg t = stg.labels.(t)

let dir_suffix = function Plus -> "+" | Minus -> "-" | Toggle -> "~"

let label_name stg = function
  | Edge (s, d) -> stg.signals.(s).Signal.name ^ dir_suffix d
  | Dummy name -> name

let instances stg lab =
  let acc = ref [] in
  for t = Array.length stg.labels - 1 downto 0 do
    if stg.labels.(t) = lab then acc := t :: !acc
  done;
  !acc

let trans_display stg t =
  let lab = stg.labels.(t) in
  match instances stg lab with
  | [ _ ] -> label_name stg lab
  | insts ->
      let rec index i = function
        | [] -> assert false
        | x :: rest -> if x = t then i else index (i + 1) rest
      in
      Printf.sprintf "%s/%d" (label_name stg lab) (index 1 insts)

let is_input_trans stg t =
  match stg.labels.(t) with
  | Edge (s, _) -> Signal.is_input stg.signals.(s)
  | Dummy _ -> false

let all_labels stg =
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  Array.iter
    (fun lab ->
      if not (Hashtbl.mem seen lab) then begin
        Hashtbl.replace seen lab ();
        acc := lab :: !acc
      end)
    stg.labels;
  List.rev !acc

(* "a+", "b-/2", "c~" -> Some (name, dir); otherwise None. *)
let parse_label_name name =
  let base =
    match String.index_opt name '/' with
    | Some i -> String.sub name 0 i
    | None -> name
  in
  let n = String.length base in
  if n < 2 then None
  else
    let body = String.sub base 0 (n - 1) in
    match base.[n - 1] with
    | '+' -> Some (body, Plus)
    | '-' -> Some (body, Minus)
    | '~' -> Some (body, Toggle)
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' -> None
    | _ -> None

let of_net ~inputs ~outputs ?(internals = []) net =
  let mk kind name = { Signal.name; kind } in
  let declared =
    List.map (mk Signal.Input) inputs
    @ List.map (mk Signal.Output) outputs
    @ List.map (mk Signal.Internal) internals
  in
  let signals = Array.of_list declared in
  let find_signal name =
    let rec loop i =
      if i >= Array.length signals then None
      else if String.equal signals.(i).Signal.name name then Some i
      else loop (i + 1)
    in
    loop 0
  in
  let label_of t =
    let name = Petri.trans_name net t in
    match parse_label_name name with
    | Some (base, d) -> (
        match find_signal base with
        | Some s -> Edge (s, d)
        | None ->
            invalid_arg
              (Printf.sprintf
                 "Stg.of_net: transition %s refers to undeclared signal %s"
                 name base))
    | None -> Dummy name
  in
  let labels = Array.init (Petri.n_trans net) label_of in
  { net; signals; labels }

let add_causality stg t1 t2 =
  let b = Petri.Builder.create () in
  let net = stg.net in
  for p = 0 to Petri.n_places net - 1 do
    ignore
      (Petri.Builder.add_place b ~name:(Petri.place_name net p)
         ~tokens:net.Petri.initial.(p))
  done;
  for t = 0 to Petri.n_trans net - 1 do
    ignore (Petri.Builder.add_trans b ~name:(Petri.trans_name net t))
  done;
  for t = 0 to Petri.n_trans net - 1 do
    Array.iter (fun p -> Petri.Builder.arc_pt b p t) net.Petri.pre.(t);
    Array.iter (fun p -> Petri.Builder.arc_tp b t p) net.Petri.post.(t)
  done;
  let name =
    Printf.sprintf "<%s,%s>" (Petri.trans_name net t1) (Petri.trans_name net t2)
  in
  ignore (Petri.Builder.connect b t1 t2 ~name);
  { stg with net = Petri.Builder.build b }

(* Graphviz rendering, exposed as Io.to_dot. *)
let io_to_dot stg =
  let net = stg.net in
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "digraph stg {\n  rankdir=TB;\n";
  for t = 0 to Petri.n_trans net - 1 do
    let shade =
      match stg.labels.(t) with
      | Edge (s, _) when Signal.is_input stg.signals.(s) ->
          " style=filled fillcolor=lightgrey"
      | Edge _ | Dummy _ -> ""
    in
    add "  t%d [shape=box label=\"%s\"%s];\n" t
      (Petri.trans_name net t) shade
  done;
  let is_implicit p =
    Array.length net.Petri.producers.(p) = 1
    && Array.length net.Petri.consumers.(p) = 1
    && net.Petri.initial.(p) = 0
  in
  for p = 0 to Petri.n_places net - 1 do
    if is_implicit p then
      add "  t%d -> t%d;\n" net.Petri.producers.(p).(0)
        net.Petri.consumers.(p).(0)
    else begin
      let label =
        if net.Petri.initial.(p) > 0 then
          String.concat "" (List.init net.Petri.initial.(p) (fun _ -> "&bull;"))
        else ""
      in
      add "  p%d [shape=circle label=\"%s\" xlabel=\"%s\"];\n" p label
        (Petri.place_name net p);
      Array.iter (fun t -> add "  t%d -> p%d;\n" t p) net.Petri.producers.(p);
      Array.iter (fun t -> add "  p%d -> t%d;\n" p t) net.Petri.consumers.(p)
    end
  done;
  add "}\n";
  Buffer.contents buf

module Io = struct
  exception Parse_error of string

  let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

  type node = Trans of int | Place of int

  let tokenize line =
    line |> String.split_on_char ' '
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun s -> s <> "")

  (* Strip comments, join nothing special; returns significant lines. *)
  let lines_of_string text =
    String.split_on_char '\n' text
    |> List.map (fun line ->
           match String.index_opt line '#' with
           | Some i -> String.sub line 0 i
           | None -> line)
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")

  (* Marking tokens look like: p1 <a+,b-> <a+/1,b-/2>; split on spaces was
     already done but "<a, b>" could contain spaces; we re-lex the interior
     of braces as a whole string. *)
  let parse_marking_tokens s =
    let s = String.trim s in
    let s =
      let n = String.length s in
      if n >= 2 && s.[0] = '{' && s.[n - 1] = '}' then String.sub s 1 (n - 2)
      else fail "marking must be enclosed in braces: %s" s
    in
    (* Split on whitespace but keep <...> units together. *)
    let out = ref [] and buf = Buffer.create 16 and depth = ref 0 in
    let flush () =
      if Buffer.length buf > 0 then begin
        out := Buffer.contents buf :: !out;
        Buffer.clear buf
      end
    in
    String.iter
      (fun c ->
        match c with
        | '<' ->
            incr depth;
            Buffer.add_char buf c
        | '>' ->
            decr depth;
            Buffer.add_char buf c
        | ' ' | '\t' -> if !depth > 0 then Buffer.add_char buf c else flush ()
        | c -> Buffer.add_char buf c)
      s;
    flush ();
    List.rev !out

  let c_parse = Obs.Counter.make "stg.parse.calls"

  let parse_body text =
    let lines = lines_of_string text in
    let inputs = ref [] and outputs = ref [] and internals = ref [] in
    let dummies = ref [] in
    let graph_lines = ref [] and marking = ref None in
    let in_graph = ref false in
    let handle line =
      let toks = tokenize line in
      match toks with
      | [] -> ()
      | keyword :: rest when String.length keyword > 0 && keyword.[0] = '.' ->
          in_graph := false;
          (match keyword with
          | ".model" | ".name" | ".end" | ".outputsignals" -> ()
          | ".inputs" -> inputs := !inputs @ rest
          | ".outputs" -> outputs := !outputs @ rest
          | ".internal" -> internals := !internals @ rest
          | ".dummy" -> dummies := !dummies @ rest
          | ".graph" -> in_graph := true
          | ".marking" ->
              let idx =
                match String.index_opt line '{' with
                | Some i -> i
                | None -> fail ".marking without '{'"
              in
              marking :=
                Some
                  (parse_marking_tokens
                     (String.sub line idx (String.length line - idx)))
          | ".capacity" | ".slowenv" -> ()
          | other -> fail "unknown directive %s" other)
      | _ ->
          if !in_graph then graph_lines := toks :: !graph_lines
          else fail "unexpected line outside .graph: %s" line
    in
    List.iter handle lines;
    let graph_lines = List.rev !graph_lines in
    let declared =
      let mk kind name = { Signal.name; kind } in
      List.map (mk Signal.Input) !inputs
      @ List.map (mk Signal.Output) !outputs
      @ List.map (mk Signal.Internal) !internals
    in
    let signal_ids = Hashtbl.create 16 in
    List.iteri
      (fun i s ->
        if not (Hashtbl.mem signal_ids s.Signal.name) then
          Hashtbl.add signal_ids s.Signal.name i)
      declared;
    let is_dummy = Hashtbl.create 8 in
    List.iter (fun d -> Hashtbl.replace is_dummy d ()) !dummies;
    (* Each distinct name is classified once, at its first appearance, and
       numbered in order of appearance among its kind: a transition when
       it reads as an edge of a declared signal or is a declared dummy, an
       explicit place otherwise. *)
    let nodes = Hashtbl.create 64 in
    let trans_rev = ref [] and n_trans = ref 0 in
    let places_rev = ref [] and n_places = ref 0 in
    let note name =
      if not (Hashtbl.mem nodes name) then begin
        let label =
          match parse_label_name name with
          | Some (base, d) ->
              Option.map
                (fun s -> Edge (s, d))
                (Hashtbl.find_opt signal_ids base)
          | None ->
              if Hashtbl.mem is_dummy name then Some (Dummy name) else None
        in
        match label with
        | Some label ->
            Hashtbl.add nodes name (Trans !n_trans);
            trans_rev := (name, label) :: !trans_rev;
            incr n_trans
        | None ->
            Hashtbl.add nodes name (Place !n_places);
            places_rev := name :: !places_rev;
            incr n_places
      end
    in
    List.iter (List.iter note) graph_lines;
    (* Arcs; a transition-to-transition arc goes through the implicit place
       [<t1,t2>], numbered after every explicit place in order of first
       use. *)
    let implicit = Hashtbl.create 64 and implicit_rev = ref [] in
    let arcs_tp = ref [] and arcs_pt = ref [] in
    let add_arc src dst =
      match (Hashtbl.find nodes src, Hashtbl.find nodes dst) with
      | Trans t1, Trans t2 ->
          let p =
            match Hashtbl.find_opt implicit (t1, t2) with
            | Some p -> p
            | None ->
                let p = !n_places in
                Hashtbl.add implicit (t1, t2) p;
                implicit_rev := ("<" ^ src ^ "," ^ dst ^ ">") :: !implicit_rev;
                incr n_places;
                p
          in
          arcs_tp := (t1, p) :: !arcs_tp;
          arcs_pt := (p, t2) :: !arcs_pt
      | Trans t, Place p -> arcs_tp := (t, p) :: !arcs_tp
      | Place p, Trans t -> arcs_pt := (p, t) :: !arcs_pt
      | Place _, Place _ -> fail "place-to-place arc %s -> %s" src dst
    in
    List.iter
      (function
        | [] -> ()
        | src :: dsts -> List.iter (add_arc src) dsts)
      graph_lines;
    let tokens = Array.make !n_places 0 in
    let resolve_marking_token tok =
      let n = String.length tok in
      if n > 1 && tok.[0] = '<' then begin
        (* <t1,t2> *)
        if tok.[n - 1] <> '>' then
          fail "unclosed implicit place token %s" (String.trim tok);
        match String.split_on_char ',' (String.sub tok 1 (n - 2)) with
        | [ t1; t2 ] -> (
            let t1 = String.trim t1 and t2 = String.trim t2 in
            let place =
              match (Hashtbl.find_opt nodes t1, Hashtbl.find_opt nodes t2) with
              | Some (Trans i1), Some (Trans i2) ->
                  Hashtbl.find_opt implicit (i1, i2)
              | _ -> None
            in
            match place with
            | Some p -> tokens.(p) <- tokens.(p) + 1
            | None -> fail "marking names unknown implicit place <%s,%s>" t1 t2)
        | _ -> fail "bad implicit place token %s" tok
      end
      else begin
        (* possibly p=k, k a decimal count *)
        let name, k =
          match String.index_opt tok '=' with
          | Some i -> (
              let count = String.sub tok (i + 1) (n - i - 1) in
              let digits =
                count <> ""
                && String.for_all (fun c -> '0' <= c && c <= '9') count
              in
              match if digits then int_of_string_opt count else None with
              | Some k -> (String.sub tok 0 i, k)
              | None -> fail "bad token count in marking token %s" tok)
          | None -> (tok, 1)
        in
        match Hashtbl.find_opt nodes name with
        | Some (Place p) -> tokens.(p) <- tokens.(p) + k
        | Some (Trans _) | None -> fail "marking names unknown place %s" name
      end
    in
    (match !marking with
    | None -> fail "missing .marking"
    | Some toks -> List.iter resolve_marking_token toks);
    let b = Petri.Builder.create () in
    List.iteri
      (fun p name ->
        ignore (Petri.Builder.add_place b ~name ~tokens:tokens.(p)))
      (List.rev_append !places_rev (List.rev !implicit_rev));
    let trans = List.rev !trans_rev in
    List.iter (fun (name, _) -> ignore (Petri.Builder.add_trans b ~name)) trans;
    List.iter (fun (t, p) -> Petri.Builder.arc_tp b t p) !arcs_tp;
    List.iter (fun (p, t) -> Petri.Builder.arc_pt b p t) !arcs_pt;
    {
      net = Petri.Builder.build b;
      signals = Array.of_list declared;
      labels = Array.of_list (List.map snd trans);
    }

  let parse text =
    Obs.Counter.incr c_parse;
    Obs.span "stg.parse" (fun () -> parse_body text)

  let to_dot = io_to_dot

  let parse_file path =
    let ic = open_in path in
    let n = in_channel_length ic in
    let text = really_input_string ic n in
    close_in ic;
    parse text

  let print stg =
    let net = stg.net in
    let buf = Buffer.create 1024 in
    let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    let by_kind k =
      let acc = ref [] in
      Array.iter
        (fun s -> if s.Signal.kind = k then acc := s.Signal.name :: !acc)
        stg.signals;
      List.rev !acc
    in
    let dummies =
      let acc = ref [] in
      Array.iteri
        (fun t lab ->
          match lab with
          | Dummy name ->
              ignore t;
              if not (List.mem name !acc) then acc := name :: !acc
          | Edge _ -> ())
        stg.labels;
      List.rev !acc
    in
    let section name items =
      if items <> [] then add ".%s %s\n" name (String.concat " " items)
    in
    section "inputs" (by_kind Signal.Input);
    section "outputs" (by_kind Signal.Output);
    section "internal" (by_kind Signal.Internal);
    section "dummy" dummies;
    add ".graph\n";
    (* A place is implicit iff it has exactly one producer and one consumer
       and a name we can elide. *)
    let is_implicit p =
      Array.length net.Petri.producers.(p) = 1
      && Array.length net.Petri.consumers.(p) = 1
    in
    let tname t = Petri.trans_name net t in
    let n_t = Petri.n_trans net and n_p = Petri.n_places net in
    (* Canonical emission: lines are ordered so that re-parsing the printed
       text encounters transition and place names in exactly the order they
       are emitted here.  [parse] numbers nodes by first appearance, so
       [parse (print stg)] numbers them in emission order and printing that
       net replays the same emission — [print] is a fixpoint of
       [print . parse], which makes the format usable for golden files (see
       test/test_roundtrip.ml).  Each emission loop takes the first
       already-encountered node with an unprinted line (in encounter order),
       seeding from the lowest unprinted id when none is pending. *)
    let t_seen = Array.make n_t false and t_enc_rev = ref [] in
    let t_enc t =
      if not t_seen.(t) then begin
        t_seen.(t) <- true;
        t_enc_rev := t :: !t_enc_rev
      end
    in
    let p_seen = Array.make n_p false and p_enc_rev = ref [] in
    let p_enc p =
      if not p_seen.(p) then begin
        p_seen.(p) <- true;
        p_enc_rev := p :: !p_enc_rev
      end
    in
    let imp_seen = Array.make n_p false and imp_enc_rev = ref [] in
    let imp_enc p =
      if not imp_seen.(p) then begin
        imp_seen.(p) <- true;
        imp_enc_rev := p :: !imp_enc_rev
      end
    in
    let pos_in enc_rev x =
      let rec idx i = function
        | [] -> max_int
        | y :: r -> if y = x then i else idx (i + 1) r
      in
      idx 0 (List.rev !enc_rev)
    in
    (* Pick the next line head: first encountered-but-unprinted node with a
       line, else the lowest-id one. *)
    let next_head emitted has_line enc_rev n =
      let pending x = has_line x && not emitted.(x) in
      match List.find_opt pending (List.rev !enc_rev) with
      | Some _ as hit -> hit
      | None ->
          let r = ref None in
          (try
             for x = 0 to n - 1 do
               if pending x then begin
                 r := Some x;
                 raise Exit
               end
             done
           with Exit -> ());
          !r
    in
    let t_emitted = Array.make n_t false in
    let t_has_line t = Array.length net.Petri.post.(t) > 0 in
    let emit_trans_line t =
      t_emitted.(t) <- true;
      t_enc t;
      let explicit, implicit =
        Array.to_list net.Petri.post.(t)
        |> List.partition (fun p -> not (is_implicit p))
      in
      (* Explicit targets before implicit ones, the already-encountered ones
         in encounter order: exactly the relative place order a re-parse
         assigns, hence the order a re-print would use. *)
      let seen, fresh = List.partition (fun p -> p_seen.(p)) explicit in
      let explicit =
        List.sort (fun a b -> compare (pos_in p_enc_rev a) (pos_in p_enc_rev b))
          seen
        @ fresh
      in
      List.iter p_enc explicit;
      let targets =
        List.map (Petri.place_name net) explicit
        @ List.map
            (fun p ->
              imp_enc p;
              let t2 = net.Petri.consumers.(p).(0) in
              t_enc t2;
              tname t2)
            implicit
      in
      add "%s %s\n" (tname t) (String.concat " " targets)
    in
    let rec trans_loop () =
      match next_head t_emitted t_has_line t_enc_rev n_t with
      | None -> ()
      | Some t ->
          emit_trans_line t;
          trans_loop ()
    in
    trans_loop ();
    let p_emitted = Array.make n_p false in
    let p_has_line p =
      (not (is_implicit p)) && Array.length net.Petri.consumers.(p) > 0
    in
    let emit_place_line p =
      p_emitted.(p) <- true;
      p_enc p;
      let seen, fresh =
        List.partition
          (fun t -> t_seen.(t))
          (Array.to_list net.Petri.consumers.(p))
      in
      let consumers =
        List.sort (fun a b -> compare (pos_in t_enc_rev a) (pos_in t_enc_rev b))
          seen
        @ fresh
      in
      List.iter t_enc consumers;
      add "%s %s\n" (Petri.place_name net p)
        (String.concat " " (List.map tname consumers))
    in
    let rec place_loop () =
      match next_head p_emitted p_has_line p_enc_rev n_p with
      | None -> ()
      | Some p ->
          emit_place_line p;
          place_loop ()
    in
    place_loop ();
    (* Marking tokens in the order a re-parse numbers the places: explicit
       by first appearance, then implicit by first appearance (disconnected
       places last — they do not survive a round trip anyway). *)
    let marked_order =
      List.rev !p_enc_rev @ List.rev !imp_enc_rev
      @ List.filter
          (fun p -> not (p_seen.(p) || imp_seen.(p)))
          (List.init n_p Fun.id)
    in
    let marking_tokens =
      List.filter_map
        (fun p ->
          let k = net.Petri.initial.(p) in
          if k = 0 then None
          else
            let base =
              if is_implicit p then
                Printf.sprintf "<%s,%s>"
                  (tname net.Petri.producers.(p).(0))
                  (tname net.Petri.consumers.(p).(0))
              else Petri.place_name net p
            in
            Some (if k = 1 then base else Printf.sprintf "%s=%d" base k))
        marked_order
    in
    add ".marking { %s }\n" (String.concat " " marking_tokens);
    add ".end\n";
    Buffer.contents buf
end

let pp ppf stg =
  Format.fprintf ppf "@[<v>signals: %s@,%a@]"
    (String.concat ", "
       (Array.to_list
          (Array.map (Format.asprintf "%a" Signal.pp) stg.signals)))
    Petri.pp stg.net
