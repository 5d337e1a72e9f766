(* Random STG generators for property-based tests.

   All generators produce live, consistent, speed-independent STGs by
   construction, so properties can assert on the strongest invariants. *)

let signal_name i = Printf.sprintf "s%d" i

(* A sequential ring over [n] signals (n >= 1):
   s0+ -> s1+ -> ... -> s(n-1)+ -> s0- -> ... -> s(n-1)- -> s0+.
   The first [inputs] signals are inputs, the rest outputs. *)
let ring ~inputs n =
  assert (n >= 1 && inputs <= n);
  let b = Petri.Builder.create () in
  let trans =
    List.init n (fun i -> Petri.Builder.add_trans b ~name:(signal_name i ^ "+"))
    @ List.init n (fun i ->
          Petri.Builder.add_trans b ~name:(signal_name i ^ "-"))
  in
  let arr = Array.of_list trans in
  let m = Array.length arr in
  for k = 0 to m - 1 do
    let p =
      Petri.Builder.add_place b
        ~name:(Printf.sprintf "p%d" k)
        ~tokens:(if k = m - 1 then 1 else 0)
    in
    Petri.Builder.arc_tp b arr.(k) p |> ignore;
    Petri.Builder.arc_pt b p arr.((k + 1) mod m)
  done;
  let names = List.init n signal_name in
  let ins = List.filteri (fun i _ -> i < inputs) names in
  let outs = List.filteri (fun i _ -> i >= inputs) names in
  Stg.of_net ~inputs:ins ~outputs:outs (Petri.Builder.build b)

(* A fork-join: trigger t+ forks [width] parallel branches (one signal
   each, rising then falling), joined by j+; then t-, j- complete the
   cycle.  t is an input, everything else an output. *)
let fork_join width =
  assert (width >= 1);
  let b = Petri.Builder.create () in
  let t_plus = Petri.Builder.add_trans b ~name:"t+" in
  let t_minus = Petri.Builder.add_trans b ~name:"t-" in
  let j_plus = Petri.Builder.add_trans b ~name:"j+" in
  let j_minus = Petri.Builder.add_trans b ~name:"j-" in
  let branch i =
    let plus = Petri.Builder.add_trans b ~name:(Printf.sprintf "w%d+" i) in
    let minus = Petri.Builder.add_trans b ~name:(Printf.sprintf "w%d-" i) in
    ignore (Petri.Builder.connect b t_plus plus ~name:(Printf.sprintf "f%d" i));
    ignore
      (Petri.Builder.connect b plus minus ~name:(Printf.sprintf "pm%d" i));
    ignore (Petri.Builder.connect b minus j_plus ~name:(Printf.sprintf "g%d" i))
  in
  for i = 0 to width - 1 do
    branch i
  done;
  ignore (Petri.Builder.connect b j_plus t_minus ~name:"jt");
  ignore (Petri.Builder.connect b t_minus j_minus ~name:"tj");
  let home = Petri.Builder.add_place b ~name:"home" ~tokens:1 in
  Petri.Builder.arc_tp b j_minus home;
  Petri.Builder.arc_pt b home t_plus;
  let outs =
    "j" :: List.init width (fun i -> Printf.sprintf "w%d" i)
  in
  Stg.of_net ~inputs:[ "t" ] ~outputs:outs (Petri.Builder.build b)

(* Random process specs for the expansion compiler: a loop over a sequence
   of channel handshakes, with optional inner parallelism.  Seeded, hence
   deterministic per size. *)
let random_spec seed =
  let st = Random.State.make [| seed |] in
  let n_chans = 1 + Random.State.int st 3 in
  let chan i = Printf.sprintf "c%d" i in
  let handshake i =
    if Random.State.bool st then
      Expansion.Seq [ Expansion.Recv (chan i); Expansion.Send (chan i) ]
    else Expansion.Seq [ Expansion.Send (chan i); Expansion.Recv (chan i) ]
  in
  let body =
    if n_chans >= 2 && Random.State.bool st then
      Expansion.Seq
        [
          handshake 0;
          Expansion.Par (List.init (n_chans - 1) (fun i -> handshake (i + 1)));
        ]
    else Expansion.Seq (List.init n_chans handshake)
  in
  Expansion.spec (Expansion.Loop body)

let sg_exn stg =
  match Sg.of_stg stg with
  | Ok sg -> sg
  | Error e -> failwith (Format.asprintf "gen: %a" Sg.pp_error e)

(* ------------------------------------------------------------------ *)
(* Random series-parallel STGs.

   A signal's behaviour is the block  s+ ; s-  ; blocks compose in series
   (barrier places between consecutive blocks) or in parallel, and the
   whole tree closes into a loop through a dedicated completion signal:
   all exits join into l+, and l- refills one marked place per entry.
   The result is always a live, safe, consistent, speed-independent
   marked-graph STG: every place has one producer and one consumer (no
   choice, hence determinism, commutativity and persistency), the single
   synchronized refill keeps every place 1-bounded (safety) while the
   marked entry places keep the loop live, and each signal strictly
   alternates + and − (consistency).  Strong invariants by construction
   let property tests assert the strongest properties on the search's
   behaviour.

   Trees are the shrinkable representation: QCheck shrinks a tree by
   replacing a node with one of its children, dropping a child, or
   shrinking a child — all of which preserve the construction invariants,
   so shrunk counterexamples stay valid STGs. *)

type sp = Leaf of int | Seq of sp list | Par of sp list

let rec sp_leaves = function
  | Leaf i -> [ i ]
  | Seq l | Par l -> List.concat_map sp_leaves l

let rec sp_to_string = function
  | Leaf i -> signal_name i
  | Seq l -> "(" ^ String.concat " ; " (List.map sp_to_string l) ^ ")"
  | Par l -> "(" ^ String.concat " | " (List.map sp_to_string l) ^ ")"

(* Split [ids] into [k] nonempty consecutive groups (k <= length ids). *)
let split_groups st ids k =
  let n = List.length ids in
  let cuts = Array.init (n - 1) (fun i -> i + 1) in
  (* Fisher-Yates prefix of length k-1, then sort: k-1 distinct cuts. *)
  for i = 0 to min (k - 2) (n - 2) do
    let j = i + Random.State.int st (n - 1 - i) in
    let t = cuts.(i) in
    cuts.(i) <- cuts.(j);
    cuts.(j) <- t
  done;
  let cuts = Array.sub cuts 0 (k - 1) in
  Array.sort compare cuts;
  let arr = Array.of_list ids in
  let bounds = Array.to_list cuts @ [ n ] in
  let rec slice lo = function
    | [] -> []
    | hi :: rest -> Array.to_list (Array.sub arr lo (hi - lo)) :: slice hi rest
  in
  slice 0 bounds

let random_sp st ~max_signals =
  let n = 1 + Random.State.int st (max 1 max_signals) in
  let rec build ids depth =
    match ids with
    | [ i ] -> Leaf i
    | ids when depth >= 4 -> Seq (List.map (fun i -> Leaf i) ids)
    | ids ->
        let k = 2 + Random.State.int st (min 2 (List.length ids - 1)) in
        let children =
          List.map (fun g -> build g (depth + 1)) (split_groups st ids k)
        in
        if Random.State.bool st then Seq children else Par children
  in
  build (List.init n Fun.id) 0

let stg_of_sp ?(is_input = fun _ -> false) sp =
  let b = Petri.Builder.create () in
  let fresh =
    let k = ref 0 in
    fun () ->
      incr k;
      Printf.sprintf "q%d" !k
  in
  (* Compile a block to its entry and exit transitions. *)
  let rec compile = function
    | Leaf i ->
        let plus = Petri.Builder.add_trans b ~name:(signal_name i ^ "+") in
        let minus = Petri.Builder.add_trans b ~name:(signal_name i ^ "-") in
        ignore (Petri.Builder.connect b plus minus ~name:(fresh ()));
        ([ plus ], [ minus ])
    | Seq blocks ->
        let compiled = List.map compile blocks in
        let rec link = function
          | (_, exits) :: ((entries, _) :: _ as rest) ->
              List.iter
                (fun e ->
                  List.iter
                    (fun en ->
                      ignore (Petri.Builder.connect b e en ~name:(fresh ())))
                    entries)
                exits;
              link rest
          | [ _ ] | [] -> ()
        in
        link compiled;
        (fst (List.hd compiled), snd (List.nth compiled (List.length compiled - 1)))
    | Par blocks ->
        let compiled = List.map compile blocks in
        (List.concat_map fst compiled, List.concat_map snd compiled)
  in
  let entries, exits = compile sp in
  let leaves = sp_leaves sp in
  (* Close the loop through a dedicated completion signal: every exit joins
     into l+, and l- refills one marked place per entry.  A naive marked
     cross-product of exit x entry back places is only 2-bounded (a fast
     branch's exit refills a slow branch's still-marked entry place); the
     join serializes the refill, so the net is a genuinely 1-safe marked
     graph. *)
  let loop_sig = 1 + List.fold_left max (-1) leaves in
  let l_plus =
    Petri.Builder.add_trans b ~name:(signal_name loop_sig ^ "+")
  in
  let l_minus =
    Petri.Builder.add_trans b ~name:(signal_name loop_sig ^ "-")
  in
  ignore (Petri.Builder.connect b l_plus l_minus ~name:(fresh ()));
  List.iter
    (fun e -> ignore (Petri.Builder.connect b e l_plus ~name:(fresh ())))
    exits;
  List.iter
    (fun en ->
      let p = Petri.Builder.add_place b ~name:(fresh ()) ~tokens:1 in
      Petri.Builder.arc_tp b l_minus p;
      Petri.Builder.arc_pt b p en)
    entries;
  let ins = List.filter is_input leaves |> List.map signal_name in
  let outs =
    (List.filter (fun i -> not (is_input i)) leaves |> List.map signal_name)
    @ [ signal_name loop_sig ]
  in
  Stg.of_net ~inputs:ins ~outputs:outs (Petri.Builder.build b)

(* Seeded random STG: bounded signals (hence <= 2 * max_signals
   transitions), deterministic per seed.  Roughly a quarter of the signals
   become inputs, always leaving at least one output so the reduction
   search has something to do. *)
let random_stg ?(max_signals = 6) seed =
  let st = Random.State.make [| 0x53ed; seed |] in
  let sp = random_sp st ~max_signals in
  let leaves = sp_leaves sp in
  let inputs =
    List.filter (fun _ -> Random.State.int st 4 = 0) leaves
  in
  let inputs =
    if List.compare_lengths inputs leaves = 0 then List.tl inputs else inputs
  in
  stg_of_sp ~is_input:(fun i -> List.mem i inputs) sp

(* QCheck arbitrary over shrinkable SP trees. *)
let shrink_sp sp yield =
  let rec shrink sp yield =
    match sp with
    | Leaf _ -> ()
    | Seq l | Par l ->
        let mk l' = match sp with Seq _ -> Seq l' | _ -> Par l' in
        List.iter yield l;
        if List.length l > 2 then
          List.iteri
            (fun i _ -> yield (mk (List.filteri (fun j _ -> j <> i) l)))
            l;
        List.iteri
          (fun i c ->
            shrink c (fun c' ->
                yield (mk (List.mapi (fun j x -> if j = i then c' else x) l))))
          l
  in
  shrink sp yield

let arb_sp ?(max_signals = 6) () =
  QCheck.make ~print:sp_to_string ~shrink:shrink_sp (fun st ->
      random_sp st ~max_signals)

(* ------------------------------------------------------------------ *)
(* Random free-choice STGs: guarded-selection loops.

   One place (the choice place) offers the tokens of several guard
   transitions g0+, g1+, ... — an input burst choice.  Branch [i] runs its
   body of output blocks (s+; s-) in series, lowers its guard (g{i}-) and
   lands on the merge place; a completion phase (z+, an optional fork of
   [tail] parallel output signals u0..u{tail-1}, z-) returns the token to
   the choice place.

   The net is free choice (the choice place is the entire preset of every
   guard, and no other place has two consumers), safe and live (the single
   token splits only in the completion fork and rejoins at z-), and
   consistent (every signal's edges strictly alternate along every firing
   sequence: guards within their own branch, body signals within their
   blocks, tail signals within the fork).  Each body block gets its own
   fresh signal, numbered by occurrence across the whole net — the [.g]
   format has no transition-instance notation, so every label must name
   exactly one transition or the print/parse round trip would merge
   them.  The branch ids in [fc_branches] therefore only fix the shape
   (how many blocks per branch); the structural shrinker still drops
   branches and blocks one at a time. *)

type fc = { fc_branches : int list list; fc_tail : int }

let fc_to_string { fc_branches; fc_tail } =
  Printf.sprintf "fc{%s;tail=%d}"
    (String.concat "|"
       (List.map
          (fun body -> String.concat "," (List.map string_of_int body))
          fc_branches))
    fc_tail

let fc_to_stg { fc_branches; fc_tail } =
  assert (fc_branches <> [] && fc_tail >= 0);
  let b = Petri.Builder.create () in
  let fresh =
    let k = ref 0 in
    fun ?(tokens = 0) () ->
      incr k;
      Petri.Builder.add_place b ~name:(Printf.sprintf "p%d" !k) ~tokens
  in
  let choice = fresh ~tokens:1 () in
  let merge = fresh () in
  let n_blocks = ref 0 in
  (* An  s+ ; s-  block appended after transition [cur]; returns s-.  The
     signal is fresh per occurrence (see the header comment). *)
  let block cur _id =
    let s = !n_blocks in
    incr n_blocks;
    let plus = Petri.Builder.add_trans b ~name:(signal_name s ^ "+") in
    let minus = Petri.Builder.add_trans b ~name:(signal_name s ^ "-") in
    let p1 = fresh () and p2 = fresh () in
    Petri.Builder.arc_tp b cur p1;
    Petri.Builder.arc_pt b p1 plus;
    Petri.Builder.arc_tp b plus p2;
    Petri.Builder.arc_pt b p2 minus;
    minus
  in
  List.iteri
    (fun i body ->
      let g_plus = Petri.Builder.add_trans b ~name:(Printf.sprintf "g%d+" i) in
      let g_minus =
        Petri.Builder.add_trans b ~name:(Printf.sprintf "g%d-" i)
      in
      Petri.Builder.arc_pt b choice g_plus;
      let last = List.fold_left block g_plus body in
      let p = fresh () in
      Petri.Builder.arc_tp b last p;
      Petri.Builder.arc_pt b p g_minus;
      Petri.Builder.arc_tp b g_minus merge)
    fc_branches;
  let z_plus = Petri.Builder.add_trans b ~name:"z+" in
  let z_minus = Petri.Builder.add_trans b ~name:"z-" in
  Petri.Builder.arc_pt b merge z_plus;
  if fc_tail = 0 then begin
    let p = fresh () in
    Petri.Builder.arc_tp b z_plus p;
    Petri.Builder.arc_pt b p z_minus
  end
  else
    for i = 0 to fc_tail - 1 do
      let u_plus = Petri.Builder.add_trans b ~name:(Printf.sprintf "u%d+" i) in
      let u_minus =
        Petri.Builder.add_trans b ~name:(Printf.sprintf "u%d-" i)
      in
      let p1 = fresh () and p2 = fresh () and p3 = fresh () in
      Petri.Builder.arc_tp b z_plus p1;
      Petri.Builder.arc_pt b p1 u_plus;
      Petri.Builder.arc_tp b u_plus p2;
      Petri.Builder.arc_pt b p2 u_minus;
      Petri.Builder.arc_tp b u_minus p3;
      Petri.Builder.arc_pt b p3 z_minus
    done;
  (* z- returns the token straight to the choice place, closing the loop. *)
  Petri.Builder.arc_tp b z_minus choice;
  let inputs = List.mapi (fun i _ -> Printf.sprintf "g%d" i) fc_branches in
  let body_sigs = List.init !n_blocks signal_name in
  let tails = List.init fc_tail (fun i -> Printf.sprintf "u%d" i) in
  Stg.of_net ~inputs ~outputs:(("z" :: tails) @ body_sigs)
    (Petri.Builder.build b)

let random_fc st ~max_signals =
  let n_branches = 1 + Random.State.int st 3 in
  let branch _ =
    List.init (Random.State.int st 3) (fun _ ->
        Random.State.int st (max 1 max_signals))
  in
  {
    fc_branches = List.init n_branches branch;
    fc_tail = (match Random.State.int st 3 with 0 -> 0 | 1 -> 1 | _ -> 2);
  }

let random_fc_stg ?(max_signals = 4) seed =
  let st = Random.State.make [| 0xfc5e; seed |] in
  fc_to_stg (random_fc st ~max_signals)

let shrink_fc { fc_branches; fc_tail } yield =
  (* Fewer completion signals. *)
  if fc_tail > 0 then yield { fc_branches; fc_tail = fc_tail - 1 };
  (* Drop a whole branch (at least one must remain). *)
  if List.length fc_branches > 1 then
    List.iteri
      (fun i _ ->
        yield
          {
            fc_branches = List.filteri (fun j _ -> j <> i) fc_branches;
            fc_tail;
          })
      fc_branches;
  (* Drop one block of one branch. *)
  List.iteri
    (fun i body ->
      List.iteri
        (fun j _ ->
          yield
            {
              fc_branches =
                List.mapi
                  (fun i' body' ->
                    if i' = i then List.filteri (fun j' _ -> j' <> j) body'
                    else body')
                  fc_branches;
              fc_tail;
            })
        body)
    fc_branches

(* ------------------------------------------------------------------ *)
(* Random asymmetric-choice STGs: arbiter cells.

   [n] clients compete for one resource place R.  Client [i] raises its
   request (input r{i}+), is granted (output a{i}+, consuming both its
   request place and R — the asymmetric-choice cell: R's consumers
   strictly contain each request place's), runs [body] work blocks
   (w{k}+; w{k}-; ...) while holding R, lowers the request (r{i}-) and
   releases (a{i}-, returning R and the client's cycle token).  Work
   signals are numbered by occurrence across all clients, so every label
   names exactly one transition (the [.g] format has no instances).

   Safe and live by construction (each client owns one token, R is
   returned on every release path), and consistent: r{i}/a{i} alternate
   within the client cycle, and each w{k} belongs to one client's
   critical section, serialized by R.  The grant choice a{i}+ vs a{j}+
   is a genuine output arbitration — NOT speed-independent, which is the
   point: these nets exercise the non-persistent paths the paper's case
   studies never reach. *)

type ac = int list

let ac_to_string clients =
  Printf.sprintf "ac{%s}" (String.concat "," (List.map string_of_int clients))

let ac_to_stg clients =
  assert (clients <> [] && List.for_all (fun b -> b >= 0) clients);
  let b = Petri.Builder.create () in
  let fresh =
    let k = ref 0 in
    fun ?(tokens = 0) name ->
      incr k;
      Petri.Builder.add_place b ~name:(Printf.sprintf "%s%d" name !k) ~tokens
  in
  let resource = fresh ~tokens:1 "R" in
  let next_w = ref 0 in
  List.iteri
    (fun i body ->
      let cycle = fresh ~tokens:1 "c" in
      let r_plus = Petri.Builder.add_trans b ~name:(Printf.sprintf "r%d+" i) in
      let r_minus =
        Petri.Builder.add_trans b ~name:(Printf.sprintf "r%d-" i)
      in
      let a_plus = Petri.Builder.add_trans b ~name:(Printf.sprintf "a%d+" i) in
      let a_minus =
        Petri.Builder.add_trans b ~name:(Printf.sprintf "a%d-" i)
      in
      let pending = fresh "p" in
      Petri.Builder.arc_pt b cycle r_plus;
      Petri.Builder.arc_tp b r_plus pending;
      Petri.Builder.arc_pt b pending a_plus;
      Petri.Builder.arc_pt b resource a_plus;
      (* Work blocks while holding R, one fresh signal per block. *)
      let cur = ref a_plus in
      for _j = 0 to body - 1 do
        let w = !next_w in
        incr next_w;
        let w_plus =
          Petri.Builder.add_trans b ~name:(Printf.sprintf "w%d+" w)
        in
        let w_minus =
          Petri.Builder.add_trans b ~name:(Printf.sprintf "w%d-" w)
        in
        let p1 = fresh "q" and p2 = fresh "q" in
        Petri.Builder.arc_tp b !cur p1;
        Petri.Builder.arc_pt b p1 w_plus;
        Petri.Builder.arc_tp b w_plus p2;
        Petri.Builder.arc_pt b p2 w_minus;
        cur := w_minus
      done;
      let done_p = fresh "d" and release = fresh "s" in
      Petri.Builder.arc_tp b !cur done_p;
      Petri.Builder.arc_pt b done_p r_minus;
      Petri.Builder.arc_tp b r_minus release;
      Petri.Builder.arc_pt b release a_minus;
      Petri.Builder.arc_tp b a_minus cycle;
      Petri.Builder.arc_tp b a_minus resource)
    clients;
  let inputs = List.mapi (fun i _ -> Printf.sprintf "r%d" i) clients in
  let grants = List.mapi (fun i _ -> Printf.sprintf "a%d" i) clients in
  let works =
    List.init
      (List.fold_left ( + ) 0 clients)
      (fun j -> Printf.sprintf "w%d" j)
  in
  Stg.of_net ~inputs ~outputs:(grants @ works) (Petri.Builder.build b)

let random_ac st =
  let n_clients = 1 + Random.State.int st 3 in
  List.init n_clients (fun _ -> Random.State.int st 3)

let random_ac_stg seed =
  let st = Random.State.make [| 0xac1d; seed |] in
  ac_to_stg (random_ac st)

let shrink_ac clients yield =
  (* Drop a client (at least one must remain). *)
  if List.length clients > 1 then
    List.iteri
      (fun i _ -> yield (List.filteri (fun j _ -> j <> i) clients))
      clients;
  (* Shorten a client's work chain. *)
  List.iteri
    (fun i body ->
      if body > 0 then
        yield (List.mapi (fun j b -> if j = i then body - 1 else b) clients))
    clients

(* ------------------------------------------------------------------ *)
(* Unified fuzz cases: one shrinkable value per generator class, so a
   failing spec can be minimized by structure (not by text) and
   regenerated deterministically. *)

type case = Sp of sp * int list | Fc of fc | Ac of ac

type cls = [ `Sp | `Fc | `Ac ]

let all_classes : cls list = [ `Sp; `Fc; `Ac ]

let class_name = function `Sp -> "sp" | `Fc -> "fc" | `Ac -> "ac"

let class_of_name = function
  | "sp" -> Some `Sp
  | "fc" -> Some `Fc
  | "ac" -> Some `Ac
  | _ -> None

let case_class = function Sp _ -> `Sp | Fc _ -> `Fc | Ac _ -> `Ac

let case_to_string = function
  | Sp (sp, inputs) ->
      Printf.sprintf "sp{%s;in=%s}" (sp_to_string sp)
        (String.concat "," (List.map string_of_int inputs))
  | Fc fc -> fc_to_string fc
  | Ac ac -> ac_to_string ac

let case_to_stg = function
  | Sp (sp, inputs) -> stg_of_sp ~is_input:(fun i -> List.mem i inputs) sp
  | Fc fc -> fc_to_stg fc
  | Ac ac -> ac_to_stg ac

let random_case ?(max_signals = 6) ~cls seed =
  match cls with
  | `Sp ->
      let st = Random.State.make [| 0x53ed; seed |] in
      let sp = random_sp st ~max_signals in
      let leaves = sp_leaves sp in
      let inputs = List.filter (fun _ -> Random.State.int st 4 = 0) leaves in
      let inputs =
        if List.compare_lengths inputs leaves = 0 then List.tl inputs
        else inputs
      in
      Sp (sp, inputs)
  | `Fc ->
      let st = Random.State.make [| 0xfc5e; seed |] in
      Fc (random_fc st ~max_signals:(min 4 max_signals))
  | `Ac ->
      let st = Random.State.make [| 0xac1d; seed |] in
      Ac (random_ac st)

let shrink_case case yield =
  match case with
  | Sp (sp, inputs) -> shrink_sp sp (fun sp' -> yield (Sp (sp', inputs)))
  | Fc fc -> shrink_fc fc (fun fc' -> yield (Fc fc'))
  | Ac ac -> shrink_ac ac (fun ac' -> yield (Ac ac'))
