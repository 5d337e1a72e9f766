(* Hash-consed gate-graph IR.  See netlist.mli for the contract and
   DESIGN.md, "Netlist IR", for the invariants. *)

type uid = int

type node =
  | Input of int
  | Const of bool
  | Inv of uid
  | And2 of uid * uid
  | Or2 of uid * uid
  | Celem of { set : uid; reset : uid; sig_ : int }

(* Hash-cons table hit/miss: the hit rate is the fraction of structurally
   duplicate construction requests served by sharing (BENCH_PR8 reports
   it per example). *)
let c_hit = Obs.Counter.make "netlist.cons.hit"
let c_miss = Obs.Counter.make "netlist.cons.miss"
let c_fold = Obs.Counter.make "netlist.cons.fold"

module Builder = struct
  type t = {
    nsig : int;
    mutable nodes : node array;
    mutable n : int;
    tbl : (node, uid) Hashtbl.t;
  }

  (* Append without touching the hit/miss counters: the pre-interned
     rails below are unconditional construction, not sharing requests. *)
  let append b nd =
    if b.n = Array.length b.nodes then begin
      let bigger = Array.make (2 * b.n) (Const false) in
      Array.blit b.nodes 0 bigger 0 b.n;
      b.nodes <- bigger
    end;
    let u = b.n in
    b.nodes.(u) <- nd;
    b.n <- u + 1;
    Hashtbl.replace b.tbl nd u;
    u

  (* Both constants and every input rail are interned up front: the
     rails physically exist whatever the covers reference, their uids
     become stable ([false] = 0, [true] = 1, signal [i] = [i + 2]), and
     every later [input]/[const] call is a pure table hit — so the
     cons-table hit rate measures sharing of {e gate structure} instead
     of being dragged down by first-touch rail interning (the AHB
     arbiter's 0.10 in BENCH_PR8 was exactly that artifact: its two
     drivers share no gates, only rails). *)
  let create ~nsig =
    if nsig < 0 then invalid_arg "Netlist.Builder.create: negative nsig";
    let b =
      {
        nsig;
        nodes = Array.make (max 64 (nsig + 2)) (Const false);
        n = 0;
        tbl = Hashtbl.create 64;
      }
    in
    ignore (append b (Const false) : uid);
    ignore (append b (Const true) : uid);
    for i = 0 to nsig - 1 do
      ignore (append b (Input i) : uid)
    done;
    b

  let n_nodes b = b.n

  let node b u = b.nodes.(u)

  (* The one place nodes enter the store after [create]: structural key
     -> existing uid, or append.  Children are uids of existing nodes, so
     every node's children have strictly smaller uids — ascending uid IS
     topological order, for free. *)
  let cons b nd =
    match Hashtbl.find_opt b.tbl nd with
    | Some u ->
        Obs.Counter.incr c_hit;
        u
    | None ->
        Obs.Counter.incr c_miss;
        append b nd

  let const b v = cons b (Const v)

  let input b i =
    if i < 0 || i >= b.nsig then invalid_arg "Netlist.Builder.input: bad signal";
    cons b (Input i)

  let inv b x =
    match node b x with
    | Const v ->
        Obs.Counter.incr c_fold;
        const b (not v)
    | Inv y ->
        (* double-inverter elimination *)
        Obs.Counter.incr c_fold;
        y
    | Input _ | And2 _ | Or2 _ | Celem _ -> cons b (Inv x)

  (* [complement b x y] — is one operand the inverse of the other? *)
  let complement b x y =
    (match node b x with Inv z -> z = y | _ -> false)
    || match node b y with Inv z -> z = x | _ -> false

  let and2 b x y =
    if x = y then x
    else if complement b x y then begin
      Obs.Counter.incr c_fold;
      const b false
    end
    else
      match (node b x, node b y) with
      | Const false, _ | _, Const false ->
          Obs.Counter.incr c_fold;
          const b false
      | Const true, _ ->
          Obs.Counter.incr c_fold;
          y
      | _, Const true ->
          Obs.Counter.incr c_fold;
          x
      | _ ->
          (* commutative: canonical operand order widens sharing *)
          let x, y = if x <= y then (x, y) else (y, x) in
          cons b (And2 (x, y))

  let or2 b x y =
    if x = y then x
    else if complement b x y then begin
      Obs.Counter.incr c_fold;
      const b true
    end
    else
      match (node b x, node b y) with
      | Const true, _ | _, Const true ->
          Obs.Counter.incr c_fold;
          const b true
      | Const false, _ ->
          Obs.Counter.incr c_fold;
          y
      | _, Const false ->
          Obs.Counter.incr c_fold;
          x
      | _ ->
          let x, y = if x <= y then (x, y) else (y, x) in
          cons b (Or2 (x, y))

  let celem b ~set ~reset ~sig_ =
    if sig_ < 0 || sig_ >= b.nsig then
      invalid_arg "Netlist.Builder.celem: bad signal";
    match (node b set, node b reset) with
    | Const true, _ ->
        (* out' = 1 | ... = 1 *)
        Obs.Counter.incr c_fold;
        const b true
    | _, Const true ->
        (* out' = set | (out & 0) = set *)
        Obs.Counter.incr c_fold;
        set
    | Const false, Const false ->
        (* out' = out: the signal holds its current value *)
        Obs.Counter.incr c_fold;
        input b sig_
    | _ -> cons b (Celem { set; reset; sig_ })

  (* SOP through the smart constructors: AND chain per cube over the
     cube's literal uids in ascending order, OR chain over cubes in
     cover order.  Chaining by uid rather than by variable position puts
     every positive literal (a pre-interned rail, uid [v + 2]) before
     every negation (created later, so always a higher uid), in one
     canonical order shared by all cubes — two cubes, of the same cover
     or of different signals' covers, whose positive parts coincide now
     chain through the same prefix nodes even when their negated context
     differs.  Equal sub-chains across cubes, covers and signals all
     land on the same uids. *)
  let of_cover b cover =
    let cube c =
      let lits = ref [] in
      for v = b.nsig - 1 downto 0 do
        if Boolf.Cube.bound c v then
          lits :=
            (if Boolf.Cube.polarity c v then input b v else inv b (input b v))
            :: !lits
      done;
      match List.sort_uniq compare !lits with
      | [] -> const b true
      | first :: rest -> List.fold_left (fun acc lit -> and2 b acc lit) first rest
    in
    match cover with
    | [] -> const b false
    | first :: rest ->
        List.fold_left (fun acc c -> or2 b acc (cube c)) (cube first) rest
end

type t = {
  nsig : int;
  nodes : node array;  (* uid-indexed, children before parents *)
  outs : (int * uid) array;  (* signal-id ascending *)
  live : bool array;
  fan : int array;
}

let n_signals t = t.nsig
let node_count t = Array.length t.nodes
let node t u = t.nodes.(u)
let outputs t = Array.to_list t.outs
let fanout t u = t.fan.(u)

let driver t s =
  let r = ref None in
  Array.iter (fun (s', u) -> if s' = s then r := Some u) t.outs;
  !r

let build (b : Builder.t) ~outputs =
  let outs =
    Array.of_list (List.sort (fun (a, _) (c, _) -> Int.compare a c) outputs)
  in
  Array.iteri
    (fun i (s, u) ->
      if u < 0 || u >= b.Builder.n then
        invalid_arg "Netlist.build: unknown node";
      if i > 0 && fst outs.(i - 1) = s then
        invalid_arg "Netlist.build: duplicate output signal")
    outs;
  let n = b.Builder.n in
  let nodes = Array.sub b.Builder.nodes 0 n in
  let live = Array.make n false in
  let fan = Array.make n 0 in
  (* Liveness: children have smaller uids, so one descending pass closes
     the reachable set without a worklist. *)
  Array.iter (fun (_, u) -> live.(u) <- true) outs;
  for u = n - 1 downto 0 do
    if live.(u) then
      match nodes.(u) with
      | Input _ | Const _ -> ()
      | Inv a -> live.(a) <- true
      | And2 (a, c) | Or2 (a, c) ->
          live.(a) <- true;
          live.(c) <- true
      | Celem { set; reset; _ } ->
          live.(set) <- true;
          live.(reset) <- true
  done;
  for u = 0 to n - 1 do
    if live.(u) then
      match nodes.(u) with
      | Input _ | Const _ -> ()
      | Inv a -> fan.(a) <- fan.(a) + 1
      | And2 (a, c) | Or2 (a, c) ->
          fan.(a) <- fan.(a) + 1;
          fan.(c) <- fan.(c) + 1
      | Celem { set; reset; _ } ->
          fan.(set) <- fan.(set) + 1;
          fan.(reset) <- fan.(reset) + 1
  done;
  Array.iter (fun (_, u) -> fan.(u) <- fan.(u) + 1) outs;
  { nsig = b.Builder.nsig; nodes; outs; live; fan }

let iter t f =
  Array.iteri (fun u nd -> if t.live.(u) then f u nd) t.nodes

let node_area = function
  | Input _ | Const _ -> 0
  | Inv _ -> Logic.gate_cost_inverter
  | And2 _ | Or2 _ -> Logic.gate_cost_2input
  | Celem _ -> Logic.gate_cost_celement

let area t =
  let a = ref 0 in
  iter t (fun _ nd -> a := !a + node_area nd);
  !a

let gate_count t =
  let k = ref 0 in
  iter t (fun _ nd -> if node_area nd > 0 then incr k);
  !k

let of_covers ~nsig covers =
  let b = Builder.create ~nsig in
  build b
    ~outputs:(List.map (fun (s, cover) -> (s, Builder.of_cover b cover)) covers)

let shared_area ~nsig covers = area (of_covers ~nsig covers)

let of_impl (impl : Logic.impl) =
  let nsig = Stg.n_signals (Sg.stg impl.Logic.sg) in
  let b = Builder.create ~nsig in
  let outputs =
    List.map
      (fun si ->
        let u =
          match si.Logic.driver with
          | Logic.Sop cover -> Builder.of_cover b cover
          | Logic.Gc { set; reset } ->
              Builder.celem b
                ~set:(Builder.of_cover b set)
                ~reset:(Builder.of_cover b reset)
                ~sig_:si.Logic.signal
        in
        (si.Logic.signal, u))
      impl.Logic.per_signal
  in
  build b ~outputs

(* Re-run the constructor rewrites over an existing graph and compact the
   store: one ascending pass maps every live node through the smart
   constructors (children first, so the map is always defined).  The
   local rules are closed under one bottom-up pass, so this is a
   fixpoint; on a freshly built netlist it only drops dead slots. *)
let simplify t =
  let b = Builder.create ~nsig:t.nsig in
  let map = Array.make (Array.length t.nodes) (-1) in
  Array.iteri
    (fun u nd ->
      if t.live.(u) then
        map.(u) <-
          (match nd with
          | Input i -> Builder.input b i
          | Const v -> Builder.const b v
          | Inv a -> Builder.inv b map.(a)
          | And2 (a, c) -> Builder.and2 b map.(a) map.(c)
          | Or2 (a, c) -> Builder.or2 b map.(a) map.(c)
          | Celem { set; reset; sig_ } ->
              Builder.celem b ~set:map.(set) ~reset:map.(reset) ~sig_))
    t.nodes;
  build b
    ~outputs:(List.map (fun (s, u) -> (s, map.(u))) (Array.to_list t.outs))

(* ------------------------------------------------------------------ *)
(* Simulation.                                                         *)

let eval t ~current =
  let n = Array.length t.nodes in
  let v = Array.make n false in
  for u = 0 to n - 1 do
    if t.live.(u) then
      v.(u) <-
        (match t.nodes.(u) with
        | Input i -> current i
        | Const c -> c
        | Inv a -> not v.(a)
        | And2 (a, c) -> v.(a) && v.(c)
        | Or2 (a, c) -> v.(a) || v.(c)
        | Celem { set; reset; sig_ } ->
            (* state-holding: the feedback reads the CURRENT signal value *)
            v.(set) || (current sig_ && not v.(reset)))
  done;
  v

let next_values t ~current =
  let v = eval t ~current in
  Array.to_list (Array.map (fun (s, u) -> (s, v.(u))) t.outs)

(* ------------------------------------------------------------------ *)
(* Emission.                                                           *)

(* Net naming shared by both emitters: an input node is its signal's
   name; a node whose only uses are driving output signals takes the
   lowest such signal's name; anything else is "n<uid>".  Output signals
   whose name is not their driver's name become explicit aliases.

   A node that drives a signal AND is referenced by other cones is
   deliberately NOT named after the signal: in the one-pass simulation
   convention a signal-named net read means the signal's CURRENT value
   (the Input node), while an interior reference means the driver
   function's value — giving both the same name would make the text
   ambiguous.  Keeping referenced drivers as "n<uid>" plus an alias
   makes a single in-order pass over either emission reproduce
   {!eval} exactly. *)
type naming = {
  nm : uid -> string;
  aliases : (string * string) list;  (* (signal name, driver net), sig order *)
  fresh : uid list;  (* live non-input nodes named "n<uid>" *)
}

let naming ~names t =
  let outdeg = Hashtbl.create 16 in
  Array.iter
    (fun (_, u) ->
      Hashtbl.replace outdeg u
        (1 + try Hashtbl.find outdeg u with Not_found -> 0))
    t.outs;
  let primary = Hashtbl.create 16 in
  Array.iter
    (fun (s, u) ->
      match t.nodes.(u) with
      | Input _ -> ()
      | _ ->
          if
            t.fan.(u) = Hashtbl.find outdeg u && not (Hashtbl.mem primary u)
          then Hashtbl.replace primary u s)
    t.outs;
  let nm u =
    match t.nodes.(u) with
    | Input i -> names.(i)
    | _ -> (
        match Hashtbl.find_opt primary u with
        | Some s -> names.(s)
        | None -> Printf.sprintf "n%d" u)
  in
  let aliases =
    Array.to_list t.outs
    |> List.filter_map (fun (s, u) ->
           if nm u = names.(s) then None else Some (names.(s), nm u))
  in
  let fresh = ref [] in
  iter t (fun u nd ->
      match nd with
      | Input _ -> ()
      | _ -> if not (Hashtbl.mem primary u) then fresh := u :: !fresh);
  { nm; aliases; fresh = List.rev !fresh }

let to_verilog ?(module_name = "circuit") ~names ~inputs ~outs ~internals t =
  let { nm; aliases; fresh } = naming ~names t in
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let name i = names.(i) in
  add "module %s (%s);\n" module_name
    (String.concat ", " (List.map name inputs @ List.map name outs));
  List.iter (fun i -> add "  input %s;\n" (name i)) inputs;
  List.iter (fun i -> add "  output %s;\n" (name i)) outs;
  List.iter (fun i -> add "  wire %s;\n" (name i)) internals;
  List.iter (fun u -> add "  wire %s;\n" (nm u)) fresh;
  iter t (fun u nd ->
      match nd with
      | Input _ -> ()
      | Const c -> add "  assign %s = 1'b%d;\n" (nm u) (if c then 1 else 0)
      | Inv a -> add "  assign %s = ~%s;\n" (nm u) (nm a)
      | And2 (a, c) -> add "  assign %s = %s & %s;\n" (nm u) (nm a) (nm c)
      | Or2 (a, c) -> add "  assign %s = %s | %s;\n" (nm u) (nm a) (nm c)
      | Celem { set; reset; sig_ } ->
          (* generalized C-element as combinational feedback *)
          add "  assign %s = %s | (%s & ~%s);\n" (nm u) (nm set) names.(sig_)
            (nm reset));
  List.iter (fun (s, d) -> add "  assign %s = %s;\n" s d) aliases;
  add "endmodule\n";
  Buffer.contents buf

let to_blif ?(model_name = "circuit") ~names ~inputs ~outs ~internals:_ t =
  let { nm; aliases; fresh = _ } = naming ~names t in
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add ".model %s\n" model_name;
  add ".inputs %s\n" (String.concat " " (List.map (fun i -> names.(i)) inputs));
  add ".outputs %s\n" (String.concat " " (List.map (fun i -> names.(i)) outs));
  iter t (fun u nd ->
      match nd with
      | Input _ -> ()
      | Const true -> add ".names %s\n1\n" (nm u)
      | Const false -> add ".names %s\n" (nm u)
      | Inv a -> add ".names %s %s\n0 1\n" (nm a) (nm u)
      | And2 (a, c) -> add ".names %s %s %s\n11 1\n" (nm a) (nm c) (nm u)
      | Or2 (a, c) ->
          add ".names %s %s %s\n1- 1\n-1 1\n" (nm a) (nm c) (nm u)
      | Celem { set; reset; sig_ } ->
          (* out' = set | (out & !reset): feedback row reads the output *)
          add ".names %s %s %s %s\n1-- 1\n-01 1\n" (nm set) (nm reset)
            names.(sig_) (nm u));
  List.iter (fun (s, d) -> add ".names %s %s\n1 1\n" d s) aliases;
  add ".end\n";
  Buffer.contents buf
