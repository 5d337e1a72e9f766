type site = After of Petri.trans | On_arc of Petri.place

let pp_site stg ppf = function
  | After t -> Format.fprintf ppf "after %s" (Stg.trans_display stg t)
  | On_arc p ->
      let net = stg.Stg.net in
      Format.fprintf ppf "on %s->%s"
        (Stg.trans_display stg net.Petri.producers.(p).(0))
        (Stg.trans_display stg net.Petri.consumers.(p).(0))

let site_display stg s = Format.asprintf "%a" (pp_site stg) s

let check_site stg = function
  | After t ->
      let net = stg.Stg.net in
      Array.iter
        (fun p ->
          Array.iter
            (fun t' ->
              if Stg.is_input_trans stg t' then
                invalid_arg
                  (Printf.sprintf "Csc: site after %s delays input %s"
                     (Stg.trans_display stg t)
                     (Stg.trans_display stg t')))
            net.Petri.consumers.(p))
        net.Petri.post.(t)
  | On_arc p ->
      let net = stg.Stg.net in
      if
        Array.length net.Petri.producers.(p) <> 1
        || Array.length net.Petri.consumers.(p) <> 1
      then
        invalid_arg
          (Printf.sprintf "Csc: place %s is not a 1-in/1-out arc"
             (Petri.place_name net p));
      if Stg.is_input_trans stg net.Petri.consumers.(p).(0) then
        invalid_arg
          (Printf.sprintf "Csc: site on place %s delays an input"
             (Petri.place_name net p))

let sites stg =
  let net = stg.Stg.net in
  let ok f x = match f x with () -> true | exception Invalid_argument _ -> false in
  let afters =
    List.init (Petri.n_trans net) (fun t -> After t)
    |> List.filter (ok (check_site stg))
  in
  let arcs =
    List.init (Petri.n_places net) (fun p -> On_arc p)
    |> List.filter (ok (check_site stg))
  in
  afters @ arcs

(* The checks [insert_signal] makes before it builds anything. *)
let check_pair stg ~set ~reset =
  if set = reset then invalid_arg "Csc.insert_signal: coinciding sites";
  check_site stg set;
  check_site stg reset

let validate stg ~set ~reset ~name =
  (try
     ignore (Stg.signal_of_name stg name);
     invalid_arg (Printf.sprintf "Csc.insert_signal: signal %s exists" name)
   with Not_found -> ());
  check_pair stg ~set ~reset

(* One inserted edge, read off its site: [After t] takes the tokens [t]
   puts into [post(t)], [On_arc p] the one [p]'s producer puts into [p];
   they wait in the edge's place [q] until it fires, and the edge then
   puts them where they were going.  An [On_arc] site whose producer is
   the other site's [After] transition leaves its edge with no place at
   all: free, enabled in every state. *)
type edge = {
  producer : Petri.trans;  (** marks [q]; -1 for a free edge *)
  held : Petri.place array;  (** the places a pending [q] holds back *)
}

let edge net site ~other =
  match (site, other) with
  | After t, _ -> { producer = t; held = net.Petri.post.(t) }
  | On_arc p, After t when net.Petri.producers.(p).(0) = t ->
      { producer = -1; held = [||] }
  | On_arc p, (After _ | On_arc _) ->
      { producer = net.Petri.producers.(p).(0); held = [| p |] }

(* The edges [c+] and [c-] insert. *)
let edges net ~set ~reset =
  (edge net set ~other:reset, edge net reset ~other:set)

(* [a] less the members of [drop], then [x]: still ascending, since [x]
   is a new id, above every old one. *)
let replace a ~drop x =
  Array.append
    (Array.of_list
       (List.filter (fun v -> not (Array.mem v drop)) (Array.to_list a)))
    [| x |]

(* The refined net shares every array of [stg]'s net that the insertion
   leaves alone.  The inserted places are numbered after the old ones by
   producer, then by the place they hold back, and [c+], [c-] after the
   old transitions; signals keep their order with [c] last, an internal
   signal after the internal ones (see [Stg.t]). *)
let insert_signal stg ~set ~reset ~name =
  validate stg ~set ~reset ~name;
  let net = stg.Stg.net in
  let np = Petri.n_places net and nt = Petri.n_trans net in
  let q_name = function
    | After t -> Printf.sprintf "q_%s_%s" name (Petri.trans_name net t)
    | On_arc p -> Printf.sprintf "q_%s_%s" name (Petri.place_name net p)
  in
  let plus, minus = edges net ~set ~reset in
  (* the placed edges in [q] id order, each with its transition and its
     [q]'s name *)
  let placed =
    List.filter
      (fun (e, _, _) -> e.producer >= 0)
      [ (plus, nt, q_name set); (minus, nt + 1, q_name reset) ]
    |> List.sort (fun (a, _, _) (b, _, _) ->
           compare (a.producer, a.held) (b.producer, b.held))
    |> Array.of_list
  in
  let pre = Array.append net.Petri.pre [| [||]; [||] |] in
  let post = Array.append net.Petri.post [| plus.held; minus.held |] in
  let producers = Array.copy net.Petri.producers in
  (* [t -> q -> c± -> held]: [q] takes what [t] put into the held places *)
  Array.iteri
    (fun i (e, te, _) ->
      pre.(te) <- [| np + i |];
      post.(e.producer) <- replace post.(e.producer) ~drop:e.held (np + i))
    placed;
  (* the held places' producer becomes [c±], [c+] first so that a place
     both feed lists them in order *)
  List.iter
    (fun (e, te) ->
      Array.iter
        (fun p ->
          producers.(p) <- replace producers.(p) ~drop:[| e.producer |] te)
        e.held)
    [ (plus, nt); (minus, nt + 1) ];
  let added f = Array.map f placed in
  let net' =
    Petri.of_arrays
      ~place_names:
        (Array.append net.Petri.place_names (added (fun (_, _, q) -> q)))
      ~trans_names:
        (Array.append net.Petri.trans_names [| name ^ "+"; name ^ "-" |])
      ~pre ~post
      ~producers:
        (Array.append producers (added (fun (e, _, _) -> [| e.producer |])))
      ~consumers:
        (Array.append net.Petri.consumers (added (fun (_, te, _) -> [| te |])))
      ~initial:(Array.append net.Petri.initial (added (fun _ -> 0)))
  in
  let c = Stg.n_signals stg in
  {
    Stg.net = net';
    signals =
      Array.append stg.Stg.signals
        [| { Stg.Signal.name; kind = Stg.Signal.Internal } |];
    labels =
      Array.append stg.Stg.labels
        [| Stg.Edge (c, Stg.Plus); Stg.Edge (c, Stg.Minus) |];
  }

(* ------------------------------------------------------------------ *)
(* Child state graphs by product *)

(* The insertion only delays events (see csc.mli), so the SG of
   [insert_signal (Sg.stg sg) ...] is the product of [sg] with the new
   signal's pending-token cycle: a child state is a parent state, the new
   signal's parity and which of the two inserted places [q+]/[q-] (the
   presets of [c+]/[c-]) hold a token.  Firing every pending [c±] maps a
   child marking back to the parent's, which makes the correspondence a
   bijection with [of_stg]'s (marking, parity) states.  States are
   explored in [of_stg]'s order — a parent row by ascending transition id
   (the order [of_stg] built it in), then [c+], then [c-] — so the child
   is numbered, coded and arc-ordered exactly as [of_stg] would build it.

   The exploration reads the parent only: no child net, marking or
   firing.  An original transition fires where its parent arc exists and
   the parent marking, less the tokens a pending [q] holds back, still
   marks its preset.  {!count} judges the explored child, and {!build}
   turns it into an SG only when it is wanted.  [Fallback] covers what
   the triple cannot represent. *)

exception Fallback
exception Over_budget
exception Conflict of Stg.dir

(* Every signal of [sg] has a +/- arc: then so does every original signal
   of a child (each parent arc survives in the child), its inferred initial
   value is the parent's, and only the new signal can be left
   unconstrained. *)
let all_constrained sg =
  let stg = Sg.stg sg in
  let seen = Array.make (Stg.n_signals stg) false in
  Sg.iter_arcs sg (fun _ tr _ ->
      match Stg.label stg tr with
      | Stg.Edge (i, (Stg.Plus | Stg.Minus)) -> seen.(i) <- true
      | Stg.Edge (_, Stg.Toggle) | Stg.Dummy _ -> ());
  Array.for_all Fun.id seen

(* Controlled-label mask bits: one per controlled label of the parent,
   then [c+] and [c-]. *)
let max_labels = 60
let bit_plus = 1 lsl max_labels
let bit_minus = 1 lsl (max_labels + 1)

let is_controlled stg = function
  | Stg.Edge (i, _) -> not (Stg.Signal.is_input (Stg.signal stg i))
  | Stg.Dummy _ -> false

(* One int per distinct edge: 0 for a free edge, [1 + t] for one that
   holds back all of [post(t)] ([After t], or [On_arc p] when [post(t) =
   {p}]), [1 + nt + p] for one that holds back [p] alone, a strict part of
   its producer's postset. *)
let edge_id net e =
  if e.producer < 0 then 0
  else if
    Array.length e.held = 1 && Array.length net.Petri.post.(e.producer) > 1
  then 1 + Petri.n_trans net + e.held.(0)
  else 1 + e.producer

(* The keys of an edge pair ([c+]'s, [c-]'s): the ordered one tells it
   from its mirror, the unordered one does not. *)
let pair_keys net (ep, em) =
  let k = 1 + Petri.n_trans net + Petri.n_places net in
  let a = edge_id net ep and b = edge_id net em in
  ((a * k) + b, (min a b * k) + max a b)

(* What the candidates of a level share.  Two candidates that insert the
   same two edges build the same child but for the inserted places'
   names; two that insert them in swapped roles build isomorphic children
   (swap [c+] with [c-] and [q+] with [q-], complement [c]).  Either way
   the children agree on consistency, the state budget, the conflict
   count and speed-independence: one [judgement] per unordered edge pair.
   Only equal edges agree on the logic total (a mirror's cover of [c] is
   the complement's): one [score] per ordered pair. *)
type judgement = {
  conflicts : int;  (** as {!count} counts them, up to the parent's *)
  mutable si : bool option;  (** known once one candidate is reached *)
}

type score = {
  mutable total : int;
  mutable exact : bool;  (** [total] is the logic total, else a lower bound *)
}

(* Scratch space for one parent, reused by every candidate of a level:
   the direct-address index over [8 × parent states] keys, cleared entry
   by entry after each candidate, and the explored child — its keys, CSR
   rows and controlled-label masks, grown as children need.  [cls]
   numbers the parent's distinct codes and [lbit] maps each parent
   transition to its controlled label's bit (0 for other labels); the
   count needs both, so it runs only on a [packed] parent: at most 62
   signals and [max_labels] controlled labels.  [judged] and [scores]
   hold the verdicts of the children explored and counted on it. *)
type level = {
  sg : Sg.t;
  net : Petri.t;
  constrained : bool;
  packed : bool;
  lbit : int array;
  cls : int array;
  start : int array;  (** bucket bounds of {!count}: [2 × classes + 1] *)
  index : int array;
  touch : int array;
      (** per parent transition, set per candidate: bit 0 (1) when its
          preset has a place a pending [q+] ([q-]) holds back *)
  mutable plus : edge;  (** the edges the explored child inserts *)
  mutable minus : edge;
  mutable keys : int array;
  mutable masks : int array;
  mutable off : int array;
  mutable arc_tr : int array;
  mutable arc_dst : int array;
  mutable bucketed : int array;  (** child masks in bucket order *)
  mutable n : int;  (** explored child states *)
  mutable m : int;  (** explored child arcs *)
  mutable v0 : int;  (** initial value of the new signal *)
  judged : (int, judgement option) Hashtbl.t;
      (** by unordered edge pair; [None]: the child has no SG *)
  scores : (int, score) Hashtbl.t;  (** by ordered edge pair *)
}

let free = { producer = -1; held = [||] }

let level sg =
  let stg = Sg.stg sg in
  let n = Sg.n_states sg and nt = Petri.n_trans stg.Stg.net in
  let labels = Hashtbl.create 16 in
  let lbit =
    Array.init nt (fun t ->
        let lab = Stg.label stg t in
        if not (is_controlled stg lab) then 0
        else begin
          let i =
            match Hashtbl.find_opt labels lab with
            | Some i -> i
            | None ->
                let i = Hashtbl.length labels in
                Hashtbl.add labels lab i;
                i
          in
          if i < max_labels then 1 lsl i else 0
        end)
  in
  let packed =
    Stg.n_signals stg <= 62 && Hashtbl.length labels <= max_labels
  in
  let codes = Hashtbl.create (if packed then n else 1) in
  let cls =
    if not packed then [||]
    else
      Array.init n (fun s ->
          let code = Sg.code_bits sg s in
          match Hashtbl.find_opt codes code with
          | Some k -> k
          | None ->
              let k = Hashtbl.length codes in
              Hashtbl.add codes code k;
              k)
  in
  let cap = (2 * n) + 1 in
  {
    sg;
    net = stg.Stg.net;
    constrained = all_constrained sg;
    packed;
    lbit;
    cls;
    start = Array.make ((2 * Hashtbl.length codes) + 1) 0;
    index = Array.make (8 * n) (-1);
    touch = Array.make nt 0;
    plus = free;
    minus = free;
    keys = Array.make cap 0;
    masks = Array.make cap 0;
    off = Array.make (cap + 1) 0;
    arc_tr = Array.make (4 * cap) 0;
    arc_dst = Array.make (4 * cap) 0;
    bucketed = Array.make cap 0;
    n = 0;
    m = 0;
    v0 = -1;
    judged = Hashtbl.create 64;
    scores = Hashtbl.create 64;
  }

let grow a used len =
  let g = Array.make len 0 in
  Array.blit a 0 g 0 used;
  g

(* The child state of [key], added on first sight. *)
let target lv key =
  let j = lv.index.(key) in
  if j >= 0 then j
  else begin
    let j = lv.n in
    if j = Array.length lv.keys then begin
      lv.keys <- grow lv.keys j (2 * j);
      lv.masks <- grow lv.masks j (2 * j);
      lv.off <- grow lv.off j ((2 * j) + 1);
      lv.bucketed <- Array.make (2 * j) 0
    end;
    lv.keys.(j) <- key;
    lv.index.(key) <- j;
    lv.n <- j + 1;
    if j + 1 > Sg.default_budget then raise Over_budget;
    j
  end

let push lv tr j =
  let m = lv.m in
  if m = Array.length lv.arc_tr then begin
    lv.arc_tr <- grow lv.arc_tr m (2 * m);
    lv.arc_dst <- grow lv.arc_dst m (2 * m)
  end;
  lv.arc_tr.(m) <- tr;
  lv.arc_dst.(m) <- j;
  lv.m <- m + 1

(* The exploration below is top-level loops over the level record and the
   parent's arc indices: no closure or reference cell is allocated per
   child state or arc. *)

(* Set [bit] in [touch] of every consumer of a place in [held], or with
   [clear] reset it. *)
let mark lv (held : Petri.place array) bit ~clear =
  for i = 0 to Array.length held - 1 do
    let consumers = lv.net.Petri.consumers.(held.(i)) in
    for j = 0 to Array.length consumers - 1 do
      let t = consumers.(j) in
      lv.touch.(t) <- (if clear then 0 else lv.touch.(t) lor bit)
    done
  done

let rec mem (p : int) (a : int array) i =
  i < Array.length a && (a.(i) = p || mem p a (i + 1))

(* Tokens of [p] that the pending [q]s in [pend] hold back. *)
let held lv pend p =
  (if pend land 1 <> 0 && mem p lv.plus.held 0 then 1 else 0)
  + if pend land 2 <> 0 && mem p lv.minus.held 0 then 1 else 0

(* Does every place of [pre] from [i] on keep a token of marking [m] once
   the pending [q]s hold theirs back? *)
let rec keeps lv m pend (pre : Petri.place array) i =
  i = Array.length pre
  || (m.(pre.(i)) > held lv pend pre.(i) && keeps lv m pend pre (i + 1))

(* [tr]'s parent arc leaves [s]; does it fire with the [q]s of [x]
   pending? *)
let fires lv s x tr =
  let pend = x land lv.touch.(tr) in
  pend = 0 || keeps lv (Sg.marking lv.sg s) pend lv.net.Petri.pre.(tr) 0

(* Child state [i] fires the new signal's edge [tr] ([want] 0 for [c+], 1
   for [c-]) into [key].  The initial value of the new signal is inferred
   from its first edge as [of_stg] does; its first contradicting edge
   ends the exploration. *)
let fire_new lv i key tr want =
  push lv tr (target lv key);
  let v = want lxor ((lv.keys.(i) lsr 2) land 1) in
  if lv.v0 = -1 then lv.v0 <- v
  else if lv.v0 <> v then
    raise (Conflict (if want = 0 then Stg.Plus else Stg.Minus))

(* The row of child state [i]: its parent row in arc order, then [c+],
   then [c-]. *)
let expand lv i =
  let sg = lv.sg and key = lv.keys.(i) in
  let s = key lsr 3 and x = key land 7 in
  lv.off.(i) <- lv.m;
  let mask = ref 0 in
  for k = Sg.first_arc sg s to Sg.first_arc sg (s + 1) - 1 do
    let tr = Sg.arc_trans sg k in
    if fires lv s x tr then begin
      let add =
        (if tr = lv.plus.producer then 1 else 0)
        lor if tr = lv.minus.producer then 2 else 0
      in
      if x land add <> 0 then raise Fallback (* a second token in a q *);
      push lv tr (target lv ((8 * Sg.arc_target sg k) + (x lor add)));
      mask := !mask lor lv.lbit.(tr)
    end
  done;
  (* a free edge fires everywhere, a placed one where its [q] is marked
     (and empties it) *)
  let t_plus = Petri.n_trans lv.net in
  if lv.plus.producer < 0 || x land 1 <> 0 then begin
    fire_new lv i (key lxor if lv.plus.producer < 0 then 4 else 5) t_plus 0;
    mask := !mask lor bit_plus
  end;
  if lv.minus.producer < 0 || x land 2 <> 0 then begin
    fire_new lv i
      (key lxor if lv.minus.producer < 0 then 4 else 6)
      (t_plus + 1) 1;
    mask := !mask lor bit_minus
  end;
  lv.masks.(i) <- !mask

let run lv =
  ignore (target lv (8 * Sg.initial lv.sg));
  let i = ref 0 in
  while !i < lv.n do
    expand lv !i;
    incr i
  done;
  lv.off.(lv.n) <- lv.m;
  if lv.v0 = -1 then raise Fallback (* [of_stg] warns about it *)

let clear lv =
  for j = 0 to lv.n - 1 do
    lv.index.(lv.keys.(j)) <- -1
  done;
  mark lv lv.plus.held 1 ~clear:true;
  mark lv lv.minus.held 2 ~clear:true

(* Explore the child that inserts [plus] as [c+] and [minus] as [c-] into
   [lv]: keys, rows, masks and [v0].  It reads nothing of the sites but
   these two edges.
   @raise Fallback, Over_budget or Conflict (the new signal's edge whose
   inferred initial value contradicts the first). *)
let explore lv plus minus =
  if not lv.constrained then raise Fallback;
  lv.plus <- plus;
  lv.minus <- minus;
  mark lv plus.held 1 ~clear:false;
  mark lv minus.held 2 ~clear:false;
  lv.n <- 0;
  lv.m <- 0;
  lv.v0 <- -1;
  match run lv with
  | () -> clear lv
  | exception e ->
      clear lv;
      raise e

(* The bucket of child state [i]: its parent code class and new-signal
   parity. *)
let bucket lv i =
  let key = lv.keys.(i) in
  (2 * lv.cls.(key lsr 3)) + ((key lsr 2) land 1)

(* [Sg.csc_conflict_count] of the explored child, on a [packed] parent.
   A child's code is its parent state's code plus the new bit, so states
   with equal codes share a bucket (parent code class, parity of the new
   signal), filled by a counting sort; inside a bucket, every pair with
   different controlled-label masks is a conflict.  The count stops once
   it exceeds [limit], so it is exact up to [limit]. *)
let count lv ~limit =
  let n = lv.n and start = lv.start in
  let nb = Array.length start - 1 in
  Array.fill start 0 (nb + 1) 0;
  for i = 0 to n - 1 do
    let b = bucket lv i + 1 in
    start.(b) <- start.(b) + 1
  done;
  for b = 1 to nb do
    start.(b) <- start.(b) + start.(b - 1)
  done;
  let bucketed = lv.bucketed in
  (* placing a state advances its bucket's start: afterwards [start.(b)]
     is where bucket [b] ends *)
  for i = 0 to n - 1 do
    let b = bucket lv i in
    bucketed.(start.(b)) <- lv.masks.(i);
    start.(b) <- start.(b) + 1
  done;
  let c = ref 0 and lo = ref 0 and b = ref 0 in
  while !b < nb && !c <= limit do
    let hi = start.(!b) in
    for a = !lo to hi - 2 do
      let mask = bucketed.(a) in
      for a' = a + 1 to hi - 1 do
        if bucketed.(a') <> mask then incr c
      done
    done;
    lo := hi;
    incr b
  done;
  !c

(* Move the tokens [e] holds back in marking [m] into its place [q]. *)
let hold m (e : edge) q =
  for i = 0 to Array.length e.held - 1 do
    m.(e.held.(i)) <- m.(e.held.(i)) - 1
  done;
  m.(q) <- 1

(* The marking of the child state of [key]: its parent state's, with the
   tokens a pending [q] holds back moved into [q]. *)
let child_marking lv np' ~q_plus ~q_minus key =
  let m = Array.make np' 0 in
  let pm = Sg.marking lv.sg (key lsr 3) in
  Array.blit pm 0 m 0 (Array.length pm);
  if key land 1 <> 0 then hold m lv.plus q_plus;
  if key land 2 <> 0 then hold m lv.minus q_minus;
  m

(* The explored child as an SG: its STG from [insert_signal], its
   markings from the parent's with the held tokens moved into [q±], its
   codes the parent's words plus [c]'s bit, its rows the explored CSR. *)
let build lv ~set ~reset ~name =
  let sg = lv.sg in
  let stg = Sg.stg sg in
  let stg' = insert_signal stg ~set ~reset ~name in
  let net' = stg'.Stg.net in
  let t_plus = Petri.n_trans lv.net in
  let q_of t = match net'.Petri.pre.(t) with [| q |] -> q | _ -> -1 in
  let q_plus = q_of t_plus and q_minus = q_of (t_plus + 1) in
  let np' = Petri.n_places net' and n = lv.n in
  let markings =
    Array.init n (fun i ->
        child_marking lv np' ~q_plus ~q_minus lv.keys.(i))
  in
  (* [c] is the last signal: bit [c mod 63] of word [c / 63] *)
  let c = Stg.n_signals stg in
  let w = Sg.code_words c and w' = Sg.code_words (c + 1) in
  let codes = Array.make (n * w') 0 in
  for i = 0 to n - 1 do
    let key = lv.keys.(i) in
    for j = 0 to w - 1 do
      codes.((i * w') + j) <- Sg.code_word sg (key lsr 3) j
    done;
    let j = (i * w') + (c / 63) and v = lv.v0 lxor ((key lsr 2) land 1) in
    codes.(j) <- codes.(j) lor (v lsl (c mod 63))
  done;
  Sg.of_arrays stg' ~markings ~codes
    ~off:(Array.sub lv.off 0 (n + 1))
    ~arc_tr:(Array.sub lv.arc_tr 0 lv.m)
    ~arc_dst:(Array.sub lv.arc_dst 0 lv.m)
    ~initial:0

let product sg ~set ~reset ~name =
  validate (Sg.stg sg) ~set ~reset ~name;
  let lv = level sg in
  let plus, minus = edges lv.net ~set ~reset in
  match explore lv plus minus with
  | () -> Some (Ok (build lv ~set ~reset ~name))
  | exception Fallback -> None
  | exception Over_budget -> Some (Error (Sg.Unbounded Sg.default_budget))
  | exception Conflict dir ->
      let via = name ^ if dir = Stg.Plus then "+" else "-" in
      Some
        (Error
           (Sg.Inconsistent
              (Printf.sprintf "signal %s: conflicting initial value via %s"
                 name via)))

let product_conflicts sg ~set ~reset =
  check_pair (Sg.stg sg) ~set ~reset;
  let lv = level sg in
  if not lv.packed then None
  else
    let plus, minus = edges lv.net ~set ~reset in
    match explore lv plus minus with
    | () -> Some (count lv ~limit:max_int)
    | exception (Fallback | Over_budget | Conflict _) -> None

type resolution = {
  stg : Stg.t;
  sg : Sg.t;
  inserted : (string * string * string) list;
}

exception Out_of_work

let c_resolve = Obs.Counter.make "csc.resolve.calls"
let c_insertions = Obs.Counter.make "csc.insertions.tried"
let c_inserted = Obs.Counter.make "csc.signals.inserted"
let c_sg_error = Obs.Counter.make "csc.reject.sg_error"
let c_not_si = Obs.Counter.make "csc.reject.not_si"
let c_more_conflicts = Obs.Counter.make "csc.reject.more_conflicts"
let c_not_final = Obs.Counter.make "csc.reject.not_final"
let c_accepted = Obs.Counter.make "csc.accepted"
let c_unexamined = Obs.Counter.make "csc.unexamined"
let c_scored = Obs.Counter.make "csc.scored"
let c_product = Obs.Counter.make "csc.child.product"
let c_fallback = Obs.Counter.make "csc.child.fallback"
let c_shared = Obs.Counter.make "csc.child.shared"
let c_input_separated = Obs.Counter.make "csc.fail.input_separated"

let reject counter =
  Obs.Counter.incr counter;
  None

type candidate = {
  set : site;
  reset : site;
  judgement : judgement;
  score : score;
  mutable sg : Sg.t option;  (** its child, once built *)
  mutable state : state;
}

and state =
  | Unreached  (** judged on the parent only *)
  | Ranked  (** speed-independent; [score] ranks it *)
  | Gone  (** not speed-independent, or handed to the search *)

(* Judge one candidate insertion on the parent ([lv]), cheapest check
   first: its conflict count may not exceed the parent's [conflicts], and
   the last signal ([final]) must leave none.  Plateau steps (an equal
   count) are kept: a signal can trade the current conflict for a new one
   that a further signal resolves.  A child explored by product on a
   [packed] parent is judged by the first candidate of its unordered edge
   pair, which the later ones share ([csc.child.shared]), and is kept
   unbuilt.  A fallback child, or one of a parent too wide to count on,
   is built for its count and keeps verdicts of its own. *)
let judge (lv : level) ~final conflicts ~set ~reset ~name =
  let ((plus, minus) as es) = edges lv.net ~set ~reset in
  let ordered, unordered = pair_keys lv.net es in
  let pass ?sg judgement score =
    if judgement.conflicts > conflicts then reject c_more_conflicts
    else if final && judgement.conflicts > 0 then reject c_not_final
    else Some { set; reset; judgement; score = score (); sg; state = Unreached }
  in
  let built sg =
    pass ~sg
      { conflicts = Sg.csc_conflict_count sg; si = None }
      (fun () -> { total = 0; exact = false })
  in
  let shared = function
    | None -> reject c_sg_error
    | Some judgement ->
        pass judgement (fun () ->
            match Hashtbl.find_opt lv.scores ordered with
            | Some score -> score
            | None ->
                let score = { total = 0; exact = false } in
                Hashtbl.add lv.scores ordered score;
                score)
  in
  match Hashtbl.find_opt lv.judged unordered with
  | Some verdict ->
      Obs.Counter.incr c_shared;
      shared verdict
  | None -> (
      match explore lv plus minus with
      | () ->
          Obs.Counter.incr c_product;
          if lv.packed then begin
            let verdict =
              Some { conflicts = count lv ~limit:conflicts; si = None }
            in
            Hashtbl.add lv.judged unordered verdict;
            shared verdict
          end
          else built (build lv ~set ~reset ~name)
      | exception (Over_budget | Conflict _) ->
          Obs.Counter.incr c_product;
          if lv.packed then Hashtbl.add lv.judged unordered None;
          reject c_sg_error
      | exception Fallback -> (
          Obs.Counter.incr c_fallback;
          match Sg.of_stg (insert_signal (Sg.stg lv.sg) ~set ~reset ~name) with
          | Error _ -> reject c_sg_error
          | Ok sg -> built sg))

(* The candidate's child, built on first use: re-explored into the level
   scratch, then built. *)
let child (lv : level) ~name cand =
  match cand.sg with
  | Some sg -> sg
  | None ->
      let { set; reset; _ } = cand in
      let plus, minus = edges lv.net ~set ~reset in
      explore lv plus minus;
      let sg = build lv ~set ~reset ~name in
      cand.sg <- Some sg;
      sg

(* SI-check a candidate the walk reaches, once per judgement: the child
   is built for it only when no candidate sharing the judgement was
   reached before. *)
let reach lv ~name cand =
  match cand.state with
  | Unreached ->
      let si =
        match cand.judgement.si with
        | Some si -> si
        | None ->
            let si = Sg.is_speed_independent (child lv ~name cand) in
            cand.judgement.si <- Some si;
            si
      in
      if si then begin
        Obs.Counter.incr c_accepted;
        cand.state <- Ranked
      end
      else begin
        Obs.Counter.incr c_not_si;
        cand.state <- Gone;
        cand.sg <- None
      end
  | Ranked | Gone -> ()

(* The best candidate not yet handed out, by (conflicts, literals) with
   ties in list order; [None] when none is left.  [cands] is sorted by
   conflicts, stably, so list order holds within a count.  Only the
   smallest count with a candidate left is reached and scored, each
   candidate against the best total found before it: a later candidate
   must be strictly cheaper to win.  A score cut off by
   {!Logic.evaluate_bounded} leaves a lower bound, and the candidate is
   scored again when a later call's bound is above it.  Candidates that
   share a score share what any of them learnt. *)
let next lv ~name cands =
  let n = Array.length cands in
  let conflicts i = cands.(i).judgement.conflicts in
  let rec group first =
    if first >= n then None
    else begin
      let stop = ref first in
      while !stop < n && conflicts !stop = conflicts first do
        incr stop
      done;
      let best = ref None and bound = ref max_int in
      for i = first to !stop - 1 do
        let cand = cands.(i) in
        reach lv ~name cand;
        let r = cand.score in
        match cand.state with
        | Ranked when r.total < !bound ->
            if not r.exact then begin
              Obs.Counter.incr c_scored;
              match
                Logic.evaluate_bounded ~bound:!bound (child lv ~name cand)
              with
              | Some t ->
                  r.total <- t;
                  r.exact <- true
              | None -> r.total <- !bound
            end;
            if r.exact then begin
              best := Some cand;
              bound := r.total
            end
        | Unreached | Ranked | Gone -> ()
      done;
      match !best with
      | None -> group !stop
      | Some cand ->
          let sg = child lv ~name cand in
          cand.state <- Gone;
          cand.sg <- None;
          Some (sg, cand.set, cand.reset)
    end
  in
  group 0

let unexamined cands =
  Array.fold_left
    (fun k cand ->
      match cand.state with Unreached -> k + 1 | Ranked | Gone -> k)
    0 cands

(* Backtracking descends into the best few candidates only. *)
let n_best = 5

(* [csc<k>] for the k-th inserted signal, or the first free [csc<j>],
   [j >= k], when the STG already has a signal of that name. *)
let fresh_name stg k =
  let rec go j =
    let name = Printf.sprintf "csc%d" j in
    match Stg.signal_of_name stg name with
    | _ -> go (j + 1)
    | exception Not_found -> name
  in
  go k

let input_separated sg =
  let stg = Sg.stg sg in
  let n = Sg.n_states sg in
  let fwd = Array.make n (-1) and bwd = Array.make n (-1) in
  let queue = Array.make n 0 in
  (* stamp [a] on every state an input-only path along [iter] joins it to *)
  let sweep stamp iter a =
    stamp.(a) <- a;
    queue.(0) <- a;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let s = queue.(!head) in
      incr head;
      iter sg s (fun tr s' ->
          if stamp.(s') <> a && Stg.is_input_trans stg tr then begin
            stamp.(s') <- a;
            queue.(!tail) <- s';
            incr tail
          end)
    done
  in
  let last = ref (-1) in
  List.find_opt
    (fun (a, b) ->
      if a <> !last then begin
        last := a;
        sweep fwd Sg.iter_succ a;
        sweep bwd Sg.iter_pred a
      end;
      fwd.(b) = a || bwd.(b) = a)
    (Sg.csc_conflicts sg)

let resolve ?(max_signals = 6) ?(work = 20_000) sg0 =
  Obs.Counter.incr c_resolve;
  Obs.span "csc.resolve" @@ fun () ->
  (* [work] bounds the total number of candidate insertions evaluated.  It
     is only a budget: specifications that no insertion can resolve
     (input-separated conflicts, like the paper's Fig. 1) are turned away
     before the search. *)
  let work_left = ref work in
  let rec solve stg sg depth inserted =
    let conflicts = Sg.csc_conflict_count sg in
    if conflicts = 0 then Ok { stg; sg; inserted = List.rev inserted }
    else if depth = 0 then Error "signal budget exhausted"
    else begin
      let name = fresh_name stg (List.length inserted) in
      let all_sites = sites stg in
      (* A level enumerates every pair before it recurses, so one that
         would run out of work fails before evaluating any. *)
      let ns = List.length all_sites in
      let pairs = ns * (ns - 1) in
      if !work_left < pairs then raise Out_of_work;
      work_left := !work_left - pairs;
      let lv = level sg in
      let passed = ref [] in
      List.iter
        (fun set ->
          List.iter
            (fun reset ->
              if set <> reset then begin
                Obs.Counter.incr c_insertions;
                match
                  judge lv ~final:(depth = 1) conflicts ~set ~reset ~name
                with
                | Some cand -> passed := cand :: !passed
                | None -> ()
              end)
            all_sites)
        all_sites;
      let cands =
        Array.of_list
          (List.stable_sort
             (fun a b ->
               Int.compare a.judgement.conflicts b.judgement.conflicts)
             !passed)
      in
      let rec try_best k =
        if k = n_best then Error "no valid insertion found"
        else
          match next lv ~name cands with
          | None -> Error "no valid insertion found"
          | Some (sg', set, reset) -> (
              let step = (name, site_display stg set, site_display stg reset) in
              match solve (Sg.stg sg') sg' (depth - 1) (step :: inserted) with
              | Ok r -> Ok r
              | Error _ -> try_best (k + 1))
      in
      Fun.protect
        ~finally:(fun () -> Obs.Counter.add c_unexamined (unexamined cands))
        (fun () -> try_best 0)
    end
  in
  let separated =
    if Sg.csc_conflict_count sg0 = 0 then None else input_separated sg0
  in
  match separated with
  | Some (s, _) ->
      Obs.Counter.incr c_input_separated;
      Error
        (Printf.sprintf
           "CSC conflict at code %s is separated only by input events"
           (Sg.code sg0 s))
  | None -> (
      match solve (Sg.stg sg0) sg0 max_signals [] with
      | Ok r as result ->
          Obs.Counter.add c_inserted (List.length r.inserted);
          result
      | Error _ as result -> result
      | exception Out_of_work -> Error "insertion work budget exhausted")
