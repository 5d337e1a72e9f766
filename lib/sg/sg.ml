type state = int

(* Packed representation (see DESIGN.md, "Packed state-graph core"):
   codes is one flat word vector, [wps] words per state, 63 bits per word,
   bit [sigid mod 63] of word [s*wps + sigid/63] = value of signal [sigid]
   in state [s].  Arcs are compressed sparse rows: the outgoing arcs of
   state [s] are the index range [off.(s) .. off.(s+1)-1] of the parallel
   arrays [arc_tr] (transition ids), [arc_dst] (target states) and
   [arc_root] (the arc's index in the root of its filter lineage).  A [t]
   is immutable after construction; the memoized analyses below are sound
   because no function mutates the graph arrays. *)

let bits_per_word = 63
let code_words nsig = max 1 ((nsig + bits_per_word - 1) / bits_per_word)

type conc_rel = {
  conc_labels : Stg.label array;
  conc_idx : (Stg.label, int) Hashtbl.t;
  conc_mat : Bytes.t;  (** row-major nlab x nlab, ['\001'] = concurrent *)
}

(* Bitmask view of the enabled-label relation, for the per-candidate
   validity checks in the search inner loop.  Each distinct label of the
   graph gets one bit: [em_state.(s)] is the enabled set of state [s],
   [em_ctl] the controlled (output/internal) labels, [em_tr.(tr)] the bit
   index of transition [tr]'s label (only meaningful for transitions that
   appear on some arc).  A graph derived by [filter_arcs] may keep its
   source's numbering, bits of labels it lost included: readers only test
   membership, equality and popcount, which no numbering changes.
   Only available when the graph has at most [bits_per_word - 1]
   distinct labels; callers fall back to the plain label-array scans
   otherwise. *)
type enmask = { em_state : int array; em_ctl : int; em_tr : int array }

type cache = {
  mutable c_pred : (int array * int array * int array) option;
      (** reverse CSR (p_off, p_tr, p_src), derived from the forward arcs
          on first backward walk *)
  mutable c_enabled : Stg.label array array option;
  mutable c_enmask : enmask option option;
      (** [Some None] = computed, too many labels for the packed path *)
  mutable c_controlled : Stg.label list option array option;
      (** per-state memo, filled lazily: only USC-conflicting states are
          ever asked for their controlled labels *)
  mutable c_ers : (Stg.label, state list) Hashtbl.t option;
  mutable c_conc : conc_rel option;
  mutable c_arc_labels : (Stg.label * Petri.trans list) list option;
  mutable c_csc_count : int option;
  mutable c_persistent : bool option;
  mutable c_excited : int array option;
      (** per state, the bitmask of signals with an enabled edge (only
          built when codes fit one word) *)
  mutable c_by_code : by_code option;
}

(* The states and ghosts of a graph grouped by packed code (codes in one
   word): group [j] has code [bc_codes.(j)] (ascending) and items
   [bc_items.(bc_start.(j) .. bc_start.(j + 1) - 1)], an item [i >= 0]
   being state [i] and [i < 0] ghost [-1 - i]. *)
and by_code = {
  bc_codes : int array;
  bc_start : int array;
  bc_items : int array;
}

let fresh_cache () =
  {
    c_pred = None;
    c_enabled = None;
    c_enmask = None;
    c_controlled = None;
    c_ers = None;
    c_conc = None;
    c_arc_labels = None;
    c_csc_count = None;
    c_persistent = None;
    c_excited = None;
    c_by_code = None;
  }

type t = {
  stg : Stg.t;
  n : int;
  nsig : int;
  wps : int;
  markings : Petri.marking array;
  codes : int array;
  off : int array;  (** n+1 entries *)
  arc_tr : int array;
  arc_dst : int array;
  arc_root : int array;
      (** index of each arc in the root of the filter lineage: the graph
          that {!of_arrays} or {!derive} made, which a chain of
          [filter_arcs] calls led here *)
  initial : state;
  unconstrained : int list;
  g_codes : int array;
      (** ghost contributions: packed codes of states pruned anywhere along
          the filter lineage, frozen at pruning time (empty unless derived
          by a pruning filter; only collected when [nsig <= 62]) *)
  g_excs : int array;
      (** excited-signal masks of the ghosts, parallel to [g_codes] *)
  g_fp : int;  (** fingerprint of the ghost sequence ({!ghost_mix}) *)
  cache : cache;
}

type error = Inconsistent of string | Unbounded of int

let pp_error ppf = function
  | Inconsistent msg -> Format.fprintf ppf "inconsistent encoding: %s" msg
  | Unbounded budget -> Format.fprintf ppf "state budget exceeded (%d)" budget

(* ------------------------------------------------------------------ *)
(* Structure accessors *)

let stg sg = sg.stg
let n_states sg = sg.n
let initial sg = sg.initial
let marking sg s = sg.markings.(s)
let states sg = List.init sg.n Fun.id
let unconstrained_signals sg = sg.unconstrained
let n_arcs sg = sg.off.(sg.n)
let out_degree sg s = sg.off.(s + 1) - sg.off.(s)

let iter_succ sg s f =
  for k = sg.off.(s) to sg.off.(s + 1) - 1 do
    f sg.arc_tr.(k) sg.arc_dst.(k)
  done

let fold_succ sg s init f =
  let acc = ref init in
  for k = sg.off.(s) to sg.off.(s + 1) - 1 do
    acc := f !acc sg.arc_tr.(k) sg.arc_dst.(k)
  done;
  !acc

let exists_succ sg s f =
  let last = sg.off.(s + 1) in
  let rec go k =
    k < last && (f sg.arc_tr.(k) sg.arc_dst.(k) || go (k + 1))
  in
  go sg.off.(s)

let iter_arcs sg f =
  for s = 0 to sg.n - 1 do
    for k = sg.off.(s) to sg.off.(s + 1) - 1 do
      f s sg.arc_tr.(k) sg.arc_dst.(k)
    done
  done

let first_arc sg s = sg.off.(s)
let arc_trans sg k = sg.arc_tr.(k)
let arc_target sg k = sg.arc_dst.(k)

(* ------------------------------------------------------------------ *)
(* Codes *)

let value sg s sigid =
  if sg.wps = 1 then (sg.codes.(s) lsr sigid) land 1
  else
    (sg.codes.((s * sg.wps) + (sigid / bits_per_word))
    lsr (sigid mod bits_per_word))
    land 1

let code sg s =
  String.init sg.nsig (fun i -> if value sg s i = 1 then '1' else '0')

let code_bits sg s =
  if sg.nsig > 62 then
    invalid_arg "Sg.code_bits: more than 62 signals";
  sg.codes.(s)

let code_word sg s w =
  if w < 0 || w >= sg.wps then invalid_arg "Sg.code_word: no such word";
  sg.codes.((s * sg.wps) + w)

(* ------------------------------------------------------------------ *)
(* Ghost contributions *)

let n_ghosts sg = Array.length sg.g_codes

let iter_ghosts sg f =
  for i = 0 to Array.length sg.g_codes - 1 do
    f sg.g_codes.(i) sg.g_excs.(i)
  done

(* The fingerprint of a ghost sequence: a fold of [ghost_mix] over its
   (code, excited-mask) pairs from [ghost_fp0], so a graph's fingerprint
   extends its source's with the pairs it pruned. *)
let ghost_fp0 = 0x1bf29ce484222325

let ghost_mix fp code exc =
  let fnv = 0x100000001b3 in
  ((((fp lxor code) * fnv) lxor exc) * fnv) land max_int

(* A ghost sequence: the pairs of [gh_codes]/[gh_excs] (shared with the
   graph they came from, never copied), then [gh_extra]'s flat
   (code, excited-mask) pairs. *)
type ghosts = {
  gh_codes : int array;
  gh_excs : int array;
  gh_extra : int array;
  gh_fp : int;
}

let ghosts sg =
  {
    gh_codes = sg.g_codes;
    gh_excs = sg.g_excs;
    gh_extra = [||];
    gh_fp = sg.g_fp;
  }

let ghosts_fingerprint g = g.gh_fp

let ghosts_equal g1 g2 =
  let words g = (2 * Array.length g.gh_codes) + Array.length g.gh_extra in
  (* word [j] of a sequence: pair [j / 2]'s code at even [j], its mask at
     odd [j] *)
  let word g j =
    let nb = Array.length g.gh_codes in
    if j < 2 * nb then
      if j land 1 = 0 then g.gh_codes.(j / 2) else g.gh_excs.(j / 2)
    else g.gh_extra.(j - (2 * nb))
  in
  let n = words g1 in
  let rec go j = j = n || (word g1 j = word g2 j && go (j + 1)) in
  g1.gh_fp = g2.gh_fp && n = words g2 && go 0

(* ------------------------------------------------------------------ *)
(* Reverse arcs *)

(* Reverse CSR, derived from the forward arcs on first use and cached.
   Most SGs built during the reduction search are evaluated (cost
   function, signature) and discarded without ever walking backwards, so
   building the index eagerly at construction was pure waste. *)
let pred sg =
  match sg.cache.c_pred with
  | Some p -> p
  | None ->
      let m = n_arcs sg in
      let p_off = Array.make (sg.n + 1) 0 in
      for k = 0 to m - 1 do
        let d = sg.arc_dst.(k) in
        p_off.(d + 1) <- p_off.(d + 1) + 1
      done;
      for i = 1 to sg.n do
        p_off.(i) <- p_off.(i) + p_off.(i - 1)
      done;
      let p_tr = Array.make m 0 and p_src = Array.make m 0 in
      let pos = Array.sub p_off 0 sg.n in
      for s = 0 to sg.n - 1 do
        for k = sg.off.(s) to sg.off.(s + 1) - 1 do
          let d = sg.arc_dst.(k) in
          let i = pos.(d) in
          p_tr.(i) <- sg.arc_tr.(k);
          p_src.(i) <- s;
          pos.(d) <- i + 1
        done
      done;
      let p = (p_off, p_tr, p_src) in
      sg.cache.c_pred <- Some p;
      p

let iter_pred sg s f =
  let p_off, p_tr, p_src = pred sg in
  for k = p_off.(s) to p_off.(s + 1) - 1 do
    f p_tr.(k) p_src.(k)
  done

(* ------------------------------------------------------------------ *)
(* Enabled labels *)

(* Per-state enabled-label arrays (deduplicated, first-seen order),
   computed once per SG. *)
let enabled_arrays sg =
  match sg.cache.c_enabled with
  | Some e -> e
  | None ->
      let e =
        Array.init sg.n (fun s ->
            let lo = sg.off.(s) in
            let deg = sg.off.(s + 1) - lo in
            (* in-place prefix dedup — state out-degrees are tiny *)
            let a =
              Array.init deg (fun j -> Stg.label sg.stg sg.arc_tr.(lo + j))
            in
            let k = ref 0 in
            Array.iter
              (fun lab ->
                let dup = ref false in
                for j = 0 to !k - 1 do
                  if a.(j) = lab then dup := true
                done;
                if not !dup then begin
                  a.(!k) <- lab;
                  incr k
                end)
              a;
            if !k = deg then a else Array.sub a 0 !k)
      in
      sg.cache.c_enabled <- Some e;
      e

let enabled_labels sg s = Array.to_list (enabled_arrays sg).(s)

let code_display sg s =
  let excited = Array.make sg.nsig false in
  iter_succ sg s (fun tr _ ->
      match Stg.label sg.stg tr with
      | Stg.Edge (sigid, _) -> excited.(sigid) <- true
      | Stg.Dummy _ -> ());
  let buf = Buffer.create (sg.nsig * 2) in
  for sigid = 0 to sg.nsig - 1 do
    Buffer.add_char buf (if value sg s sigid = 1 then '1' else '0');
    if excited.(sigid) then Buffer.add_char buf '*'
  done;
  Buffer.contents buf

let succ_by_label sg s lab =
  let acc = ref [] in
  for k = sg.off.(s + 1) - 1 downto sg.off.(s) do
    if Stg.label sg.stg sg.arc_tr.(k) = lab then acc := sg.arc_dst.(k) :: !acc
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Construction *)

(* A graph that roots its filter lineage, without ghosts: every arc is
   its own root arc. *)
let root stg ~markings ~codes ~off ~arc_tr ~arc_dst ~initial ~unconstrained =
  let nsig = Stg.n_signals stg in
  {
    stg;
    n = Array.length markings;
    nsig;
    wps = code_words nsig;
    markings;
    codes;
    off;
    arc_tr;
    arc_dst;
    arc_root = Array.init (Array.length arc_tr) Fun.id;
    initial;
    unconstrained;
    g_codes = [||];
    g_excs = [||];
    g_fp = ghost_fp0;
    cache = fresh_cache ();
  }

let of_arrays ?(unconstrained = []) stg ~markings ~codes ~off ~arc_tr
    ~arc_dst ~initial =
  let fail what = invalid_arg ("Sg.of_arrays: " ^ what) in
  let n = Array.length markings and m = Array.length arc_tr in
  let ntr = Petri.n_trans stg.Stg.net in
  if initial < 0 || initial >= n then fail "initial state out of range";
  if Array.length codes <> n * code_words (Stg.n_signals stg) then
    fail "codes do not match the states";
  if Array.length off <> n + 1 || off.(0) <> 0 || off.(n) <> m
     || Array.length arc_dst <> m
  then fail "rows do not match the arcs";
  for s = 0 to n - 1 do
    if off.(s) > off.(s + 1) then fail "rows out of order"
  done;
  for k = 0 to m - 1 do
    if arc_tr.(k) < 0 || arc_tr.(k) >= ntr then
      fail "arc transition out of range";
    if arc_dst.(k) < 0 || arc_dst.(k) >= n then fail "arc target out of range"
  done;
  (* Every state must be reachable from the initial one: the analyses
     (arc_label_instances in particular) rely on it.  [queue] holds the
     states in the order the BFS reaches them. *)
  let seen = Bytes.make n '\000' and queue = Array.make n initial in
  Bytes.set seen initial '\001';
  let head = ref 0 and reached = ref 1 in
  while !head < !reached do
    let s = queue.(!head) in
    incr head;
    for k = off.(s) to off.(s + 1) - 1 do
      let d = arc_dst.(k) in
      if Bytes.get seen d = '\000' then begin
        Bytes.set seen d '\001';
        queue.(!reached) <- d;
        incr reached
      end
    done
  done;
  if !reached < n then
    fail
      (Printf.sprintf "%d of %d states unreachable from the initial state"
         (n - !reached) n);
  root stg ~markings ~codes ~off ~arc_tr ~arc_dst ~initial ~unconstrained

exception Inconsistency of string

let default_warn msg = Printf.eprintf "sg: warning: %s\n%!" msg

let c_of_stg = Obs.Counter.make "sg.of_stg.calls"
let c_of_stg_states = Obs.Counter.make "sg.of_stg.states"
let c_filter_arcs = Obs.Counter.make "sg.filter_arcs.calls"

(* A state is a (marking, signal parity) pair: an STG with toggle events
   (2-phase refinements) revisits markings with flipped signal values, which
   are distinct SG states. *)
let default_budget = 200_000

(* The packing of one exploration.  Every place is a [width]-bit counter
   field, [per_word] fields to a word, whose top bit is a guard that is
   clear in every stored state ([guards] has all of them); every signal's
   parity is one bit, laid out as the codes are.  A state's key is its
   [mw] marking words followed by its parity words, [kw] words in all.
   Word [w] of transition [tr] is at [tr * mw + w] in [pre], its preset's
   low field bits, and in [delta], [post - pre] in low field bits; it
   flips parity bit [par_bit.(tr)] of word [par_word.(tr)] ([-1] on a
   dummy). *)
type packing = {
  width : int;
  per_word : int;
  mw : int;
  kw : int;
  guards : int;
  pre : int array;
  delta : int array;
  par_word : int array;
  par_bit : int array;
}

let packing stg ~width =
  let net = stg.Stg.net in
  let ntr = Petri.n_trans net in
  let per_word = bits_per_word / width in
  let mw = max 1 ((Petri.n_places net + per_word - 1) / per_word) in
  let guards = ref 0 in
  for f = 0 to per_word - 1 do
    guards := !guards lor (1 lsl ((f * width) + width - 1))
  done;
  let pre = Array.make (ntr * mw) 0 and delta = Array.make (ntr * mw) 0 in
  let add a tr d p =
    let i = (tr * mw) + (p / per_word) in
    a.(i) <- a.(i) + (d lsl (p mod per_word * width))
  in
  for tr = 0 to ntr - 1 do
    Array.iter
      (fun p ->
        add pre tr 1 p;
        add delta tr (-1) p)
      net.Petri.pre.(tr);
    Array.iter (add delta tr 1) net.Petri.post.(tr)
  done;
  let par_word = Array.make ntr (-1) and par_bit = Array.make ntr 0 in
  Array.iteri
    (fun tr lab ->
      match lab with
      | Stg.Edge (sigid, _) ->
          par_word.(tr) <- sigid / bits_per_word;
          par_bit.(tr) <- 1 lsl (sigid mod bits_per_word)
      | Stg.Dummy _ -> ())
    stg.Stg.labels;
  {
    width;
    per_word;
    mw;
    kw = mw + code_words (Stg.n_signals stg);
    guards = !guards;
    pre;
    delta;
    par_word;
    par_bit;
  }

(* The fields of the widest initial count, at least one bit, plus the
   guard. *)
let initial_width net =
  let top = Array.fold_left max 0 net.Petri.initial in
  let rec bits c = if c = 0 then 0 else 1 + bits (c lsr 1) in
  max 2 (bits top + 1)

(* A firing set a guard bit: some count outgrew its field. *)
exception Widen

(* One exploration's growing state: [x_keys] holds state [i]'s key at
   [i * kw], [x_slots] is an open-addressing table of state ids ([-1] =
   empty) at most half full, [x_marks] the states' markings, and
   [x_off]/[x_tr]/[x_dst] the rows expanded so far.  [x_scratch] holds the
   key being interned. *)
type explorer = {
  x_pk : packing;
  x_places : int;
  mutable x_keys : int array;
  mutable x_slots : int array;
  mutable x_n : int;
  mutable x_marks : Petri.marking array;
  mutable x_off : int array;
  mutable x_tr : int array;
  mutable x_dst : int array;
  mutable x_m : int;
  x_scratch : int array;
}

(* A multiply carries only upward, so bit [i] of the fold depends on bits
   [0..i] of the words alone; the xor-shift, multiply, xor-shift after it
   brings the fold's high bits down into the low ones that pick a slot. *)
let key_hash (a : int array) base kw =
  let h = ref 0 in
  for j = base to base + kw - 1 do
    h := (!h lxor a.(j)) * 0x2545f4914f6cdd1d
  done;
  let h = (!h lxor (!h lsr 32)) * 0x2545f4914f6cdd1d in
  h lxor (h lsr 29)

let rec same_key (a : int array) i (b : int array) j k =
  k = 0 || (a.(i) = b.(j) && same_key a (i + 1) b (j + 1) (k - 1))

(* The slot of the scratch key: the one holding its state, or the empty
   one where it goes. *)
let rec find_slot ex i =
  let mask = Array.length ex.x_slots - 1 in
  let id = ex.x_slots.(i land mask) in
  if id < 0 || same_key ex.x_keys (id * ex.x_pk.kw) ex.x_scratch 0 ex.x_pk.kw then
    i land mask
  else find_slot ex (i + 1)

let grow a len fill =
  let g = Array.make (2 * len) fill in
  Array.blit a 0 g 0 len;
  g

let rehash ex =
  let kw = ex.x_pk.kw in
  let slots = Array.make (2 * Array.length ex.x_slots) (-1) in
  let mask = Array.length slots - 1 in
  for id = 0 to ex.x_n - 1 do
    let i = ref (key_hash ex.x_keys (id * kw) kw) in
    while slots.(!i land mask) >= 0 do
      incr i
    done;
    slots.(!i land mask) <- id
  done;
  ex.x_slots <- slots

(* The marking of a key's words: the one copy a state's counts get. *)
let materialize ex base =
  let pk = ex.x_pk in
  let m = Array.make ex.x_places 0 in
  let vmask = (1 lsl (pk.width - 1)) - 1 in
  for p = 0 to ex.x_places - 1 do
    m.(p) <-
      (ex.x_keys.(base + (p / pk.per_word)) lsr (p mod pk.per_word * pk.width))
      land vmask
  done;
  m

(* The state of the scratch key, added in discovery order when new. *)
let intern ex =
  let kw = ex.x_pk.kw in
  let i = find_slot ex (key_hash ex.x_scratch 0 kw) in
  let id = ex.x_slots.(i) in
  if id >= 0 then id
  else begin
    let id = ex.x_n in
    if id = Array.length ex.x_marks then begin
      ex.x_keys <- grow ex.x_keys (id * kw) 0;
      ex.x_marks <- grow ex.x_marks id [||];
      ex.x_off <- grow ex.x_off (id + 1) 0
    end;
    Array.blit ex.x_scratch 0 ex.x_keys (id * kw) kw;
    ex.x_marks.(id) <- materialize ex (id * kw);
    ex.x_slots.(i) <- id;
    ex.x_n <- id + 1;
    if 2 * ex.x_n > Array.length ex.x_slots then rehash ex;
    id
  end

let add_arc ex tr dst =
  if ex.x_m = Array.length ex.x_tr then begin
    ex.x_tr <- grow ex.x_tr ex.x_m 0;
    ex.x_dst <- grow ex.x_dst ex.x_m 0
  end;
  ex.x_tr.(ex.x_m) <- tr;
  ex.x_dst.(ex.x_m) <- dst;
  ex.x_m <- ex.x_m + 1

(* [tr] is enabled in the key at [base] when subtracting its preset's low
   bits from the key, with every guard set, borrows from none of the
   preset's guards: from word [w] on. *)
let rec enabled pk (keys : int array) base tr w =
  w = pk.mw
  || (let lo = pk.pre.((tr * pk.mw) + w) in
      let hi = lo lsl (pk.width - 1) in
      ((keys.(base + w) lor pk.guards) - lo) land hi = hi)
     && enabled pk keys base tr (w + 1)

(* Fire [tr] on the scratch key: the counts, then the parity. *)
let fire ex tr =
  let pk = ex.x_pk and sc = ex.x_scratch in
  for w = 0 to pk.mw - 1 do
    let x = sc.(w) + pk.delta.((tr * pk.mw) + w) in
    if x land pk.guards <> 0 then raise Widen;
    sc.(w) <- x
  done;
  let pw = pk.par_word.(tr) in
  if pw >= 0 then sc.(pk.mw + pw) <- sc.(pk.mw + pw) lxor pk.par_bit.(tr)

(* Breadth-first token game at one packing: states are numbered in
   discovery order, so expanding them in number order is the BFS, and
   each row lists its arcs in ascending transition id.  [Exit] when the
   budget is passed, [Widen] when a count outgrows its field. *)
let explore stg pk ~budget =
  let net = stg.Stg.net in
  let ntr = Petri.n_trans net in
  let ex =
    {
      x_pk = pk;
      x_places = Petri.n_places net;
      x_keys = Array.make (16 * pk.kw) 0;
      x_slots = Array.make 32 (-1);
      x_n = 0;
      x_marks = Array.make 16 [||];
      x_off = Array.make 17 0;
      x_tr = Array.make 32 0;
      x_dst = Array.make 32 0;
      x_m = 0;
      x_scratch = Array.make pk.kw 0;
    }
  in
  Array.iteri
    (fun p c ->
      let w = p / pk.per_word in
      ex.x_scratch.(w) <-
        ex.x_scratch.(w) lor (c lsl (p mod pk.per_word * pk.width)))
    net.Petri.initial;
  ignore (intern ex : int);
  let s = ref 0 in
  while !s < ex.x_n do
    ex.x_off.(!s) <- ex.x_m;
    let base = !s * pk.kw in
    for tr = 0 to ntr - 1 do
      if enabled pk ex.x_keys base tr 0 then begin
        Array.blit ex.x_keys base ex.x_scratch 0 pk.kw;
        fire ex tr;
        let s' = intern ex in
        if ex.x_n > budget then raise Exit;
        add_arc ex tr s'
      end
    done;
    incr s
  done;
  ex.x_off.(ex.x_n) <- ex.x_m;
  ex

(* Explore at the narrowest packing that holds every count: from the
   initial counts' width, doubling and starting over whenever a firing
   sets a guard.  Every restart discovers the same states in the same
   order, so the numbering does not depend on where it ends. *)
let rec explore_widening stg ~budget ~width =
  match explore stg (packing stg ~width) ~budget with
  | ex -> Some ex
  | exception Exit -> None
  | exception Widen ->
      if width >= bits_per_word then
        failwith "Sg.of_stg: a token count passed max_int";
      explore_widening stg ~budget ~width:(min bits_per_word (2 * width))

let of_stg_impl ?(budget = default_budget) ?(initial_values = [])
    ?(warn = default_warn) stg =
  let nsig = Stg.n_signals stg in
  match
    explore_widening stg ~budget ~width:(initial_width stg.Stg.net)
  with
  | None -> Error (Unbounded budget)
  | Some ex when ex.x_n > budget -> Error (Unbounded budget)
  | Some ex ->
      let pk = ex.x_pk and n = ex.x_n in
      let parity s sigid =
        (ex.x_keys.((s * pk.kw) + pk.mw + (sigid / bits_per_word))
        lsr (sigid mod bits_per_word))
        land 1
      in
      (* Infer initial values from enabledness: a+ enabled in s means
         v0 xor parity = 0; a- means 1.  [initial_values] pins values up
         front (still checked against the inferred constraints); signals
         left unconstrained by both default to 0. *)
      let v0 = Array.make nsig (-1) in
      List.iter
        (fun (name, v) ->
          if v <> 0 && v <> 1 then
            invalid_arg "Sg: initial_values entries must be 0 or 1";
          match Stg.signal_of_name stg name with
          | sigid -> v0.(sigid) <- v
          | exception Not_found ->
              invalid_arg
                (Printf.sprintf
                   "Sg.of_stg: unknown signal %s in initial_values" name))
        initial_values;
      let constrain sigid want s tr =
        let v = want lxor parity s sigid in
        if v0.(sigid) = -1 then v0.(sigid) <- v
        else if v0.(sigid) <> v then
          raise
            (Inconsistency
               (Printf.sprintf "signal %s: conflicting initial value via %s"
                  (Stg.signal stg sigid).Stg.Signal.name
                  (Stg.trans_display stg tr)))
      in
      match
        for s = 0 to n - 1 do
          for k = ex.x_off.(s) to ex.x_off.(s + 1) - 1 do
            let tr = ex.x_tr.(k) in
            match Stg.label stg tr with
            | Stg.Edge (sigid, Stg.Plus) -> constrain sigid 0 s tr
            | Stg.Edge (sigid, Stg.Minus) -> constrain sigid 1 s tr
            | Stg.Edge (_, Stg.Toggle) | Stg.Dummy _ -> ()
          done
        done
      with
      | () ->
          let unconstrained = ref [] in
          for sigid = nsig - 1 downto 0 do
            if v0.(sigid) = -1 then unconstrained := sigid :: !unconstrained
          done;
          List.iter
            (fun sigid ->
              let s = Stg.signal stg sigid in
              if not (Stg.Signal.is_input s) then
                warn
                  (Printf.sprintf
                     "initial value of %s signal %s is unconstrained by the \
                      specification; defaulting to 0 (pass ~initial_values \
                      to pin it)"
                     (Format.asprintf "%a" Stg.Signal.pp_kind s.Stg.Signal.kind)
                     s.Stg.Signal.name))
            !unconstrained;
          (* A code is its state's parity words xor the initial values. *)
          let wps = code_words nsig in
          let init = Array.make wps 0 in
          Array.iteri
            (fun sigid v ->
              if v = 1 then
                init.(sigid / bits_per_word) <-
                  init.(sigid / bits_per_word)
                  lor (1 lsl (sigid mod bits_per_word)))
            v0;
          let codes =
            Array.init (n * wps) (fun i ->
                ex.x_keys.((i / wps * pk.kw) + pk.mw + (i mod wps))
                lxor init.(i mod wps))
          in
          Ok
            (root stg ~markings:(Array.sub ex.x_marks 0 n) ~codes
               ~off:(Array.sub ex.x_off 0 (n + 1))
               ~arc_tr:(Array.sub ex.x_tr 0 ex.x_m)
               ~arc_dst:(Array.sub ex.x_dst 0 ex.x_m)
               ~initial:0 ~unconstrained:!unconstrained)
      | exception Inconsistency msg -> Error (Inconsistent msg)

let of_stg ?budget ?initial_values ?warn stg =
  Obs.Counter.incr c_of_stg;
  Obs.span "sg.of_stg" (fun () ->
      let r = of_stg_impl ?budget ?initial_values ?warn stg in
      (match r with
      | Ok sg -> Obs.Counter.add c_of_stg_states sg.n
      | Error _ -> ());
      r)

let label_is_controlled stg lab =
  (* outputs and internal signals must be persistent everywhere *)
  match lab with
  | Stg.Edge (sigid, _) -> not (Stg.Signal.is_input (Stg.signal stg sigid))
  | Stg.Dummy _ -> false

(* One pass over the arcs: number the distinct labels, record each
   transition's label bit, OR the bits into per-state enabled masks.
   Deduplication is free (OR is idempotent), so this is much cheaper than
   [enabled_arrays] and is what the hot validity checks read. *)
let enmask sg =
  match sg.cache.c_enmask with
  | Some e -> e
  | None ->
      let em_tr = Array.make (max 1 (Petri.n_trans sg.stg.Stg.net)) (-1) in
      let idx = Hashtbl.create 16 in
      let next = ref 0 in
      let overflow = ref false in
      (try
         Array.iter
           (fun tr ->
             if em_tr.(tr) < 0 then begin
               let lab = Stg.label sg.stg tr in
               let i =
                 match Hashtbl.find_opt idx lab with
                 | Some i -> i
                 | None ->
                     let i = !next in
                     if i >= bits_per_word - 1 then raise Exit;
                     Hashtbl.add idx lab i;
                     incr next;
                     i
               in
               em_tr.(tr) <- i
             end)
           sg.arc_tr
       with Exit -> overflow := true);
      let e =
        if !overflow then None
        else begin
          let em_state = Array.make sg.n 0 in
          for s = 0 to sg.n - 1 do
            let m = ref 0 in
            for k = sg.off.(s) to sg.off.(s + 1) - 1 do
              m := !m lor (1 lsl em_tr.(sg.arc_tr.(k)))
            done;
            em_state.(s) <- !m
          done;
          let ctl = ref 0 in
          Hashtbl.iter
            (fun lab i ->
              if label_is_controlled sg.stg lab then ctl := !ctl lor (1 lsl i))
            idx;
          Some { em_state; em_ctl = !ctl; em_tr }
        end
      in
      sg.cache.c_enmask <- Some e;
      e

(* Per state, the bitmask of signals with an enabled edge, built once per
   graph: ghost freezing, the logic extraction and every removal view of
   the graph read it. *)
let excited_masks sg =
  match sg.cache.c_excited with
  | Some e -> e
  | None ->
      let e = Array.make sg.n 0 in
      for s = 0 to sg.n - 1 do
        for k = sg.off.(s) to sg.off.(s + 1) - 1 do
          match Stg.label sg.stg sg.arc_tr.(k) with
          | Stg.Edge (sid, _) -> e.(s) <- e.(s) lor (1 lsl sid)
          | Stg.Dummy _ -> ()
        done
      done;
      sg.cache.c_excited <- Some e;
      e

(* Rebuild keeping only the arcs [keep] accepts, pruning states no longer
   reachable from the initial state and renumbering in BFS order: [keep]
   runs once per arc, codes and markings are copied row-wise, arcs go
   straight into the new CSR arrays, no per-state allocation.  The search
   judges its candidates on a {!View} of the parent and builds here only
   the ones it keeps. *)
let filter_arcs sg ~keep =
  (* Counter only: a span's closure allocation is unwelcome on the
     disabled fast path. *)
  Obs.Counter.incr c_filter_arcs;
  let n_old = sg.n in
  let m_old = n_arcs sg in
  let kept = Bytes.make m_old '\000' in
  for s = 0 to n_old - 1 do
    for k = sg.off.(s) to sg.off.(s + 1) - 1 do
      if keep s sg.arc_tr.(k) sg.arc_dst.(k) then Bytes.set kept k '\001'
    done
  done;
  (* BFS over kept arcs; [old_of_new] doubles as the queue. *)
  let remap = Array.make n_old (-1) in
  let old_of_new = Array.make n_old 0 in
  remap.(sg.initial) <- 0;
  old_of_new.(0) <- sg.initial;
  let count = ref 1 and head = ref 0 in
  while !head < !count do
    let s = old_of_new.(!head) in
    incr head;
    for k = sg.off.(s) to sg.off.(s + 1) - 1 do
      if Bytes.get kept k = '\001' then begin
        let d = sg.arc_dst.(k) in
        if remap.(d) = -1 then begin
          remap.(d) <- !count;
          old_of_new.(!count) <- d;
          incr count
        end
      end
    done
  done;
  let n = !count in
  let old_of_new = if n = n_old then old_of_new else Array.sub old_of_new 0 n in
  (* When the source's [enmask] is cached, the row pass ORs its label bits
     over the kept arcs: the child's enabled masks in the source's bit
     numbering, so the child never builds its own label table. *)
  let parent_em =
    match sg.cache.c_enmask with
    | Some (Some em) -> Some em
    | Some None | None -> None
  in
  let em_state = if Option.is_some parent_em then Array.make n 0 else [||] in
  let noff = Array.make (n + 1) 0 in
  for s_new = 0 to n - 1 do
    let s = old_of_new.(s_new) in
    let c = ref 0 and lab_kept = ref 0 in
    for k = sg.off.(s) to sg.off.(s + 1) - 1 do
      if Bytes.get kept k = '\001' then begin
        incr c;
        match parent_em with
        | Some em -> lab_kept := !lab_kept lor (1 lsl em.em_tr.(sg.arc_tr.(k)))
        | None -> ()
      end
    done;
    noff.(s_new + 1) <- !c;
    if Option.is_some parent_em then em_state.(s_new) <- !lab_kept
  done;
  (* Freeze the pruned states' source-side contributions as ghosts: their
     codes and excited-signal masks keep participating in the cost-side
     logic extraction, which is what makes the search's blind inheritance
     outside a candidate's support exact (the don't-care universe never
     shrinks along a lineage).  Synthesis-side extraction ignores ghosts.
     Only collected when codes fit one word. *)
  let pruned = n_old - n in
  let g_codes, g_excs, g_fp =
    if sg.nsig > 62 || pruned = 0 then (sg.g_codes, sg.g_excs, sg.g_fp)
    else begin
      let np = Array.length sg.g_codes in
      let gc = Array.make (np + pruned) 0 and ge = Array.make (np + pruned) 0 in
      Array.blit sg.g_codes 0 gc 0 np;
      Array.blit sg.g_excs 0 ge 0 np;
      let exc = excited_masks sg in
      let i = ref np and fp = ref sg.g_fp in
      for s = 0 to n_old - 1 do
        if remap.(s) = -1 then begin
          (* codes fit one word, so codes.(s) is the packed code *)
          gc.(!i) <- sg.codes.(s);
          ge.(!i) <- exc.(s);
          fp := ghost_mix !fp sg.codes.(s) exc.(s);
          incr i
        end
      done;
      (gc, ge, !fp)
    end
  in
  for i = 1 to n do
    noff.(i) <- noff.(i) + noff.(i - 1)
  done;
  let m = noff.(n) in
  let ntr = Array.make m 0 and ndst = Array.make m 0 in
  let nroot = Array.make m 0 in
  for s_new = 0 to n - 1 do
    let s = old_of_new.(s_new) in
    let p = ref noff.(s_new) in
    for k = sg.off.(s) to sg.off.(s + 1) - 1 do
      if Bytes.get kept k = '\001' then begin
        ntr.(!p) <- sg.arc_tr.(k);
        ndst.(!p) <- remap.(sg.arc_dst.(k));
        nroot.(!p) <- sg.arc_root.(k);
        incr p
      end
    done
  done;
  let wps = sg.wps in
  let ncodes = Array.make (n * wps) 0 in
  for s_new = 0 to n - 1 do
    Array.blit sg.codes (old_of_new.(s_new) * wps) ncodes (s_new * wps) wps
  done;
  let cache = fresh_cache () in
  (match parent_em with
  | Some em -> cache.c_enmask <- Some (Some { em with em_state })
  | None -> ());
  ( {
      sg with
      n;
      markings = Array.map (fun s -> sg.markings.(s)) old_of_new;
      codes = ncodes;
      off = noff;
      arc_tr = ntr;
      arc_dst = ndst;
      arc_root = nroot;
      initial = 0;
      g_codes;
      g_excs;
      g_fp;
      cache;
    },
    old_of_new )

(* General arc rewiring over the same state space: materialize the given
   rows into a temporary CSR sharing the codes/markings, then let
   [filter_arcs] prune and renumber.  The rewired arcs are new, so the
   temporary graph roots a fresh lineage. *)
let derive ?unconstrained sg ~arcs =
  let unconstrained =
    match unconstrained with Some u -> u | None -> sg.unconstrained
  in
  let rows = Array.init sg.n arcs in
  let off = Array.make (sg.n + 1) 0 in
  for s = 0 to sg.n - 1 do
    off.(s + 1) <- off.(s) + List.length rows.(s)
  done;
  let m = off.(sg.n) in
  let arc_tr = Array.make m 0 and arc_dst = Array.make m 0 in
  for s = 0 to sg.n - 1 do
    List.iteri
      (fun j (tr, s') ->
        if s' < 0 || s' >= sg.n then
          invalid_arg "Sg.derive: arc target outside the state space";
        arc_tr.(off.(s) + j) <- tr;
        arc_dst.(off.(s) + j) <- s')
      rows.(s)
  done;
  let tmp =
    {
      sg with
      off;
      arc_tr;
      arc_dst;
      arc_root = Array.init m Fun.id;
      unconstrained;
      cache = fresh_cache ();
    }
  in
  filter_arcs tmp ~keep:(fun _ _ _ -> true)

(* ------------------------------------------------------------------ *)
(* Speed-independence *)

let for_all_states sg ok =
  let rec loop s = s >= sg.n || (ok s && loop (s + 1)) in
  loop 0

let popcount x =
  let rec go x n = if x = 0 then n else go (x land (x - 1)) (n + 1) in
  go x 0

(* Both checks read the packed [enmask] label bits; the label-list scans
   are kept for graphs with too many labels for it. *)
let is_deterministic sg =
  match enmask sg with
  | Some em ->
      (* distinct labels on a row = its out-degree *)
      for_all_states sg (fun s -> popcount em.em_state.(s) = out_degree sg s)
  | None ->
      for_all_states sg (fun s ->
          let lo = sg.off.(s) in
          let deg = sg.off.(s + 1) - lo in
          let labs =
            Array.init deg (fun j -> Stg.label sg.stg sg.arc_tr.(lo + j))
          in
          let sorted = List.sort compare (Array.to_list labs) in
          let rec distinct = function
            | [] | [ _ ] -> true
            | a :: (b :: _ as rest) -> a <> b && distinct rest
          in
          distinct sorted)

(* The successor of [s] through label bit [b]: -1 when there is none, -2
   when there are several. *)
let succ_by_bit sg em s b =
  let r = ref (-1) in
  for k = sg.off.(s) to sg.off.(s + 1) - 1 do
    if em.em_tr.(sg.arc_tr.(k)) = b then
      r := if !r = -1 then sg.arc_dst.(k) else -2
  done;
  !r

let is_commutative sg =
  (* For every s -a-> s1 and s -b-> s2 (a<>b as labels), if s1 -b-> x and
     s2 -a-> y then x = y.  The test is symmetric in the two arcs, so each
     unordered pair of a row is checked once. *)
  let diamond =
    match enmask sg with
    | Some em ->
        fun k1 k2 ->
          let a = em.em_tr.(sg.arc_tr.(k1)) and b = em.em_tr.(sg.arc_tr.(k2)) in
          let s1 = sg.arc_dst.(k1) and s2 = sg.arc_dst.(k2) in
          a = b
          || em.em_state.(s1) land (1 lsl b) = 0
          || em.em_state.(s2) land (1 lsl a) = 0
          ||
          let x = succ_by_bit sg em s1 b in
          x >= 0 && x = succ_by_bit sg em s2 a
    | None ->
        fun k1 k2 ->
          let a = Stg.label sg.stg sg.arc_tr.(k1)
          and b = Stg.label sg.stg sg.arc_tr.(k2) in
          a = b
          ||
          let xs = succ_by_label sg sg.arc_dst.(k1) b
          and ys = succ_by_label sg sg.arc_dst.(k2) a in
          (match (xs, ys) with
          | [ x ], [ y ] -> x = y
          | [], _ | _, [] -> true
          | _ -> false)
  in
  for_all_states sg (fun s ->
      let lo = sg.off.(s) and hi = sg.off.(s + 1) - 1 in
      let res = ref true in
      for k1 = lo to hi - 1 do
        for k2 = k1 + 1 to hi do
          if !res && not (diamond k1 k2) then res := false
        done
      done;
      !res)

let persistency_violations sg =
  let enabled = enabled_arrays sg in
  let viols = ref [] in
  for s = 0 to sg.n - 1 do
    let here = enabled.(s) in
    iter_succ sg s (fun tr s' ->
        let by = Stg.label sg.stg tr in
        let there = enabled.(s') in
        Array.iter
          (fun lab ->
            if lab <> by && not (Array.mem lab there) then begin
              (* lab was disabled by firing [by]. Violation if lab is an
                 output/internal event, or lab is an input disabled by an
                 output/internal. *)
              let lab_ctl = label_is_controlled sg.stg lab in
              let by_ctl = label_is_controlled sg.stg by in
              if lab_ctl || by_ctl then viols := (s, lab, by) :: !viols
            end)
          here)
  done;
  List.rev !viols

(* First violation in the order [persistency_violations] reports them, or
   [None]: what reduction's validity check needs, without accumulating the
   full list on every candidate. *)
exception Found_violation of (state * Stg.label * Stg.label)

let first_persistency_violation sg =
  (* Replays the plain scan on one arc known to hold a violation, so the
     reported triple is exactly what [persistency_violations] lists
     first: labels in enabled-array order. *)
  let scan_arc s s' by =
    let enabled = enabled_arrays sg in
    let there = enabled.(s') in
    Array.iter
      (fun lab ->
        if
          lab <> by
          && (not (Array.mem lab there))
          && (label_is_controlled sg.stg lab || label_is_controlled sg.stg by)
        then raise (Found_violation (s, lab, by)))
      enabled.(s)
  in
  match enmask sg with
  | Some em -> (
      let masks = em.em_state in
      try
        for s = 0 to sg.n - 1 do
          let here = masks.(s) in
          for k = sg.off.(s) to sg.off.(s + 1) - 1 do
            let byb = 1 lsl em.em_tr.(sg.arc_tr.(k)) in
            let missing =
              here land lnot masks.(sg.arc_dst.(k)) land lnot byb
            in
            (* a label enabled here but not after firing [by], where the
               pair qualifies: [by] controlled, or the label itself is *)
            if
              missing <> 0
              && (em.em_ctl land byb <> 0 || missing land em.em_ctl <> 0)
            then
              scan_arc s sg.arc_dst.(k) (Stg.label sg.stg sg.arc_tr.(k))
          done
        done;
        None
      with Found_violation v -> Some v)
  | None -> (
      let enabled = enabled_arrays sg in
      try
        for s = 0 to sg.n - 1 do
          let here = enabled.(s) in
          iter_succ sg s (fun tr s' ->
              let by = Stg.label sg.stg tr in
              let there = enabled.(s') in
              Array.iter
                (fun lab ->
                  if
                    lab <> by
                    && (not (Array.mem lab there))
                    && (label_is_controlled sg.stg lab
                       || label_is_controlled sg.stg by)
                  then raise (Found_violation (s, lab, by)))
                here)
        done;
        None
      with Found_violation v -> Some v)

(* Memoized: reduction re-asks this of the unchanged source SG for every
   candidate that breaks persistency (Prop. 6.1 only applies to
   speed-independent sources). *)
let is_output_persistent sg =
  match sg.cache.c_persistent with
  | Some p -> p
  | None ->
      let p = first_persistency_violation sg = None in
      sg.cache.c_persistent <- Some p;
      p

let is_speed_independent sg =
  is_deterministic sg && is_commutative sg && is_output_persistent sg

(* ------------------------------------------------------------------ *)
(* State coding *)

(* Sorted controlled-label list of one state, memoized per state.  Lazy on
   purpose: CSC conflict detection only needs it for the (few) states that
   share a code, so precomputing all states would dominate the search. *)
let controlled_labels sg s =
  let memo =
    match sg.cache.c_controlled with
    | Some m -> m
    | None ->
        let m = Array.make sg.n None in
        sg.cache.c_controlled <- Some m;
        m
  in
  match memo.(s) with
  | Some l -> l
  | None ->
      let l =
        Array.to_list (enabled_arrays sg).(s)
        |> List.filter (label_is_controlled sg.stg)
        |> List.sort compare
      in
      memo.(s) <- Some l;
      l

(* Lexicographic order on the packed code rows at [r1] and [r2], from
   word [i]: an arbitrary but fixed total order, used only to group equal
   codes. *)
let rec compare_rows (codes : int array) r1 r2 i wps =
  if i = wps then 0
  else
    let c = Int.compare codes.(r1 + i) codes.(r2 + i) in
    if c <> 0 then c else compare_rows codes r1 r2 (i + 1) wps

let compare_codes sg s1 s2 = compare_rows sg.codes (s1 * sg.wps) (s2 * sg.wps) 0 sg.wps

(* The states sorted by code, equal codes in ascending state order. *)
let sorted_by_code sg =
  let a = Array.init sg.n Fun.id in
  Array.stable_sort (compare_codes sg) a;
  a

let usc_conflicts sg =
  let a = sorted_by_code sg in
  let out = ref [] and i = ref 0 in
  while !i < sg.n do
    let j = ref (!i + 1) in
    while !j < sg.n && compare_codes sg a.(!i) a.(!j) = 0 do
      incr j
    done;
    for x = !i to !j - 2 do
      for y = x + 1 to !j - 1 do
        out := (a.(x), a.(y)) :: !out
      done
    done;
    i := !j
  done;
  List.sort compare !out

(* No two states share a code: no two neighbours of the code-sorted
   order do. *)
let has_usc sg =
  let a = sorted_by_code sg in
  let unique = ref true in
  for i = 1 to sg.n - 1 do
    if compare_codes sg a.(i - 1) a.(i) = 0 then unique := false
  done;
  !unique

let csc_conflicts sg =
  usc_conflicts sg
  |> List.filter (fun (s, s') ->
         controlled_labels sg s <> controlled_labels sg s')

(* Controlled-enabled set of one state packed as an int bitmask (bit
   [3*sigid + direction]): dummies are never controlled, so every
   controlled label is an [Edge] and the packing is total when
   [3*nsig <= 62].  Set equality of controlled label sets is then int
   equality. *)
let controlled_mask sg s =
  Array.fold_left
    (fun m lab ->
      match lab with
      | Stg.Edge (sigid, dir)
        when not (Stg.Signal.is_input (Stg.signal sg.stg sigid)) ->
          let d =
            match dir with Stg.Plus -> 0 | Stg.Minus -> 1 | Stg.Toggle -> 2
          in
          m lor (1 lsl ((3 * sigid) + d))
      | Stg.Edge _ | Stg.Dummy _ -> m)
    0
    (enabled_arrays sg).(s)

(* Per-domain scratch for the direct CSC count: [cs_head.(code)] is the
   first state of that code's bucket or [-1] (all [-1] between calls),
   [cs_next.(s)] the next state of [s]'s bucket.  Grown on demand, like
   [Logic.extract]'s tables; one call touches only the codes it meets. *)
type csc_scratch = { mutable cs_head : int array; mutable cs_next : int array }

let csc_scratch_key =
  Pool.Dls.new_key (fun () -> { cs_head = [||]; cs_next = [||] })

(* Codes in at most 16 bits: bucket the states [order.(0 .. count - 1)]
   by packed code in the direct-address [cs_head] table and count, inside
   each bucket, the pairs whose controlled enabled masks
   ([masks.(s) land ctl]) differ.  A bucket is counted when its first
   state is met, and its head is reset there, which also restores the
   table for the next call. *)
let direct_csc_count sg ~order ~count ~masks ~ctl =
  let sc = Pool.Dls.get csc_scratch_key in
  if Array.length sc.cs_head < 1 lsl sg.nsig then
    sc.cs_head <- Array.make (1 lsl sg.nsig) (-1);
  if Array.length sc.cs_next < sg.n then sc.cs_next <- Array.make sg.n 0;
  let head = sc.cs_head and next = sc.cs_next in
  for i = count - 1 downto 0 do
    let s = order.(i) in
    let c = sg.codes.(s) in
    next.(s) <- head.(c);
    head.(c) <- s
  done;
  let pairs = ref 0 in
  for i = 0 to count - 1 do
    let s = order.(i) in
    let c = sg.codes.(s) in
    if head.(c) >= 0 then begin
      head.(c) <- -1;
      let a = ref s in
      while !a >= 0 do
        let ma = masks.(!a) land ctl in
        let b = ref next.(!a) in
        while !b >= 0 do
          if masks.(!b) land ctl <> ma then incr pairs;
          b := next.(!b)
        done;
        a := next.(!a)
      done
    end
  done;
  !pairs

(* The general count over the states [order.(0 .. count - 1)]: equal
   codes are grouped by sorting, and a pair conflicts when its controlled
   enabled sets differ, compared as [ctl]'s injective int packing when
   given, else as [labels]' sorted lists.  When everything fits (the
   packed code in [62 - log2 n] bits, [ctl] given) the sort keys are
   [code << log2n | s], built straight from the packed word. *)
let sorted_csc_count sg ~order ~count ~ctl ~labels =
  let log2n =
    let k = ref 0 in
    while 1 lsl !k < sg.n do
      incr k
    done;
    !k
  in
  let pairs = ref 0 in
  (* Sorted [items], grouped by [same], counting the differing pairs of
     each group under [differ]. *)
  let count_groups items same differ =
    let i = ref 0 in
    while !i < count do
      let j = ref (!i + 1) in
      while !j < count && same items.(!i) items.(!j) do
        incr j
      done;
      for x = !i to !j - 2 do
        for y = x + 1 to !j - 1 do
          if differ items.(x) items.(y) then incr pairs
        done
      done;
      i := !j
    done
  in
  (match ctl with
  | Some ctl when sg.nsig + log2n <= 62 ->
      let keys =
        Array.init count (fun i ->
            let s = order.(i) in
            (sg.codes.(s) lsl log2n) lor s)
      in
      Array.sort Int.compare keys;
      let lim = (1 lsl log2n) - 1 in
      count_groups keys
        (fun k1 k2 -> k1 lsr log2n = k2 lsr log2n)
        (fun k1 k2 -> ctl (k1 land lim) <> ctl (k2 land lim))
  | _ ->
      let st = Array.sub order 0 count in
      Array.sort (compare_codes sg) st;
      count_groups st
        (fun s1 s2 -> compare_codes sg s1 s2 = 0)
        (match ctl with
        | Some ctl -> fun s1 s2 -> ctl s1 <> ctl s2
        | None -> fun s1 s2 -> labels s1 <> labels s2));
  !pairs

(* Same count as [List.length (csc_conflicts sg)] — this is in the search
   cost function's inner loop, once per candidate. *)
let csc_conflict_count sg =
  match sg.cache.c_csc_count with
  | Some c -> c
  | None ->
      let order = Array.init sg.n Fun.id in
      let c =
        match enmask sg with
        | Some em when sg.nsig <= 16 ->
            direct_csc_count sg ~order ~count:sg.n ~masks:em.em_state
              ~ctl:em.em_ctl
        | em ->
            (* Only set equality matters, so any injective packing of the
               controlled enabled set works: the label bitmasks when
               available, the per-signal packing when it fits. *)
            let ctl =
              match em with
              | Some em -> Some (fun s -> em.em_state.(s) land em.em_ctl)
              | None when 3 * sg.nsig <= 62 ->
                  let masks = Array.make sg.n (-1) in
                  Some
                    (fun s ->
                      if masks.(s) < 0 then masks.(s) <- controlled_mask sg s;
                      masks.(s))
              | None -> None
            in
            sorted_csc_count sg ~order ~count:sg.n ~ctl
              ~labels:(controlled_labels sg)
      in
      sg.cache.c_csc_count <- Some c;
      c

let has_csc sg = csc_conflict_count sg = 0

(* ------------------------------------------------------------------ *)
(* Excitation regions and concurrency *)

(* All excitation regions in one sweep: a state belongs to ER(lab) exactly
   when lab is among its enabled labels. *)
let er_table sg =
  match sg.cache.c_ers with
  | Some t -> t
  | None ->
      let enabled = enabled_arrays sg in
      let tbl = Hashtbl.create 32 in
      for s = sg.n - 1 downto 0 do
        Array.iter
          (fun lab ->
            let prev = try Hashtbl.find tbl lab with Not_found -> [] in
            Hashtbl.replace tbl lab (s :: prev))
          enabled.(s)
      done;
      sg.cache.c_ers <- Some tbl;
      tbl

let er sg lab = try Hashtbl.find (er_table sg) lab with Not_found -> []

(* Distinct labels on arcs, each with all the STG transitions carrying it.
   Every state of a [t] is reachable from [initial] by construction
   ([of_arrays] rejects unreachable states, [filter_arcs] prunes), so
   this is exactly the set of reachable arc labels — reduction's vanish
   check. *)
let arc_label_instances sg =
  match sg.cache.c_arc_labels with
  | Some l -> l
  | None ->
      let seen = Hashtbl.create 32 in
      let order = ref [] in
      iter_arcs sg (fun _ tr _ ->
          let lab = Stg.label sg.stg tr in
          if not (Hashtbl.mem seen lab) then begin
            Hashtbl.replace seen lab ();
            order := lab :: !order
          end);
      let l =
        List.rev_map (fun lab -> (lab, Stg.instances sg.stg lab)) !order
      in
      sg.cache.c_arc_labels <- Some l;
      l

(* Does some arc [si -b-> x] meet an arc [sj -a-> x]?  [a] and [b] are
   label ids of [lab_id]. *)
let closes sg (lab_id : int array) si (b : int) sj (a : int) =
  let found = ref false in
  for k = sg.off.(si) to sg.off.(si + 1) - 1 do
    if lab_id.(sg.arc_tr.(k)) = b then begin
      let x = sg.arc_dst.(k) in
      for l = sg.off.(sj) to sg.off.(sj + 1) - 1 do
        if lab_id.(sg.arc_tr.(l)) = a && sg.arc_dst.(l) = x then found := true
      done
    end
  done;
  !found

(* The full label-level concurrency relation in a single sweep over states
   (Def. 2.1): for every state and every unordered pair of its outgoing
   arcs s -a-> s1, s -b-> s2 with a <> b, the labels are concurrent when
   some s1 -b-> x and s2 -a-> x close the diamond.  The check is symmetric
   in the arc pair, so each pair is examined once; already-established
   entries are skipped.  Labels are numbered in [Stg.all_labels] order,
   and each transition's number is looked up once, in [lab_id]. *)
let conc_rel sg =
  match sg.cache.c_conc with
  | Some r -> r
  | None ->
      let conc_labels = Array.of_list (Stg.all_labels sg.stg) in
      let nlab = Array.length conc_labels in
      let conc_idx = Hashtbl.create (2 * max 1 nlab) in
      Array.iteri (fun i lab -> Hashtbl.replace conc_idx lab i) conc_labels;
      let lab_id = Array.map (Hashtbl.find conc_idx) sg.stg.Stg.labels in
      let conc_mat = Bytes.make (nlab * nlab) '\000' in
      for s = 0 to sg.n - 1 do
        let lo = sg.off.(s) and hi = sg.off.(s + 1) - 1 in
        for i = lo to hi do
          let ia = lab_id.(sg.arc_tr.(i)) and si = sg.arc_dst.(i) in
          for j = i + 1 to hi do
            let ib = lab_id.(sg.arc_tr.(j)) in
            if
              ib <> ia
              && Bytes.get conc_mat ((ia * nlab) + ib) = '\000'
              && closes sg lab_id si ib sg.arc_dst.(j) ia
            then begin
              Bytes.set conc_mat ((ia * nlab) + ib) '\001';
              Bytes.set conc_mat ((ib * nlab) + ia) '\001'
            end
          done
        done
      done;
      let r = { conc_labels; conc_idx; conc_mat } in
      sg.cache.c_conc <- Some r;
      r

let concurrent sg a b =
  if a = b then false
  else
    let r = conc_rel sg in
    match (Hashtbl.find_opt r.conc_idx a, Hashtbl.find_opt r.conc_idx b) with
    | Some ia, Some ib ->
        Bytes.get r.conc_mat ((ia * Array.length r.conc_labels) + ib) = '\001'
    | (Some _ | None), _ -> false

let concurrent_pairs sg =
  let r = conc_rel sg in
  let nlab = Array.length r.conc_labels in
  let acc = ref [] in
  for i = nlab - 1 downto 0 do
    for j = nlab - 1 downto i + 1 do
      if Bytes.get r.conc_mat ((i * nlab) + j) = '\001' then
        acc := (r.conc_labels.(i), r.conc_labels.(j)) :: !acc
    done
  done;
  !acc

let deadlocks sg =
  let acc = ref [] in
  for s = sg.n - 1 downto 0 do
    if out_degree sg s = 0 then acc := s :: !acc
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Removal views *)

(* States and ghosts grouped by code with stable LSD counting-sort passes
   over the code's digits.  A digit has at most 16 bits and no more than
   it takes to count the items, so a pass touches about as many buckets
   as there are items.  Items of one code keep their order (states, then
   ghosts); [View.changed_aggregates] only ORs and ANDs within a group
   anyway. *)
let by_code sg =
  match sg.cache.c_by_code with
  | Some b -> b
  | None ->
      let total = sg.n + Array.length sg.g_codes in
      let items =
        Array.init total (fun j -> if j < sg.n then j else sg.n - 1 - j)
      in
      let keys =
        Array.init total (fun j ->
            if j < sg.n then sg.codes.(j) else sg.g_codes.(j - sg.n))
      in
      let width =
        let rec bits w =
          if w < 16 && 1 lsl w < total then bits (w + 1) else w
        in
        bits 1
      in
      let passes = (sg.nsig + width - 1) / width in
      let digit = if passes = 0 then 0 else (sg.nsig + passes - 1) / passes in
      let mask = (1 lsl digit) - 1 in
      let count = Array.make (mask + 2) 0 in
      let items = ref items and keys = ref keys in
      let items' = ref (Array.make total 0)
      and keys' = ref (Array.make total 0) in
      for pass = 0 to passes - 1 do
        let shift = pass * digit in
        (* [count.(d)]: the items of digit below [d], the first slot of
           digit [d] *)
        Array.fill count 0 (mask + 2) 0;
        Array.iter
          (fun k ->
            let d = ((k lsr shift) land mask) + 1 in
            count.(d) <- count.(d) + 1)
          !keys;
        for d = 1 to mask do
          count.(d) <- count.(d) + count.(d - 1)
        done;
        let src_i = !items and src_k = !keys in
        let dst_i = !items' and dst_k = !keys' in
        for j = 0 to total - 1 do
          let k = src_k.(j) in
          let d = (k lsr shift) land mask in
          let t = count.(d) in
          count.(d) <- t + 1;
          dst_i.(t) <- src_i.(j);
          dst_k.(t) <- k
        done;
        items := dst_i;
        keys := dst_k;
        items' := src_i;
        keys' := src_k
      done;
      let items = !items and keys = !keys in
      let groups = ref 0 in
      for j = 0 to total - 1 do
        if j = 0 || keys.(j) <> keys.(j - 1) then incr groups
      done;
      let codes = Array.make !groups 0
      and starts = Array.make (!groups + 1) total in
      let g = ref 0 in
      for j = 0 to total - 1 do
        if j = 0 || keys.(j) <> keys.(j - 1) then begin
          codes.(!g) <- keys.(j);
          starts.(!g) <- j;
          incr g
        end
      done;
      let b = { bc_codes = codes; bc_start = starts; bc_items = items } in
      sg.cache.c_by_code <- Some b;
      b

(* Per-domain scratch of the current view, over the source's state ids:
   [vs_mark.(s) = vs_gen] when [s]'s [a]-arcs go, [vs_seen.(s) = vs_gen]
   when [s] is still reached, [vs_lost.(s) = vs_gen] when it is reached
   and lost an arc, [vs_masks.(s)] a reached state's enabled labels after
   the removal (with label masks only), [vs_atr.(tr) = vs_gen] when
   transition [tr] carries [a] (without label masks only), [vs_order]
   the reached states in BFS order, [vs_key] the root-arc bitset (zero
   past its first [vs_key_len] bytes).  Stamping with a fresh generation
   per view clears every mark for free. *)
type view_scratch = {
  mutable vs_gen : int;
  mutable vs_mark : int array;
  mutable vs_seen : int array;
  mutable vs_lost : int array;
  mutable vs_masks : int array;
  mutable vs_atr : int array;
  mutable vs_order : int array;
  mutable vs_key : Bytes.t;
  mutable vs_key_len : int;
}

let view_scratch_key =
  Pool.Dls.new_key (fun () ->
      {
        vs_gen = 0;
        vs_mark = [||];
        vs_seen = [||];
        vs_lost = [||];
        vs_masks = [||];
        vs_atr = [||];
        vs_order = [||];
        vs_key = Bytes.empty;
        vs_key_len = 0;
      })

module View = struct
  type sg = t

  type t = {
    v_sg : sg;
    v_em : enmask option;  (** the source's label masks, if it has them *)
    v_a : Stg.label;
    v_tr : int array;
    v_aid : int;
        (** the transitions [tr] carrying [a] are those with
            [v_tr.(tr) = v_aid]: label bits with masks, [vs_atr] stamps
            without *)
    v_states : state list;
    v_sc : view_scratch;
    v_gen : int;
    v_n : int;  (** reached states *)
    v_union : int;  (** labels of the kept arcs, with masks *)
  }

  let live v =
    if v.v_sc.vs_gen <> v.v_gen then
      invalid_arg "Sg.View: the view was overwritten by a later one"

  let removed v s = v.v_sc.vs_mark.(s) = v.v_gen

  (* The kept arc [k] of a source state [s]: [rm] is [removed v s]. *)
  let kept v rm k = not (rm && v.v_tr.(v.v_sg.arc_tr.(k)) = v.v_aid)

  (* Rows that lost an arc: reached states of the removal set with an
     [a]-arc.  Every other reached state keeps its row and its labels. *)
  let changed v s = v.v_sc.vs_lost.(s) = v.v_gen

  (* A reached state's enabled-label mask after the removal (with label
     masks only). *)
  let mask v s = v.v_sc.vs_masks.(s)

  let make sg ~a states =
    if sg.nsig > 62 then None
    else begin
      let em = enmask sg in
      let sc = Pool.Dls.get view_scratch_key in
      if Array.length sc.vs_seen < sg.n then begin
        sc.vs_mark <- Array.make sg.n (-1);
        sc.vs_seen <- Array.make sg.n (-1);
        sc.vs_lost <- Array.make sg.n (-1);
        sc.vs_masks <- Array.make sg.n 0;
        sc.vs_order <- Array.make sg.n 0
      end;
      sc.vs_gen <- sc.vs_gen + 1;
      let gen = sc.vs_gen in
      let mark = sc.vs_mark and seen = sc.vs_seen and lost = sc.vs_lost in
      let masks = sc.vs_masks and order = sc.vs_order in
      List.iter (fun s -> mark.(s) <- gen) states;
      (* With label masks, [a] is a label bit, found on the first removed
         row that has an [a]-arc; without, its transitions are stamped. *)
      let tr_id, aid =
        match em with
        | Some em ->
            let abit = ref (-1) in
            List.iter
              (fun s ->
                if !abit < 0 then
                  for k = sg.off.(s) to sg.off.(s + 1) - 1 do
                    if Stg.label sg.stg sg.arc_tr.(k) = a then
                      abit := em.em_tr.(sg.arc_tr.(k))
                  done)
              states;
            (em.em_tr, !abit)
        | None ->
            let labels = sg.stg.Stg.labels in
            if Array.length sc.vs_atr < Array.length labels then
              sc.vs_atr <- Array.make (Array.length labels) (-1);
            Array.iteri (fun tr lab -> if lab = a then sc.vs_atr.(tr) <- gen)
              labels;
            (sc.vs_atr, gen)
      in
      let amask = if em = None || aid < 0 then 0 else 1 lsl aid in
      (* BFS over the kept arcs in [filter_arcs]'s order, so [vs_order]
         lists the child's states by their new ids; each kept arc sets its
         root index in the key. *)
      Bytes.fill sc.vs_key 0 sc.vs_key_len '\000';
      seen.(sg.initial) <- gen;
      order.(0) <- sg.initial;
      let count = ref 1 and head = ref 0 in
      let top = ref (-1) and union = ref 0 in
      while !head < !count do
        let s = order.(!head) in
        incr head;
        let rm = mark.(s) = gen in
        for k = sg.off.(s) to sg.off.(s + 1) - 1 do
          if rm && tr_id.(sg.arc_tr.(k)) = aid then lost.(s) <- gen
          else begin
            let r = sg.arc_root.(k) in
            if r > !top then top := r;
            let i = r lsr 3 in
            let len = Bytes.length sc.vs_key in
            if i >= len then begin
              let key = Bytes.make (max (2 * len) (i + 1)) '\000' in
              Bytes.blit sc.vs_key 0 key 0 len;
              sc.vs_key <- key
            end;
            let key = sc.vs_key in
            Bytes.unsafe_set key i
              (Char.unsafe_chr
                 (Char.code (Bytes.unsafe_get key i) lor (1 lsl (r land 7))));
            let d = sg.arc_dst.(k) in
            if seen.(d) <> gen then begin
              seen.(d) <- gen;
              order.(!count) <- d;
              incr count
            end
          end
        done;
        match em with
        | Some em ->
            let m = em.em_state.(s) in
            let m = if lost.(s) = gen then m land lnot amask else m in
            masks.(s) <- m;
            union := !union lor m
        | None -> ()
      done;
      sc.vs_key_len <- (!top + 8) lsr 3;
      Some
        {
          v_sg = sg;
          v_em = em;
          v_a = a;
          v_tr = tr_id;
          v_aid = aid;
          v_states = states;
          v_sc = sc;
          v_gen = gen;
          v_n = !count;
          v_union = !union;
        }
    end

  let source v = v.v_sg

  let n_states v =
    live v;
    v.v_n

  let root_arc_key v =
    live v;
    Bytes.sub_string v.v_sc.vs_key 0 v.v_sc.vs_key_len

  (* Labels only leave with their last arc, so with masks a vanished label
     is a bit of the source's union missing from the view's; without, a
     label none of whose transitions is on a kept arc.  Reported in
     {!arc_label_instances} order, as [Reduction.validate] does. *)
  let vanished v =
    live v;
    let sg = v.v_sg in
    let first_gone gone =
      List.find_map
        (fun (lab, trs) -> if gone trs then Some lab else None)
        (arc_label_instances sg)
    in
    match v.v_em with
    | Some em ->
        let lost = Array.fold_left ( lor ) 0 em.em_state land lnot v.v_union in
        if lost = 0 then None
        else
          first_gone (fun trs ->
              match List.find_opt (fun tr -> em.em_tr.(tr) >= 0) trs with
              | Some tr -> lost land (1 lsl em.em_tr.(tr)) <> 0
              | None -> false)
    | None ->
        let fired = Array.make (Array.length sg.stg.Stg.labels) false in
        for i = 0 to v.v_n - 1 do
          let s = v.v_sc.vs_order.(i) in
          let rm = removed v s in
          for k = sg.off.(s) to sg.off.(s + 1) - 1 do
            if kept v rm k then fired.(sg.arc_tr.(k)) <- true
          done
        done;
        first_gone (fun trs -> not (List.exists (fun tr -> fired.(tr)) trs))

  (* A state that lost all its arcs lost some: a changed row whose arcs
     all carried [a].  Only when one did is the first one looked for in
     the child's order. *)
  let rec all_removed v k last =
    k = last || ((not (kept v true k)) && all_removed v (k + 1) last)

  let dead v s =
    changed v s && all_removed v v.v_sg.off.(s) v.v_sg.off.(s + 1)

  let rec any_dead v = function
    | [] -> false
    | s :: rest -> dead v s || any_dead v rest

  let rec first_dead v (order : int array) i =
    if dead v order.(i) then order.(i) else first_dead v order (i + 1)

  let deadlock v =
    live v;
    if any_dead v v.v_states then Some (first_dead v v.v_sc.vs_order 0)
    else None

  (* [first_persistency_violation] on the view, states in the child's
     order: per kept arc [s -by-> d], the first label of [s]'s row, with
     [a] dropped from the rows that lost it, that is not enabled after
     [by] where the pair qualifies.  With label masks, a mask test per arc
     finds the arcs worth that scan.  When [sg] is output-persistent, an
     arc can only violate where its target lost [a] (elsewhere both ends
     keep their labels, or only its source lost one, which removes
     violations), so those arcs are tested first and the ordered scan
     runs only when one of them violates.  [rows] is [sg]'s enabled
     labels. *)
  let enabled_in v s lab = not (changed v s && lab = v.v_a)

  let rec label_mem (lab : Stg.label) (row : Stg.label array) i =
    i < Array.length row && (row.(i) = lab || label_mem lab row (i + 1))

  (* The index in [s]'s row of the first label the arc [s -by-> d]
     disables where the pair qualifies, from [i] on, or -1. *)
  let rec disabled_at v (rows : Stg.label array array) s d by i =
    if i = Array.length rows.(s) then -1
    else
      let lab = rows.(s).(i) and stg = v.v_sg.stg in
      if
        enabled_in v s lab && lab <> by
        && (not (enabled_in v d lab && label_mem lab rows.(d) 0))
        && (label_is_controlled stg lab || label_is_controlled stg by)
      then i
      else disabled_at v rows s d by (i + 1)

  (* [disabled_at] on the kept arc [s -tr-> d], after the mask test. *)
  let violating v rows s tr d =
    let worth =
      match v.v_em with
      | Some em ->
          let byb = 1 lsl em.em_tr.(tr) in
          let missing = mask v s land lnot (mask v d) land lnot byb in
          missing <> 0
          && (em.em_ctl land byb <> 0 || missing land em.em_ctl <> 0)
      | None -> true
    in
    if worth then disabled_at v rows s d (Stg.label v.v_sg.stg tr) 0 else -1

  (* Some kept arc into [d], from the reverse arc [k] on, violates. *)
  let rec violated_into v rows d k =
    let p_off, p_tr, p_src = pred v.v_sg in
    k < p_off.(d + 1)
    && (let p = p_src.(k) and tr = p_tr.(k) in
        (v.v_sc.vs_seen.(p) = v.v_gen
        && (not (removed v p && v.v_tr.(tr) = v.v_aid))
        && violating v rows p tr d >= 0)
        || violated_into v rows d (k + 1))

  let rec any_into_changed v rows = function
    | [] -> false
    | d :: rest ->
        (changed v d
        &&
        let p_off, _, _ = pred v.v_sg in
        violated_into v rows d p_off.(d))
        || any_into_changed v rows rest

  (* The first kept arc of [s]'s row from [k] on that violates, or -1;
     [rm] is [removed v s]. *)
  let rec violating_arc v rows s rm k last =
    let sg = v.v_sg in
    if k = last then -1
    else if kept v rm k && violating v rows s sg.arc_tr.(k) sg.arc_dst.(k) >= 0
    then k
    else violating_arc v rows s rm (k + 1) last

  let rec first_violation v rows i =
    if i = v.v_n then None
    else
      let sg = v.v_sg and s = v.v_sc.vs_order.(i) in
      let k = violating_arc v rows s (removed v s) sg.off.(s) sg.off.(s + 1) in
      if k < 0 then first_violation v rows (i + 1)
      else
        let tr = sg.arc_tr.(k) in
        let j = violating v rows s tr sg.arc_dst.(k) in
        Some (s, rows.(s).(j), Stg.label sg.stg tr)

  let persistency_violation v =
    live v;
    let rows = enabled_arrays v.v_sg in
    if is_output_persistent v.v_sg && not (any_into_changed v rows v.v_states)
    then None
    else first_violation v rows 0

  (* The built graph's count on the reached states, with each changed
     row's controlled set less [a]. *)
  let csc_conflict_count v =
    live v;
    let sg = v.v_sg and order = v.v_sc.vs_order in
    match v.v_em with
    | Some em when sg.nsig <= 16 ->
        direct_csc_count sg ~order ~count:v.v_n ~masks:v.v_sc.vs_masks
          ~ctl:em.em_ctl
    | em ->
        sorted_csc_count sg ~order ~count:v.v_n
          ~ctl:(Option.map (fun em s -> mask v s land em.em_ctl) em)
          ~labels:(fun s ->
            let l = controlled_labels sg s in
            if changed v s then List.filter (fun lab -> lab <> v.v_a) l else l)

  let ghosts v =
    live v;
    let sg = v.v_sg and seen = v.v_sc.vs_seen in
    let exc = excited_masks sg in
    let extra = Array.make (2 * (sg.n - v.v_n)) 0 in
    let j = ref 0 and fp = ref sg.g_fp in
    for s = 0 to sg.n - 1 do
      if seen.(s) <> v.v_gen then begin
        extra.(!j) <- sg.codes.(s);
        extra.(!j + 1) <- exc.(s);
        j := !j + 2;
        fp := ghost_mix !fp sg.codes.(s) exc.(s)
      end
    done;
    {
      gh_codes = sg.g_codes;
      gh_excs = sg.g_excs;
      gh_extra = extra;
      gh_fp = !fp;
    }

  (* The excited-signal mask of a changed row's kept arcs. *)
  let kept_excited v s =
    let sg = v.v_sg in
    let e = ref 0 in
    for k = sg.off.(s) to sg.off.(s + 1) - 1 do
      if kept v true k then
        match Stg.label sg.stg sg.arc_tr.(k) with
        | Stg.Edge (sid, _) -> e := !e lor (1 lsl sid)
        | Stg.Dummy _ -> ()
    done;
    !e

  let support v =
    live v;
    let exc = excited_masks v.v_sg in
    List.fold_left
      (fun acc s ->
        if changed v s then acc lor (exc.(s) land lnot (kept_excited v s))
        else acc)
      0 v.v_states

  let changed_aggregates v =
    live v;
    let sg = v.v_sg in
    let exc = excited_masks sg and bc = by_code sg in
    (* The distinct codes of the changed rows, ascending: insertion into a
       short sorted prefix. *)
    let codes = Array.make (List.length v.v_states) 0 and nc = ref 0 in
    List.iter
      (fun s ->
        if changed v s then begin
          let c = sg.codes.(s) and j = ref 0 in
          while !j < !nc && codes.(!j) < c do
            incr j
          done;
          if !j = !nc || codes.(!j) <> c then begin
            Array.blit codes !j codes (!j + 1) (!nc - !j);
            codes.(!j) <- c;
            incr nc
          end
        end)
      v.v_states;
    let codes = Array.sub codes 0 !nc in
    let any = Array.make !nc 0 and all = Array.make !nc (-1) in
    Array.iteri
      (fun j c ->
        (* [c] is a code of [sg]: the last group with a code <= [c] is
           its group *)
        let lo = ref 0 and hi = ref (Array.length bc.bc_codes - 1) in
        while !lo < !hi do
          let mid = (!lo + !hi + 1) / 2 in
          if bc.bc_codes.(mid) <= c then lo := mid else hi := mid - 1
        done;
        (* Reached states contribute their masks after the removal;
           pruned ones, like the source's ghosts, their frozen
           source-side masks. *)
        for k = bc.bc_start.(!lo) to bc.bc_start.(!lo + 1) - 1 do
          let i = bc.bc_items.(k) in
          let e =
            if i < 0 then sg.g_excs.(-1 - i)
            else if changed v i then kept_excited v i
            else exc.(i)
          in
          any.(j) <- any.(j) lor e;
          all.(j) <- all.(j) land e
        done)
      codes;
    (codes, any, all)
end

(* ------------------------------------------------------------------ *)
(* Signature *)

(* Per-transition label names in sorted order, and each transition's rank
   in it. *)
let sig_tables stg =
  let names = Array.map (fun lab -> Stg.label_name stg lab) stg.Stg.labels in
  let sorted = Array.copy names in
  Array.sort compare sorted;
  let rank_of nm =
    let lo = ref 0 and hi = ref (Array.length sorted - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if sorted.(mid) < nm then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  (sorted, Array.map rank_of names)

let signature sg =
  (* Canonical BFS renumbering with deterministic tie-breaking on
     (label-name, old target id is NOT canonical — instead order children by
     label then by discovery).  For deterministic SGs this yields a canonical
     form; for nondeterministic ones it is still a sound dedup key (may
     distinguish isomorphic graphs, never conflates distinct ones).

     Arcs are ordered by (name rank, old target): rank order equals
     lexicographic name order and equal names share a rank, so the result
     is byte-identical to sorting (name, old target) pairs — without any
     string comparisons in the loop. *)
  let sorted_names, rank = sig_tables sg.stg in
  let buf = Buffer.create (sg.n * 8) in
  let rec add_int i =
    if i >= 10 then add_int (i / 10);
    Buffer.add_char buf (Char.chr (Char.code '0' + (i mod 10)))
  in
  let remap = Array.make sg.n (-1) in
  (* Flat-array BFS ring plus one reusable arc-key scratch: every reachable
     state enters the queue exactly once, and out-degrees are tiny, so an
     insertion sort into the scratch beats allocating and Array.sort-ing a
     fresh key array per state. *)
  let queue = Array.make sg.n 0 in
  let qhead = ref 0 and qtail = ref 1 in
  remap.(sg.initial) <- 0;
  queue.(0) <- sg.initial;
  let count = ref 1 in
  let maxdeg = ref 0 in
  for s = 0 to sg.n - 1 do
    let d = sg.off.(s + 1) - sg.off.(s) in
    if d > !maxdeg then maxdeg := d
  done;
  let arcs = Array.make (max 1 !maxdeg) 0 in
  while !qhead < !qtail do
    let s = queue.(!qhead) in
    incr qhead;
    let lo = sg.off.(s) in
    let deg = sg.off.(s + 1) - lo in
    for j = 0 to deg - 1 do
      (* sorting these keys ascending equals sorting (name, old target)
         pairs: rank order is lexicographic name order, equal names share
         a rank *)
      let key = (rank.(sg.arc_tr.(lo + j)) * sg.n) + sg.arc_dst.(lo + j) in
      let i = ref (j - 1) in
      while !i >= 0 && arcs.(!i) > key do
        arcs.(!i + 1) <- arcs.(!i);
        decr i
      done;
      arcs.(!i + 1) <- key
    done;
    add_int remap.(s);
    Buffer.add_char buf ':';
    for j = 0 to deg - 1 do
      let key = arcs.(j) in
      let s' = key mod sg.n in
      if remap.(s') = -1 then begin
        remap.(s') <- !count;
        incr count;
        queue.(!qtail) <- s';
        incr qtail
      end;
      Buffer.add_string buf sorted_names.(key / sg.n);
      Buffer.add_char buf '>';
      add_int remap.(s');
      Buffer.add_char buf ';'
    done;
    Buffer.add_char buf '|'
  done;
  Buffer.contents buf

(* The root arcs [sg] keeps, as a bitset over the root's arc indices up to
   the highest one kept (the set fixes the length, so equal sets give
   equal strings).  A graph of a filter lineage is fixed by the root arcs
   it keeps (its states are the root states they reach), so equal keys
   mean equal graphs; see sg.mli for when equal signatures mean equal
   keys. *)
let root_arc_key sg =
  let top = Array.fold_left max (-1) sg.arc_root in
  let b = Bytes.make ((top + 8) lsr 3) '\000' in
  Array.iter
    (fun r ->
      let i = r lsr 3 in
      Bytes.unsafe_set b i
        (Char.unsafe_chr
           (Char.code (Bytes.unsafe_get b i) lor (1 lsl (r land 7)))))
    sg.arc_root;
  Bytes.unsafe_to_string b

(* ------------------------------------------------------------------ *)
(* Output *)

let pp ppf sg =
  Format.fprintf ppf "SG: %d states, %d arcs, initial %s" sg.n (n_arcs sg)
    (code_display sg sg.initial)

let pp_full ppf sg =
  Format.fprintf ppf "@[<v>%a@," pp sg;
  for s = 0 to sg.n - 1 do
    let arcs =
      fold_succ sg s [] (fun acc tr s' ->
          Printf.sprintf "%s->%d" (Stg.trans_display sg.stg tr) s' :: acc)
      |> List.rev |> String.concat " "
    in
    Format.fprintf ppf "  s%d [%s] %s@," s (code_display sg s) arcs
  done;
  Format.fprintf ppf "@]"

(* Weak bisimulation: strong bisimulation over the tau-saturated system.
   States of both SGs are combined into one index space; labels are
   compared by name. *)
let weak_bisimilar sg1 sg2 =
  let n1 = sg1.n and n2 = sg2.n in
  let n = n1 + n2 in
  let arcs_of i =
    if i < n1 then
      fold_succ sg1 i [] (fun acc tr s' ->
          (Stg.label sg1.stg tr, sg1.stg, s') :: acc)
    else
      fold_succ sg2 (i - n1) [] (fun acc tr s' ->
          (Stg.label sg2.stg tr, sg2.stg, s' + n1) :: acc)
  in
  let is_tau = function Stg.Dummy _ -> true | Stg.Edge _ -> false in
  let name_of stg lab = Stg.label_name stg lab in
  (* Reflexive-transitive tau closure. *)
  let tau_closure = Array.make n [] in
  for s = 0 to n - 1 do
    let seen = Hashtbl.create 8 in
    let rec dfs v =
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.replace seen v ();
        List.iter (fun (lab, _, s') -> if is_tau lab then dfs s') (arcs_of v)
      end
    in
    dfs s;
    tau_closure.(s) <- Hashtbl.fold (fun v () acc -> v :: acc) seen []
  done;
  (* Weak successors: tau* a tau* per visible label name. *)
  let weak_succ = Array.make n [] in
  for s = 0 to n - 1 do
    let acc = Hashtbl.create 8 in
    List.iter
      (fun v ->
        List.iter
          (fun (lab, stg, s') ->
            if not (is_tau lab) then
              List.iter
                (fun s'' -> Hashtbl.replace acc (name_of stg lab, s'') ())
                tau_closure.(s'))
          (arcs_of v))
      tau_closure.(s);
    weak_succ.(s) <- Hashtbl.fold (fun k () l -> k :: l) acc []
  done;
  (* Partition refinement by signatures. *)
  let block = Array.make n 0 in
  let changed = ref true in
  while !changed do
    let signature s =
      let visible =
        weak_succ.(s)
        |> List.map (fun (lab, s') -> (lab, block.(s')))
        |> List.sort_uniq compare
      in
      let taus =
        tau_closure.(s)
        |> List.map (fun v -> block.(v))
        |> List.sort_uniq compare
      in
      (visible, taus)
    in
    let tbl = Hashtbl.create n in
    let next = Array.make n 0 in
    let count = ref 0 in
    for s = 0 to n - 1 do
      let key = (block.(s), signature s) in
      match Hashtbl.find_opt tbl key with
      | Some b -> next.(s) <- b
      | None ->
          Hashtbl.replace tbl key !count;
          next.(s) <- !count;
          incr count
    done;
    changed := next <> block;
    Array.blit next 0 block 0 n
  done;
  block.(sg1.initial) = block.(sg2.initial + n1)

let to_dot sg =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "digraph sg {\n  rankdir=TB;\n";
  for s = 0 to sg.n - 1 do
    add "  s%d [shape=%s label=\"%s\"];\n" s
      (if s = sg.initial then "doublecircle" else "circle")
      (code_display sg s)
  done;
  iter_arcs sg (fun s tr s' ->
      add "  s%d -> s%d [label=\"%s\"];\n" s s' (Stg.trans_display sg.stg tr));
  add "}\n";
  Buffer.contents buf
