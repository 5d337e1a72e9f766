type style = [ `Complex_gate | `Generalized_c ]

type driver =
  | Sop of Boolf.Cover.t
  | Gc of { set : Boolf.Cover.t; reset : Boolf.Cover.t }

type signal_impl = {
  signal : int;
  driver : driver;
  conflict_codes : int;
  is_wire : bool;
  is_constant : bool;
}

type impl = { sg : Sg.t; style : style; per_signal : signal_impl list }

(* The packed code IS the minterm (bit i = value of signal i). *)
let minterm_of_code sg s = Sg.code_bits sg s

(* Is an edge of [sigid] enabled in state [s]?  Early-exit row scan. *)
let excited sg s sigid =
  Sg.exists_succ sg s (fun tr _ ->
      match Stg.label (Sg.stg sg) tr with
      | Stg.Edge (sid, _) -> sid = sigid
      | Stg.Dummy _ -> false)

(* ------------------------------------------------------------------ *)
(* One-sweep extraction.

   Every per-signal derivation (ON/OFF sets, GC set/reset networks) is a
   per-code aggregate of per-state excitation.  Instead of one successor
   sweep per signal per state, a single CSR pass computes, for every state
   at once, the bitmask of signals with an enabled edge; a second pass
   folds those masks per distinct code.  All later per-signal questions are
   answered by bit tests against two masks per code:

     exc_any — OR  over the code's states of the excited mask
     exc_all — AND over the code's states of the excited mask

   For signal [k] with value [v] (bit [k] of the code), next-value 1 is
   possible iff some state leaves [k] at 1: [v = 1 && exc_all_k = 0] or
   [v = 0 && exc_any_k = 1]; symmetrically for next-value 0.  ER(k+)
   membership is [v = 0 && exc_any_k = 1], stable-0 is
   [v = 0 && exc_all_k = 0], etc.

   Cost-side extraction ([ghosts = true]) additionally folds the SG's
   ghost contributions — the (code, excited-mask) pairs of states pruned
   along the filter lineage, frozen at pruning time — into the same
   aggregates.  This keeps the don't-care universe stable along a
   reduction lineage, which is what makes a removal's per-signal support
   bound ({!Sg.View.support}) exact (see DESIGN.md, "Per-signal support
   tracking").
   Synthesis uses [ghosts = false]: final equations keep the paper's
   reachable-code semantics. *)

type extraction = {
  x_codes : int array;  (** distinct state codes, ascending *)
  x_any : int array;  (** per code: OR of excited-signal masks *)
  x_all : int array;  (** per code: AND of excited-signal masks *)
}

(* Per-domain scratch for the direct-address extraction path: tables grown
   on demand, the seen-map re-cleared entry by entry after each use.  One
   call touches O(distinct codes) of the tables instead of allocating and
   zeroing 2^nsig words — at nsig = 16 the old behaviour churned ~1 MiB
   per call even for a handful of states. *)
type scratch = {
  mutable sc_any : int array;
  mutable sc_all : int array;
  mutable sc_seen : Bytes.t;
  mutable sc_tmp : int array;
}

let scratch_key =
  Pool.Dls.new_key (fun () ->
      { sc_any = [||]; sc_all = [||]; sc_seen = Bytes.empty; sc_tmp = [||] })

let extract ~ghosts sg =
  let nsig = Stg.n_signals (Sg.stg sg) in
  let nst = Sg.n_states sg in
  let exc = Sg.excited_masks sg in
  let ng = if ghosts then Sg.n_ghosts sg else 0 in
  let total = nst + ng in
  (* Direct addressing only pays when the code-space table is no bigger
     than a small multiple of the contribution count; otherwise hash. *)
  if nsig <= 16 && 1 lsl nsig <= 4 * total then begin
    let size = 1 lsl nsig in
    let sc = Pool.Dls.get scratch_key in
    if Array.length sc.sc_any < size then begin
      sc.sc_any <- Array.make size 0;
      sc.sc_all <- Array.make size 0;
      sc.sc_seen <- Bytes.make size '\000'
    end;
    if Array.length sc.sc_tmp < total then sc.sc_tmp <- Array.make total 0;
    let any = sc.sc_any and all = sc.sc_all in
    let seen = sc.sc_seen and tmp = sc.sc_tmp in
    let k = ref 0 in
    let add m e =
      if Bytes.get seen m = '\000' then begin
        Bytes.set seen m '\001';
        tmp.(!k) <- m;
        incr k;
        any.(m) <- e;
        all.(m) <- e
      end
      else begin
        any.(m) <- any.(m) lor e;
        all.(m) <- all.(m) land e
      end
    in
    for s = 0 to nst - 1 do
      add (minterm_of_code sg s) exc.(s)
    done;
    if ghosts then Sg.iter_ghosts sg add;
    let codes = Array.sub tmp 0 !k in
    Array.sort Int.compare codes;
    let x =
      {
        x_codes = codes;
        x_any = Array.map (fun m -> any.(m)) codes;
        x_all = Array.map (fun m -> all.(m)) codes;
      }
    in
    (* Restore the all-zeros seen-map invariant for the next call. *)
    Array.iter (fun m -> Bytes.set seen m '\000') codes;
    x
  end
  else begin
    let idx = Hashtbl.create (2 * max 1 total) in
    let cs = Array.make (max total 1) 0 in
    let any = Array.make (max total 1) 0 and all = Array.make (max total 1) 0 in
    let k = ref 0 in
    let add m e =
      match Hashtbl.find_opt idx m with
      | Some i ->
          any.(i) <- any.(i) lor e;
          all.(i) <- all.(i) land e
      | None ->
          let i = !k in
          Hashtbl.add idx m i;
          cs.(i) <- m;
          any.(i) <- e;
          all.(i) <- e;
          incr k
    in
    for s = 0 to nst - 1 do
      add (minterm_of_code sg s) exc.(s)
    done;
    if ghosts then Sg.iter_ghosts sg add;
    let order = Array.init !k Fun.id in
    Array.sort (fun i j -> Int.compare cs.(i) cs.(j)) order;
    {
      x_codes = Array.map (fun i -> cs.(i)) order;
      x_any = Array.map (fun i -> any.(i)) order;
      x_all = Array.map (fun i -> all.(i)) order;
    }
  end

(* Complex-gate class of code [m] for signal [k], from the code's (any,
   all) excitation aggregates: 1 = ON (some state leaves [k] at 1 and
   none at 0), 0 = OFF, 2 = conflicting (both next values occur). *)
let sop_class k m any all =
  let v = (m lsr k) land 1 in
  let anyk = (any lsr k) land 1 and allk = (all lsr k) land 1 in
  let has1 = if v = 1 then allk = 0 else anyk = 1 in
  let has0 = if v = 1 then anyk = 1 else allk = 0 in
  if has0 && has1 then 2 else if has1 then 1 else 0

(* The codes [keep i] selects, as an array in [x_codes]'s order: one pass
   to size it, one to fill it. *)
let codes_where x keep =
  let count = ref 0 in
  for i = 0 to Array.length x.x_codes - 1 do
    if keep i then incr count
  done;
  let a = Array.make !count 0 and j = ref 0 in
  for i = 0 to Array.length x.x_codes - 1 do
    if keep i then begin
      a.(!j) <- x.x_codes.(i);
      incr j
    end
  done;
  a

(* ON/OFF sets (and conflict count) of one signal from an extraction.
   One pass classifies each code, gathering the ON codes at the front of
   the scratch array and the OFF codes at its back; both come out
   strictly ascending because [x_codes] is. *)
let sop_sets x sigid =
  let n = Array.length x.x_codes in
  let sc = Pool.Dls.get scratch_key in
  if Array.length sc.sc_tmp < n then sc.sc_tmp <- Array.make n 0;
  let tmp = sc.sc_tmp in
  let n_on = ref 0 and n_off = ref 0 in
  for i = 0 to n - 1 do
    let m = x.x_codes.(i) in
    match sop_class sigid m x.x_any.(i) x.x_all.(i) with
    | 1 ->
        tmp.(!n_on) <- m;
        incr n_on
    | 0 ->
        incr n_off;
        tmp.(n - !n_off) <- m
    | _ -> ()
  done;
  ( Array.sub tmp 0 !n_on,
    Array.init !n_off (fun j -> tmp.(n - 1 - j)),
    n - !n_on - !n_off )

(* [sop_sets]'s conflict count alone. *)
let conflict_codes x sigid =
  let c = ref 0 in
  for i = 0 to Array.length x.x_codes - 1 do
    if sop_class sigid x.x_codes.(i) x.x_any.(i) x.x_all.(i) = 2 then incr c
  done;
  !c

(* Set/reset networks for the generalized C-element:
   S: ON over ER(a+), OFF over stable-0 states and ER(a-);
   R: ON over ER(a-), OFF over stable-1 states and ER(a+).
   Conflicting codes (same code, both excited-to-rise and stable-0, etc.)
   are dropped from both and counted. *)
let gc_sets_x x sigid =
  (* Per code, the regions it is in: bit 0 = ER(a+), 1 = ER(a-),
     2 = stable-0, 3 = stable-1. *)
  let regions i =
    let v = (x.x_codes.(i) lsr sigid) land 1 in
    let excited = (x.x_any.(i) lsr sigid) land 1 = 1 in
    let stable = (x.x_all.(i) lsr sigid) land 1 = 0 in
    let bit b cond = if cond then 1 lsl b else 0 in
    bit v excited lor bit (2 + v) stable
  in
  (* A code is conflicting when it requires contradictory behaviour of
     either network: ER(a+) with stable-0 or ER(a-) for S, ER(a-) with
     stable-1 or ER(a+) for R. *)
  let conflict r =
    (r land 1 <> 0 && r land 6 <> 0) || (r land 2 <> 0 && r land 9 <> 0)
  in
  let where f =
    codes_where x (fun i ->
        let r = regions i in
        (not (conflict r)) && f r)
  in
  let conflicts = ref 0 in
  for i = 0 to Array.length x.x_codes - 1 do
    if conflict (regions i) then incr conflicts
  done;
  ( where (fun r -> r land 1 <> 0),
    where (fun r -> r land 1 = 0 && r land 6 <> 0),
    where (fun r -> r land 2 <> 0),
    where (fun r -> r land 2 = 0 && r land 9 <> 0),
    !conflicts )

(* A single positive literal of another signal: the cube's positively
   bound variables are [care land value], so no per-variable scan. *)
let wire_like sigid cover =
  match cover with
  | [ c ] ->
      Boolf.Cube.literals c = 1
      && (not (Boolf.Cube.bound c sigid))
      && c.Boolf.Cube.care land c.Boolf.Cube.value <> 0
  | [] | _ :: _ :: _ -> false

let synthesize_signal_sop x sg sigid =
  let nsig = Stg.n_signals (Sg.stg sg) in
  let on, off, conflict_codes = sop_sets x sigid in
  let cover = Boolf.minimize ~n:nsig ~on ~off in
  let is_constant = Array.length on = 0 || Array.length off = 0 in
  {
    signal = sigid;
    driver = Sop cover;
    conflict_codes;
    is_wire = wire_like sigid cover;
    is_constant;
  }

let synthesize_signal_gc x sg sigid =
  let nsig = Stg.n_signals (Sg.stg sg) in
  let s_on, s_off, r_on, r_off, conflict_codes = gc_sets_x x sigid in
  let set = Boolf.minimize ~n:nsig ~on:s_on ~off:s_off in
  let reset = Boolf.minimize ~n:nsig ~on:r_on ~off:r_off in
  {
    signal = sigid;
    driver = Gc { set; reset };
    conflict_codes;
    is_wire = false;
    is_constant = Array.length s_on = 0 && Array.length r_on = 0;
  }

let non_input_signals sg =
  let stg = Sg.stg sg in
  let acc = ref [] in
  for i = Stg.n_signals stg - 1 downto 0 do
    if not (Stg.Signal.is_input (Stg.signal stg i)) then acc := i :: !acc
  done;
  !acc

let c_synthesize = Obs.Counter.make "logic.synthesize.calls"

let synthesize ?(style = `Complex_gate) sg =
  Obs.Counter.incr c_synthesize;
  Obs.span "logic.synthesize" (fun () ->
      let x = extract ~ghosts:false sg in
      let per_signal =
        match style with
        | `Complex_gate ->
            List.map (synthesize_signal_sop x sg) (non_input_signals sg)
        | `Generalized_c ->
            List.map (synthesize_signal_gc x sg) (non_input_signals sg)
      in
      { sg; style; per_signal })

(* ------------------------------------------------------------------ *)
(* Cost evaluation.

   [evaluate] keeps, per non-input signal, the ON/OFF sets it minimized and
   the resulting cover/literal count, so a derived SG can be costed
   incrementally ([estimate_delta]) and repeated subproblems served from
   the {!Boolf.Memo} cover cache. *)

type per_sig = {
  ps_signal : int;
  ps_on : int array;
  ps_off : int array;
  ps_conflicts : int;
  ps_cover : Boolf.Cover.t;
  ps_literals : int;
}

type eval = { e_total : int; e_penalty : int; e_sigs : per_sig list }

let total e = e.e_total

let eval_of_sigs ~penalty sigs =
  let t =
    List.fold_left
      (fun acc ps -> acc + ps.ps_literals + (penalty * ps.ps_conflicts))
      0 sigs
  in
  { e_total = t; e_penalty = penalty; e_sigs = sigs }

let eval_signal ~memo ~nsig sigid (on, off, conflicts) =
  let cover =
    if memo then Boolf.Memo.minimize ~n:nsig ~on ~off
    else Boolf.minimize ~n:nsig ~on ~off
  in
  {
    ps_signal = sigid;
    ps_on = on;
    ps_off = off;
    ps_conflicts = conflicts;
    ps_cover = cover;
    ps_literals = Boolf.Cover.literals cover;
  }

let evaluate_gen ~conflict_penalty ~memo ~ghosts sg =
  let nsig = Stg.n_signals (Sg.stg sg) in
  let x = extract ~ghosts sg in
  let sigs =
    List.map
      (fun sigid -> eval_signal ~memo ~nsig sigid (sop_sets x sigid))
      (non_input_signals sg)
  in
  eval_of_sigs ~penalty:conflict_penalty sigs

let default_penalty = 4

let evaluate ?(conflict_penalty = default_penalty) ?(memo = true) sg =
  evaluate_gen ~conflict_penalty ~memo ~ghosts:true sg

let estimate ?(conflict_penalty = default_penalty) ?(ghosts = true) sg =
  (evaluate_gen ~conflict_penalty ~memo:false ~ghosts sg).e_total

(* [evaluate]'s total, summed conflict penalties first (they need no
   minimization), then one signal's literals at a time; every term is
   non-negative, so a partial sum that reaches [bound] settles it, and
   the signals after it never have their ON/OFF sets built. *)
let evaluate_bounded ~bound sg =
  let nsig = Stg.n_signals (Sg.stg sg) in
  let x = extract ~ghosts:true sg in
  let sigs = non_input_signals sg in
  let rec go acc = function
    | _ when acc >= bound -> None
    | [] -> Some acc
    | sigid :: rest ->
        let on, off, _ = sop_sets x sigid in
        go (acc + Boolf.Memo.literals ~n:nsig ~on ~off) rest
  in
  go
    (List.fold_left
       (fun acc sigid -> acc + (default_penalty * conflict_codes x sigid))
       0 sigs)
    sigs

let c_delta_inherited = Obs.Counter.make "logic.delta.inherited"
let c_delta_recomputed = Obs.Counter.make "logic.delta.recomputed"
let c_support_hit = Obs.Counter.make "logic.delta.support_hit"
let c_support_miss = Obs.Counter.make "logic.delta.support_miss"

(* Is [m] in the strictly ascending [a]?  Binary search. *)
let mem_sorted (a : int array) m =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if a.(mid) < m then lo := mid + 1 else hi := mid
  done;
  !lo < Array.length a && a.(!lo) = m

(* [a] with the affected [codes] stripped and those whose new class
   [cls j] is [which] merged back in: one merge walk into an array of the
   exact length [len]. *)
let splice ~codes ~cls ~(which : int) ~len a =
  let r = Array.make len 0 in
  let i = ref 0 and j = ref 0 and t = ref 0 in
  let la = Array.length a and nc = Array.length codes in
  while !i < la || !j < nc do
    if !j < nc && (!i >= la || codes.(!j) <= a.(!i)) then begin
      if !i < la && a.(!i) = codes.(!j) then incr i;
      if cls !j = which then begin
        r.(!t) <- codes.(!j);
        incr t
      end;
      incr j
    end
    else begin
      r.(!t) <- a.(!i);
      incr i;
      incr t
    end
  done;
  r

(* Patch one support-hit signal's triple at the affected codes, the codes
   of the rows a removal changed: the child's code universe is the
   parent's (surviving states keep their codes, pruned states stay as
   ghosts) and only those rows' contributions lost bits, so the triple
   can differ from the parent's only there.  Every affected code is in
   the parent's universe and classified there as ON, OFF or conflicting:
   a binary search in the parent's sorted arrays finds its old class.  A
   set that gains or loses an affected code is rebuilt by one merge
   walk; a set that does not is the parent's array, shared (no array is
   ever mutated once built).  Returns [None] when no affected code
   changed class for this signal — the triple is bit-for-bit the
   parent's. *)
let patch_sig ~codes ~any ~all ps =
  let k = ps.ps_signal in
  let cls j = sop_class k codes.(j) any.(j) all.(j) in
  let on_old = ref 0 and on_new = ref 0 in
  let off_old = ref 0 and off_new = ref 0 in
  let on_moved = ref false and off_moved = ref false in
  let conflicts = ref ps.ps_conflicts in
  for j = 0 to Array.length codes - 1 do
    let c = codes.(j) and now = cls j in
    let was =
      if mem_sorted ps.ps_on c then 1
      else if mem_sorted ps.ps_off c then 0
      else 2
    in
    if (was = 1) <> (now = 1) then on_moved := true;
    if (was = 0) <> (now = 0) then off_moved := true;
    if was = 2 then decr conflicts;
    if now = 2 then incr conflicts;
    if was = 1 then incr on_old;
    if now = 1 then incr on_new;
    if was = 0 then incr off_old;
    if now = 0 then incr off_new
  done;
  if not (!on_moved || !off_moved) then None
  else begin
    let rebuild moved which a old now =
      if not moved then a
      else splice ~codes ~cls ~which ~len:(Array.length a - old + now) a
    in
    Some
      ( rebuild !on_moved 1 ps.ps_on !on_old !on_new,
        rebuild !off_moved 0 ps.ps_off !off_old !off_new,
        !conflicts )
  end

(* Incremental evaluation of the child a removal view describes, from its
   source's evaluation [parent], without building the child.

   Soundness of the blind reuse (see DESIGN.md, "Per-signal support
   tracking"): the cost-side extraction aggregates the multiset of
   (code, excited-mask) contributions of the live states AND the ghosts,
   and the child's multiset differs from the parent's exactly in the bits
   the changed surviving rows lost: pruned states keep contributing their
   frozen parent-side pair.  The view's support is the union of those lost
   bits, so every signal outside it has bit-for-bit the parent's per-code
   (any, all) aggregates: its (ON, OFF, conflicts) triple and cover are
   inherited without looking further.  Support-hit signals are patched at
   the changed codes only ({!Sg.View.changed_aggregates}, [patch_sig]); a
   hit whose classes all survive still inherits the parent's cover
   ([Boolf.minimize] is a deterministic function of the triple), the rest
   go through the memoized minimizer. *)
let estimate_delta ~parent v =
  let nsig = Stg.n_signals (Sg.stg (Sg.View.source v)) in
  let inherited = ref 0 and recomputed = ref 0 in
  let support_hit = ref 0 and support_miss = ref 0 in
  let support = Sg.View.support v in
  let in_support ps = (support lsr ps.ps_signal) land 1 = 1 in
  let result =
    if not (List.exists in_support parent.e_sigs) then begin
      (* No evaluated signal intersects the support: the whole evaluation
         is the parent's, no aggregate is even computed. *)
      let k = List.length parent.e_sigs in
      inherited := k;
      support_miss := k;
      parent
    end
    else begin
      let codes, any, all = Sg.View.changed_aggregates v in
      let sigs =
        List.map
          (fun ps ->
            if not (in_support ps) then begin
              incr inherited;
              incr support_miss;
              ps
            end
            else begin
              incr support_hit;
              match patch_sig ~codes ~any ~all ps with
              | None ->
                  incr inherited;
                  ps
              | Some (on, off, conflicts) ->
                  incr recomputed;
                  eval_signal ~memo:true ~nsig ps.ps_signal
                    (on, off, conflicts)
            end)
          parent.e_sigs
      in
      eval_of_sigs ~penalty:parent.e_penalty sigs
    end
  in
  if !inherited > 0 then Obs.Counter.add c_delta_inherited !inherited;
  if !recomputed > 0 then Obs.Counter.add c_delta_recomputed !recomputed;
  if !support_hit > 0 then Obs.Counter.add c_support_hit !support_hit;
  if !support_miss > 0 then Obs.Counter.add c_support_miss !support_miss;
  result

let gate_cost_2input = 16
let gate_cost_inverter = 8
let gate_cost_celement = 32

let cover_area cover =
  match cover with
  | [] -> 0 (* constant 0 *)
  | [ c ] when Boolf.Cube.literals c = 0 -> 0 (* constant 1 *)
  | [ c ] when Boolf.Cube.literals c = 1 ->
      (* wire or single inverter *)
      let v =
        let rec find i = if Boolf.Cube.bound c i then i else find (i + 1) in
        find 0
      in
      if Boolf.Cube.polarity c v then 0 else gate_cost_inverter
  | cover ->
      let and_gates =
        List.fold_left
          (fun acc c -> acc + max 0 (Boolf.Cube.literals c - 1))
          0 cover
      in
      let or_gates = List.length cover - 1 in
      (* Inverters: one per variable used in negative polarity anywhere.
         A cube's negatively bound variables are [care land lnot value],
         so the union over the cover and a popcount cover exactly the
         variables actually present — no fixed scan range to outgrow. *)
      let neg =
        List.fold_left
          (fun acc c ->
            acc lor (c.Boolf.Cube.care land lnot c.Boolf.Cube.value))
          0 cover
      in
      let neg_vars = ref 0 in
      let m = ref neg in
      while !m <> 0 do
        m := !m land (!m - 1);
        incr neg_vars
      done;
      ((and_gates + or_gates) * gate_cost_2input)
      + (!neg_vars * gate_cost_inverter)

let driver_area = function
  | Sop cover -> cover_area cover
  | Gc { set; reset } ->
      cover_area set + cover_area reset + gate_cost_celement

let conflicts impl =
  List.fold_left (fun acc si -> acc + si.conflict_codes) 0 impl.per_signal

let area_opt impl =
  if conflicts impl > 0 then None
  else
    Some
      (List.fold_left (fun acc si -> acc + driver_area si.driver) 0
         impl.per_signal)

let area impl =
  match area_opt impl with
  | Some a -> a
  | None ->
      invalid_arg
        (Printf.sprintf "Logic.area: %d CSC-conflicting codes remain"
           (conflicts impl))

let render impl =
  let names =
    Array.map (fun s -> s.Stg.Signal.name) (Sg.stg impl.sg).Stg.signals
  in
  let line si =
    let name = names.(si.signal) in
    let body =
      match si.driver with
      | Sop cover -> Boolf.Cover.render ~names cover
      | Gc { set; reset } ->
          Printf.sprintf "C(%s / %s)"
            (Boolf.Cover.render ~names set)
            (Boolf.Cover.render ~names reset)
    in
    let extra =
      if si.conflict_codes > 0 then
        Printf.sprintf "   # %d conflicting codes" si.conflict_codes
      else ""
    in
    Printf.sprintf "%s = %s%s" name body extra
  in
  String.concat "\n" (List.map line impl.per_signal)

let zero_delay_signals impl =
  List.filter_map
    (fun si -> if si.is_wire || si.is_constant then Some si.signal else None)
    impl.per_signal
