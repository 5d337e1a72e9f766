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

let insert_signal stg ~set ~reset ~name =
  if set = reset then invalid_arg "Csc.insert_signal: coinciding sites";
  (try
     ignore (Stg.signal_of_name stg name);
     invalid_arg (Printf.sprintf "Csc.insert_signal: signal %s exists" name)
   with Not_found -> ());
  check_site stg set;
  check_site stg reset;
  let net = stg.Stg.net in
  let b = Petri.Builder.create () in
  for p = 0 to Petri.n_places net - 1 do
    ignore
      (Petri.Builder.add_place b ~name:(Petri.place_name net p)
         ~tokens:net.Petri.initial.(p))
  done;
  for t = 0 to Petri.n_trans net - 1 do
    ignore (Petri.Builder.add_trans b ~name:(Petri.trans_name net t))
  done;
  let t_plus = Petri.Builder.add_trans b ~name:(name ^ "+") in
  let t_minus = Petri.Builder.add_trans b ~name:(name ^ "-") in
  let edge_of = function
    | s when s = set -> t_plus
    | _ -> t_minus
  in
  (* On_arc sites: the producer's arc to the place is re-routed through the
     new edge: t1 -> q -> c± -> p.  The initial token of a marked place
     stays in the place, so the first occurrence of the new edge follows the
     first firing of the producer. *)
  let rerouted = Hashtbl.create 4 in
  List.iter
    (fun s ->
      match s with
      | On_arc p -> Hashtbl.replace rerouted p (edge_of s)
      | After _ -> ())
    [ set; reset ];
  for t = 0 to Petri.n_trans net - 1 do
    Array.iter (fun p -> Petri.Builder.arc_pt b p t) net.Petri.pre.(t);
    let series_edge =
      match (set, reset) with
      | After ts, _ when ts = t -> Some t_plus
      | _, After tr when tr = t -> Some t_minus
      | (After _ | On_arc _), (After _ | On_arc _) -> None
    in
    match series_edge with
    | Some edge ->
        let q =
          Petri.Builder.add_place b
            ~name:(Printf.sprintf "q_%s_%s" name (Petri.trans_name net t))
            ~tokens:0
        in
        Petri.Builder.arc_tp b t q;
        Petri.Builder.arc_pt b q edge;
        Array.iter (fun p -> Petri.Builder.arc_tp b edge p) net.Petri.post.(t)
    | None ->
        Array.iter
          (fun p ->
            match Hashtbl.find_opt rerouted p with
            | Some edge ->
                let q =
                  Petri.Builder.add_place b
                    ~name:
                      (Printf.sprintf "q_%s_%s" name (Petri.place_name net p))
                    ~tokens:0
                in
                Petri.Builder.arc_tp b t q;
                Petri.Builder.arc_pt b q edge;
                Petri.Builder.arc_tp b edge p
            | None -> Petri.Builder.arc_tp b t p)
          net.Petri.post.(t)
  done;
  let kind_names k =
    Array.to_list stg.Stg.signals
    |> List.filter_map (fun s ->
           if s.Stg.Signal.kind = k then Some s.Stg.Signal.name else None)
  in
  Stg.of_net
    ~inputs:(kind_names Stg.Signal.Input)
    ~outputs:(kind_names Stg.Signal.Output)
    ~internals:(kind_names Stg.Signal.Internal @ [ name ])
    (Petri.Builder.build b)

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
   [Fallback] covers what the triple cannot represent. *)

exception Fallback
exception Over_budget
exception Conflict of string

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

let product_exn ~budget ~constrained sg stg' =
  if not constrained then raise Fallback;
  let stg = Sg.stg sg in
  let net' = stg'.Stg.net in
  let t_plus = Petri.n_trans stg.Stg.net in
  let t_minus = t_plus + 1 in
  (* The inserted place in an edge's preset, or -1 for a free edge: an
     On_arc site inside the After site's postset leaves its edge with no
     place at all, enabled in every state. *)
  let q_of t =
    match (net'.Petri.pre.(t), net'.Petri.post.(t)) with
    | [| q |], _ -> q
    | [||], [||] -> -1
    | _ -> raise Fallback
  in
  let q_plus = q_of t_plus and q_minus = q_of t_minus in
  let c, name =
    match Stg.label stg' t_plus with
    | Stg.Edge (c, _) -> (c, (Stg.signal stg' c).Stg.Signal.name)
    | Stg.Dummy _ -> raise Fallback
  in
  (* bit 0: firing [t] marks [q+]; bit 1: it marks [q-] *)
  let adds =
    Array.init t_plus (fun t ->
        let post = net'.Petri.post.(t) in
        (if Array.mem q_plus post then 1 else 0)
        lor if Array.mem q_minus post then 2 else 0)
  in
  let parent_sig =
    Array.init (Stg.n_signals stg') (fun i ->
        if i = c then -1
        else Stg.signal_of_name stg (Stg.signal stg' i).Stg.Signal.name)
  in
  (* key = parent state * 8 + token in q+ (1) + token in q- (2) + parity
     of the new signal (4) *)
  let index = Array.make (8 * Sg.n_states sg) (-1) in
  let keys = ref (Array.make 64 0) and marks = ref (Array.make 64 [||]) in
  let b = Sg.Builder.create ~expect:(2 * Sg.n_states sg) stg' in
  let target key mark =
    let j = index.(key) in
    if j >= 0 then j
    else begin
      let m = mark () in
      let j = Sg.Builder.add_state b m in
      if j = Array.length !keys then begin
        let grow a fill =
          let g = Array.make (2 * j) fill in
          Array.blit a 0 g 0 j;
          g
        in
        keys := grow !keys 0;
        marks := grow !marks [||]
      end;
      !keys.(j) <- key;
      !marks.(j) <- m;
      index.(key) <- j;
      if j + 1 > budget then raise Over_budget;
      j
    end
  in
  ignore (target (8 * Sg.initial sg) (fun () -> Petri.initial_marking net'));
  (* initial value of the new signal, inferred from its first edge as
     [of_stg] does; its first contradicting edge ends the exploration *)
  let v0 = ref (-1) in
  let fire_new i key tr want =
    let m = !marks.(i) in
    let j = target key (fun () -> Petri.fire net' m tr) in
    Sg.Builder.add_arc b i tr j;
    let v = want lxor ((!keys.(i) lsr 2) land 1) in
    if !v0 = -1 then v0 := v
    else if !v0 <> v then
      raise
        (Conflict
           (Printf.sprintf "signal %s: conflicting initial value via %s" name
              (Stg.trans_display stg' tr)))
  in
  let i = ref 0 in
  while !i < Sg.Builder.n_states b do
    let i' = !i in
    let key = !keys.(i') in
    let s = key lsr 3 and x = key land 7 in
    let m = !marks.(i') in
    Sg.iter_succ sg s (fun tr s' ->
        if Petri.enabled net' m tr then begin
          let add = adds.(tr) in
          if x land add <> 0 then raise Fallback (* a second token in a q *);
          let j =
            target ((8 * s') + (x lor add)) (fun () -> Petri.fire net' m tr)
          in
          Sg.Builder.add_arc b i' tr j
        end);
    if q_plus < 0 then fire_new i' (key lxor 4) t_plus 0
    else if x land 1 <> 0 then fire_new i' (key lxor 5) t_plus 0;
    if q_minus < 0 then fire_new i' (key lxor 4) t_minus 1
    else if x land 2 <> 0 then fire_new i' (key lxor 6) t_minus 1;
    incr i
  done;
  if !v0 = -1 then raise Fallback (* [of_stg] warns about it *);
  let keys = !keys and v0 = !v0 in
  let code j sigid =
    let key = keys.(j) in
    if sigid = c then v0 lxor ((key lsr 2) land 1)
    else Sg.value sg (key lsr 3) parent_sig.(sigid)
  in
  Sg.Builder.build b ~code ~initial:0

let product_gen ?(budget = Sg.default_budget) ~constrained sg stg' =
  match product_exn ~budget ~constrained sg stg' with
  | child -> Some (Ok child)
  | exception Over_budget -> Some (Error (Sg.Unbounded budget))
  | exception Conflict msg -> Some (Error (Sg.Inconsistent msg))
  | exception Fallback -> None

let product ?budget sg stg' =
  product_gen ?budget ~constrained:(all_constrained sg) sg stg'

type resolution = {
  stg : Stg.t;
  sg : Sg.t;
  inserted : (string * string * string) list;
}

exception Out_of_work

let c_resolve = Obs.Counter.make "csc.resolve.calls"
let c_insertions = Obs.Counter.make "csc.insertions.tried"
let c_inserted = Obs.Counter.make "csc.signals.inserted"
let c_invalid_site = Obs.Counter.make "csc.reject.invalid_site"
let c_sg_error = Obs.Counter.make "csc.reject.sg_error"
let c_not_si = Obs.Counter.make "csc.reject.not_si"
let c_more_conflicts = Obs.Counter.make "csc.reject.more_conflicts"
let c_not_final = Obs.Counter.make "csc.reject.not_final"
let c_accepted = Obs.Counter.make "csc.accepted"
let c_scored = Obs.Counter.make "csc.scored"
let c_product = Obs.Counter.make "csc.child.product"
let c_fallback = Obs.Counter.make "csc.child.fallback"

let reject counter =
  Obs.Counter.incr counter;
  None

(* Evaluate one candidate insertion, cheapest check first; None when
   invalid or degrading.  Plateau steps (same conflict count) are kept: a
   signal can trade the current conflict for a new one that a further
   signal resolves.  The last signal ([final]) must leave no conflict. *)
let try_insertion ?budget ~constrained ~final sg conflicts ~set ~reset ~name =
  match insert_signal (Sg.stg sg) ~set ~reset ~name with
  | exception Invalid_argument _ -> reject c_invalid_site
  | stg' -> (
      let child =
        match product_gen ?budget ~constrained sg stg' with
        | Some child ->
            Obs.Counter.incr c_product;
            child
        | None ->
            Obs.Counter.incr c_fallback;
            Sg.of_stg ?budget stg'
      in
      match child with
      | Error _ -> reject c_sg_error
      | Ok sg' ->
          let c = Sg.csc_conflict_count sg' in
          if c > conflicts then reject c_more_conflicts
          else if final && c > 0 then reject c_not_final
          else if not (Sg.is_speed_independent sg') then reject c_not_si
          else begin
            Obs.Counter.incr c_accepted;
            Some (stg', sg', c)
          end)

(* Backtracking descends into the best few candidates only. *)
let n_best = 5

let resolve ?(max_signals = 6) ?budget ?(work = 20_000) sg0 =
  Obs.Counter.incr c_resolve;
  Obs.span "csc.resolve" @@ fun () ->
  (* [work] bounds the total number of candidate insertions evaluated, so
     that unresolvable specifications (e.g. conflicts separated only by
     input events, like the paper's Fig. 1) fail fast instead of exploring
     the whole plateau tree. *)
  let work_left = ref work in
  let rec solve stg sg depth inserted =
    let conflicts = Sg.csc_conflict_count sg in
    if conflicts = 0 then Ok { stg; sg; inserted = List.rev inserted }
    else if depth = 0 then Error "signal budget exhausted"
    else begin
      let name = Printf.sprintf "csc%d" (List.length inserted) in
      let constrained = all_constrained sg in
      let all_sites = sites stg in
      (* A level enumerates every pair before it recurses, so one that
         would run out of work fails before evaluating any. *)
      let ns = List.length all_sites in
      let pairs = ns * (ns - 1) in
      if !work_left < pairs then raise Out_of_work;
      work_left := !work_left - pairs;
      let accepted = ref [] in
      List.iter
        (fun set ->
          List.iter
            (fun reset ->
              if set <> reset then begin
                Obs.Counter.incr c_insertions;
                match
                  try_insertion ?budget ~constrained ~final:(depth = 1) sg
                    conflicts ~set ~reset ~name
                with
                | Some (stg', sg', c) ->
                    accepted := (c, stg', sg', set, reset) :: !accepted
                | None -> ()
              end)
            all_sites)
        all_sites;
      (* Candidates rank by (conflicts, literals), so none with more
         conflicts than the [n_best]-th smallest count can make the cut:
         only the others are scored. *)
      let counts =
        List.sort Int.compare (List.map (fun (c, _, _, _, _) -> c) !accepted)
      in
      let cut =
        Option.value ~default:max_int (List.nth_opt counts (n_best - 1))
      in
      let scored =
        List.filter_map
          (fun (c, stg', sg', set, reset) ->
            if c > cut then None
            else begin
              Obs.Counter.incr c_scored;
              let score = (c, Logic.total (Logic.evaluate sg')) in
              Some (score, stg', sg', set, reset)
            end)
          !accepted
      in
      let sorted =
        List.stable_sort
          (fun (s1, _, _, _, _) (s2, _, _, _, _) -> compare s1 s2)
          scored
      in
      let rec try_best = function
        | [] -> Error "no valid insertion found"
        | (_, stg', sg', set, reset) :: rest -> (
            let step = (name, site_display stg set, site_display stg reset) in
            match solve stg' sg' (depth - 1) (step :: inserted) with
            | Ok r -> Ok r
            | Error _ -> try_best rest)
      in
      try_best (List.filteri (fun i _ -> i < n_best) sorted)
    end
  in
  match solve (Sg.stg sg0) sg0 max_signals [] with
  | Ok r as result ->
      Obs.Counter.add c_inserted (List.length r.inserted);
      result
  | Error _ as result -> result
  | exception Out_of_work -> Error "insertion work budget exhausted"

let count_signals ?max_signals sg =
  match resolve ?max_signals sg with
  | Ok r -> Some (List.length r.inserted)
  | Error _ -> None
