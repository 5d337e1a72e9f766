type invalid_reason =
  | Not_concurrent
  | Input_event
  | Event_vanishes of Stg.label
  | Deadlock_introduced of Sg.state
  | Persistency_broken of (Sg.state * Stg.label * Stg.label)

let pp_invalid stg ppf = function
  | Not_concurrent -> Format.pp_print_string ppf "events are not concurrent"
  | Input_event -> Format.pp_print_string ppf "cannot delay an input event"
  | Event_vanishes lab ->
      Format.fprintf ppf "event %s disappears" (Stg.label_name stg lab)
  | Deadlock_introduced s -> Format.fprintf ppf "deadlock at state %d" s
  | Persistency_broken (s, lab, by) ->
      Format.fprintf ppf "persistency of %s broken by %s at state %d"
        (Stg.label_name stg lab) (Stg.label_name stg by) s

(* Per-domain scratch of the backward search, over state ids:
   [rs_inside.(s) = rs_gen] for the states it may enter,
   [rs_reached.(s) = rs_gen] for those it reached, [rs_stack] the
   reached states still to expand.  Stamping with a fresh generation per
   search clears every mark for free, as {!Sg.View.make}'s scratch does. *)
type reach_scratch = {
  mutable rs_gen : int;
  mutable rs_inside : int array;
  mutable rs_reached : int array;
  mutable rs_stack : int array;
}

let reach_key =
  Pool.Dls.new_key (fun () ->
      { rs_gen = 0; rs_inside = [||]; rs_reached = [||]; rs_stack = [||] })

(* A fresh generation of the domain's scratch for a search on [sg]. *)
let reach_scratch sg =
  let sc = Pool.Dls.get reach_key in
  let n = Sg.n_states sg in
  if Array.length sc.rs_inside < n then begin
    sc.rs_inside <- Array.make n (-1);
    sc.rs_reached <- Array.make n (-1);
    sc.rs_stack <- Array.make n 0
  end;
  sc.rs_gen <- sc.rs_gen + 1;
  sc

(* Reach backwards, inside the stamped states, from the states [seed]
   visits; returns how many states were reached. *)
let reach_back sg sc ~seed =
  let gen = sc.rs_gen in
  let inside = sc.rs_inside and reached = sc.rs_reached in
  let stack = sc.rs_stack and top = ref 0 and count = ref 0 in
  let visit s =
    if inside.(s) = gen && reached.(s) <> gen then begin
      reached.(s) <- gen;
      stack.(!top) <- s;
      incr top;
      incr count
    end
  in
  seed visit;
  let pred _ s = visit s in
  while !top > 0 do
    decr top;
    Sg.iter_pred sg stack.(!top) pred
  done;
  !count

let back_reach sg ~within targets =
  let sc = reach_scratch sg in
  List.iter (fun s -> sc.rs_inside.(s) <- sc.rs_gen) within;
  ignore (reach_back sg sc ~seed:(fun visit -> List.iter visit targets));
  let acc = ref [] in
  for s = Sg.n_states sg - 1 downto 0 do
    if sc.rs_reached.(s) = sc.rs_gen then acc := s :: !acc
  done;
  !acc

let label_is_input stg = function
  | Stg.Edge (sigid, _) -> Stg.Signal.is_input (Stg.signal stg sigid)
  | Stg.Dummy _ -> false

type built = { cand : Sg.t; old_of_new : Sg.state array }

(* The arc filter behind every reduction: drop the arcs labelled [a] out
   of [states], prune and renumber.  Transitions carrying [a] and the
   states are dense bool tables: the filter tests membership once per
   arc. *)
let remove sg ~a states =
  let removed = Array.make (Sg.n_states sg) false in
  List.iter (fun s -> removed.(s) <- true) states;
  let is_a = Array.make (Petri.n_trans (Sg.stg sg).Stg.net) false in
  List.iter (fun tr -> is_a.(tr) <- true) (Stg.instances (Sg.stg sg) a);
  let cand, old_of_new =
    Sg.filter_arcs sg ~keep:(fun s tr _ -> not (removed.(s) && is_a.(tr)))
  in
  { cand; old_of_new }

(* Def. 5.1 validity checks over an already-pruned candidate
   ({!Sg.filter_arcs} prunes unreachable states in one BFS): the
   reachable label set can only shrink under arc removal, so vanishing is
   the source's cached {!Sg.arc_label_instances} minus the reduced one,
   and a new deadlock is a reduced state with no successors whose source
   state had some.  The reference the removal view ([judge]) is tested
   against. *)
let validate ~source { cand = reduced; old_of_new } =
  (* Transitions still firing somewhere in the pruned graph: a plain sweep
     ([Petri.trans] is a dense int), no hashing. *)
  let seen_tr = Array.make (Petri.n_trans (Sg.stg source).Stg.net) false in
  Sg.iter_arcs reduced (fun _ tr _ -> seen_tr.(tr) <- true);
  let vanished =
    List.find_opt
      (fun (_, trs) -> not (List.exists (fun tr -> seen_tr.(tr)) trs))
      (Sg.arc_label_instances source)
  in
  match vanished with
  | Some (lab, _) -> Error (Event_vanishes lab)
  | None -> (
      let deadlock = ref None in
      for s_new = Sg.n_states reduced - 1 downto 0 do
        if
          Sg.out_degree reduced s_new = 0
          && Sg.out_degree source old_of_new.(s_new) > 0
        then deadlock := Some old_of_new.(s_new)
      done;
      match !deadlock with
      | Some s -> Error (Deadlock_introduced s)
      | None -> (
          match Sg.first_persistency_violation reduced with
          | Some (s, lab, by) when Sg.is_output_persistent source ->
              Error (Persistency_broken (old_of_new.(s), lab, by))
          | Some _ | None ->
              (* A violation in a child of a source that was not
                 output-persistent is accepted as-is: Prop. 6.1 does not
                 apply. *)
              Ok reduced))

(* The same checks in the same order, on a removal view of [source]; the
   persistency scan is skipped where its verdict would be ignored. *)
let judge ~source v =
  match Sg.View.vanished v with
  | Some lab -> Error (Event_vanishes lab)
  | None -> (
      match Sg.View.deadlock v with
      | Some s -> Error (Deadlock_introduced s)
      | None when not (Sg.is_output_persistent source) -> Ok ()
      | None -> (
          match Sg.View.persistency_violation v with
          | Some viol -> Error (Persistency_broken viol)
          | None -> Ok ()))

(* ER lists are ascending (Sg.er), so ER(a) ∩ ER(b) is one merge walk
   and the removal set, ER(a) filtered by the reached stamps, stays
   ascending. *)
let fwd_red_states sg ~a ~b =
  let stg = Sg.stg sg in
  if label_is_input stg a then Error Input_event
  else
    let era = Sg.er sg a and erb = Sg.er sg b in
    let sc = reach_scratch sg in
    List.iter (fun s -> sc.rs_inside.(s) <- sc.rs_gen) era;
    let seed visit =
      let rec inter (la : Sg.state list) lb =
        match (la, lb) with
        | x :: ta, y :: tb ->
            if x < y then inter ta lb
            else if y < x then inter la tb
            else begin
              visit x;
              inter ta tb
            end
        | [], _ | _, [] -> ()
      in
      inter era erb
    in
    match reach_back sg sc ~seed with
    | 0 -> Error Not_concurrent
    | reached when reached = List.length era ->
        (* [a]-arcs originate exactly in ER(a): dropping them from all of
           ER(a) makes [a] vanish, whatever else the removal does. *)
        Error (Event_vanishes a)
    | _ ->
        let gen = sc.rs_gen and stamps = sc.rs_reached in
        Ok (List.filter (fun s -> stamps.(s) = gen) era)

let fwd_red_built sg ~a ~b =
  Result.map (remove sg ~a) (fwd_red_states sg ~a ~b)

let fwd_red sg ~a ~b =
  Result.bind (fwd_red_built sg ~a ~b) (validate ~source:sg)

(* The more general single-state reduction of [3]: remove the arcs of one
   event from ONE state only, provided the event remains enabled elsewhere.
   Expensive to search over but strictly more general than FwdRed. *)
let remove_arc sg ~state ~a =
  let stg = Sg.stg sg in
  if label_is_input stg a then Error Input_event
  else if not (List.mem a (Sg.enabled_labels sg state)) then
    Error Not_concurrent
  else validate ~source:sg (remove sg ~a [ state ])

(* Which of two labels can fire first from the initial state: explore until
   an arc with either label is taken. *)
let first_fired sg ~a ~b =
  let can_first target other =
    (* path from initial reaching a [target] arc with no [other] arc before *)
    let seen = Array.make (Sg.n_states sg) false in
    let rec dfs s =
      seen.(s) <- true;
      Sg.exists_succ sg s (fun tr s' ->
          let lab = Stg.label (Sg.stg sg) tr in
          if lab = target then true
          else if lab = other then false
          else (not seen.(s')) && dfs s')
    in
    dfs (Sg.initial sg)
  in
  (can_first a b, can_first b a)

let realize ~applied reduced =
  let stg = Sg.stg reduced in
  let pairs = List.sort_uniq compare applied in
  let rec constrain stg_acc = function
    | [] -> Ok stg_acc
    | (a, b) :: rest -> (
        let a_first, b_first = first_fired reduced ~a ~b in
        match (a_first, b_first) with
        | true, true ->
            Error
              (Printf.sprintf
                 "reduction (%s after %s) is not a simple causality place"
                 (Stg.label_name stg a) (Stg.label_name stg b))
        | _ ->
            let tokens = if a_first then 1 else 0 in
            let insts_a = Stg.instances stg_acc a
            and insts_b = Stg.instances stg_acc b in
            let add_place st tb =
              List.fold_left
                (fun st ta ->
                  let st = Stg.add_causality st tb ta in
                  if tokens = 1 then begin
                    (* mark the just-added place (the last one) *)
                    let net = st.Stg.net in
                    let p = Petri.n_places net - 1 in
                    net.Petri.initial.(p) <- 1;
                    st
                  end
                  else st)
                st insts_a
            in
            constrain (List.fold_left add_place stg_acc insts_b) rest)
  in
  match constrain stg pairs with
  | Error _ as e -> e
  | Ok stg' -> (
      (* The realized SG must reproduce [reduced] exactly, so exploring past
         its state count already disproves the isomorphism — a tight budget
         keeps bad candidates (e.g. unbounded nets from a cross-branch
         causality place) from walking the full default budget. *)
      (* [warn] silenced: this is an internal verification build — if an
         unconstrained default skews the encoding, the signature check
         below rejects the candidate anyway. *)
      match
        Sg.of_stg ~budget:(Sg.n_states reduced) ~warn:(fun _ -> ()) stg'
      with
      | Error e ->
          Error (Format.asprintf "realized STG is not valid: %a" Sg.pp_error e)
      | Ok sg' ->
          if String.equal (Sg.signature sg') (Sg.signature reduced) then
            Ok stg'
          else Error "realized STG does not reproduce the reduced SG")
