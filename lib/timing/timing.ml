type result = {
  period : int;
  input_events_on_cycle : int;
  cycle_events : Petri.trans list;
  firings_per_period : int;
}

let table_delays stg t = if Stg.is_input_trans stg t then 2 else 1

let par_delays stg t = if Stg.is_input_trans stg t then 6 else 3

(* One firing record: transition, completion time, index of the critical
   predecessor firing (-1 when determined by an initial token). *)
type firing = { tr : Petri.trans; time : int; pred : int }

type sim = {
  stg : Stg.t;
  delays : Petri.trans -> int;
  tokens : (int * int) Queue.t array;  (** per place FIFO: arrival, producer *)
  marking : Petri.marking;
  mutable firings : firing list;  (** reversed *)
  mutable n_firings : int;
}

let sim_create stg delays =
  let net = stg.Stg.net in
  let n_places = Petri.n_places net in
  let tokens = Array.init n_places (fun _ -> Queue.create ()) in
  let m0 = Petri.initial_marking net in
  for p = 0 to n_places - 1 do
    for _ = 1 to m0.(p) do
      Queue.add (0, -1) tokens.(p)
    done
  done;
  { stg; delays; tokens; marking = m0; firings = []; n_firings = 0 }

(* Earliest firable transition: (fire_time, trans, critical pred). *)
let pick sim =
  let net = sim.stg.Stg.net in
  let best = ref None in
  for t = 0 to Petri.n_trans net - 1 do
    if Petri.enabled net sim.marking t then begin
      let start = ref (-1) and pred = ref (-1) in
      Array.iter
        (fun p ->
          match Queue.peek_opt sim.tokens.(p) with
          | Some (arr, producer) ->
              if arr > !start then begin
                start := arr;
                pred := producer
              end
          | None -> assert false)
        net.Petri.pre.(t);
      let fire_at = !start + sim.delays t in
      match !best with
      | Some (fa, _, _) when fa <= fire_at -> ()
      | Some _ | None -> best := Some (fire_at, t, !pred)
    end
  done;
  !best

(* Execute one firing; false on deadlock. *)
let step sim =
  match pick sim with
  | None -> false
  | Some (fire_at, t, pred) ->
      let net = sim.stg.Stg.net in
      Array.iter
        (fun p ->
          match Queue.take_opt sim.tokens.(p) with
          | Some _ -> sim.marking.(p) <- sim.marking.(p) - 1
          | None -> assert false)
        net.Petri.pre.(t);
      let idx = sim.n_firings in
      sim.firings <- { tr = t; time = fire_at; pred } :: sim.firings;
      sim.n_firings <- idx + 1;
      Array.iter
        (fun p ->
          Queue.add (fire_at, idx) sim.tokens.(p);
          sim.marking.(p) <- sim.marking.(p) + 1)
        net.Petri.post.(t);
      true

(* Timed-state fingerprint after a firing at time [now]: token ages per
   place (order preserved — FIFOs).  Two equal fingerprints have identical
   futures up to time shift. *)
let snapshot sim now =
  let buf = Buffer.create 64 in
  Array.iteri
    (fun p toks ->
      Buffer.add_string buf (string_of_int p);
      Buffer.add_char buf ':';
      Queue.iter
        (fun (arr, _) ->
          Buffer.add_string buf (string_of_int (now - arr));
          Buffer.add_char buf ',')
        toks;
      Buffer.add_char buf ';')
    sim.tokens;
  Buffer.contents buf

(* Walk the critical-predecessor chain backwards from the last firing until
   it closes on the same transition a whole number of periods earlier. *)
let critical_cycle stg arr period =
  let visits : (Petri.trans, (int * int) list) Hashtbl.t = Hashtbl.create 64 in
  let rec walk idx acc acc_len =
    if idx < 0 then Error "critical chain reaches an initial token"
    else
      let f = arr.(idx) in
      let prior = try Hashtbl.find visits f.tr with Not_found -> [] in
      let closing =
        List.find_opt
          (fun (time1, _) ->
            let span = time1 - f.time in
            span > 0 && span mod period = 0)
          prior
      in
      match closing with
      | Some (time1, len1) ->
          let k = (time1 - f.time) / period in
          let cycle_len = acc_len - len1 in
          let cycle = List.filteri (fun i _ -> i < cycle_len) acc in
          let inputs =
            List.length (List.filter (Stg.is_input_trans stg) cycle)
          in
          Ok (cycle, inputs / k, k)
      | None ->
          Hashtbl.replace visits f.tr ((f.time, acc_len) :: prior);
          walk f.pred (f.tr :: acc) (acc_len + 1)
  in
  walk (Array.length arr - 1) [] 0

let analyze ?(horizon = 200_000) ~delays stg =
  let sim = sim_create stg delays in
  let snapshots = Hashtbl.create 1024 in
  let found = ref None in
  (try
     while !found = None do
       if not (step sim) then raise Exit;
       if sim.n_firings > horizon then raise Exit;
       let last =
         match sim.firings with f :: _ -> f | [] -> assert false
       in
       let key = (last.tr, snapshot sim last.time) in
       match Hashtbl.find_opt snapshots key with
       | Some (time0, count0) ->
           let p = last.time - time0 in
           if p > 0 then found := Some (p, sim.n_firings - count0)
       | None -> Hashtbl.replace snapshots key (last.time, sim.n_firings)
     done
   with Exit -> ());
  match !found with
  | None ->
      if sim.n_firings > horizon then Error "no recurrence within horizon"
      else Error "deadlock reached during timed simulation"
  | Some (period, fp) -> (
      (* Let the critical chain stabilize over several more periods. *)
      let target = sim.n_firings + (12 * fp) in
      while sim.n_firings < target && step sim do
        ()
      done;
      let arr = Array.of_list (List.rev sim.firings) in
      match critical_cycle stg arr period with
      | Ok (cycle, inputs, _k) ->
          Ok
            {
              period;
              input_events_on_cycle = inputs;
              cycle_events = cycle;
              firings_per_period = fp;
            }
      | Error msg -> Error msg)

(* ------------------------------------------------------------------ *)
(* Exact maximum cycle ratio for marked graphs.                        *)

(* Event-graph edges: one per place p (producer -> consumer), carrying the
   producer's delay and the place's initial tokens. *)
let event_graph stg delays =
  let net = stg.Stg.net in
  let edges = ref [] in
  for p = 0 to Petri.n_places net - 1 do
    match (net.Petri.producers.(p), net.Petri.consumers.(p)) with
    | [| t1 |], [| t2 |] ->
        edges := (t1, t2, delays t1, net.Petri.initial.(p)) :: !edges
    | _, _ -> invalid_arg "not a marked graph"
  done;
  !edges

(* Is there a cycle with positive value of (num - lam_n/lam_d * tokens),
   i.e. with  lam_d * sum(delay) - lam_n * sum(tokens) > 0 ?
   Bellman-Ford longest-path relaxation with n rounds; a further
   improvement implies a positive cycle. *)
let positive_cycle n_nodes edges ~lam_n ~lam_d =
  let weight (_, _, d, tokens) = (lam_d * d) - (lam_n * tokens) in
  let dist = Array.make n_nodes 0 in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds <= n_nodes do
    changed := false;
    incr rounds;
    List.iter
      (fun ((t1, t2, _, _) as e) ->
        let cand = dist.(t1) + weight e in
        if cand > dist.(t2) then begin
          dist.(t2) <- cand;
          changed := true
        end)
      edges
  done;
  !changed

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let mcr ~delays stg =
  if not (Petri.is_marked_graph stg.Stg.net) then
    Error "mcr: the STG is not a marked graph"
  else begin
    let edges = event_graph stg delays in
    let n = Petri.n_trans stg.Stg.net in
    let total_tokens =
      List.fold_left (fun acc (_, _, _, t) -> acc + t) 0 edges
    in
    let total_delay = List.fold_left (fun acc (_, _, d, _) -> acc + d) 0 edges in
    if total_tokens = 0 then Error "mcr: no tokens — no cycle time"
    else if positive_cycle n edges ~lam_n:total_delay ~lam_d:1 then
      Error "mcr: a token-free positive cycle exists (unbounded cycle time)"
    else begin
      (* positive_cycle(p/q) holds iff p/q is below the maximum ratio, so
         the answer is the minimum over all fractions p/q (q up to the
         total token count) of the smallest p with no positive cycle; for
         q equal to the critical cycle's token count the minimum is
         attained exactly. *)
      let best = ref None in
      for q = 1 to total_tokens do
        let lo = ref 0 and hi = ref (total_delay * q) in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if positive_cycle n edges ~lam_n:mid ~lam_d:q then lo := mid + 1
          else hi := mid
        done;
        let p = !lo in
        match !best with
        | None -> best := Some (p, q)
        | Some (bp, bq) -> if p * bq < bp * q then best := Some (p, q)
      done;
      match !best with
      | None -> Error "mcr: no cycle ratio found"
      | Some (p, q) ->
          let g = max 1 (gcd p q) in
          Ok (p / g, q / g)
    end
  end

(* ------------------------------------------------------------------ *)
(* Timed replay of a state graph.                                      *)

let table_label_delays stg = function
  | Stg.Edge (sigid, _) ->
      if Stg.Signal.is_input (Stg.signal stg sigid) then 2 else 1
  | Stg.Dummy _ -> 1

(* One replay firing: the label, completion time, and the index of the
   firing that enabled it (-1 when enabled initially). *)
type replay_firing = { lab : Stg.label; at : int; enabled_by : int }

let analyze_sg ?(horizon = 100_000) ~delays sg =
  let stg = Sg.stg sg in
  let is_input_label = function
    | Stg.Edge (sigid, _) -> Stg.Signal.is_input (Stg.signal stg sigid)
    | Stg.Dummy _ -> false
  in
  (* pending: enabled label -> (enable time, enabling firing index). *)
  let pending : (Stg.label, int * int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun lab -> Hashtbl.replace pending lab (0, -1))
    (Sg.enabled_labels sg (Sg.initial sg));
  let state = ref (Sg.initial sg) in
  let firings = ref [] and n_firings = ref 0 in
  let step () =
    let best = ref None in
    Hashtbl.iter
      (fun lab (en, by) ->
        let at = en + delays lab in
        match !best with
        | Some (at', lab', _, _)
          when at' < at || (at' = at && compare lab' lab <= 0) ->
            ()
        | Some _ | None -> best := Some (at, lab, en, by))
      pending;
    match !best with
    | None -> false
    | Some (at, lab, _en, by) -> (
        match Sg.succ_by_label sg !state lab with
        | [] -> false
        | s' :: _ ->
            let idx = !n_firings in
            firings := { lab; at; enabled_by = by } :: !firings;
            incr n_firings;
            Hashtbl.remove pending lab;
            let after = Sg.enabled_labels sg s' in
            (* drop events the firing disabled (free choice)... *)
            Hashtbl.iter
              (fun l _ -> if not (List.mem l after) then Hashtbl.remove pending l)
              (Hashtbl.copy pending);
            (* ...and start timers for the newly enabled ones; persistent
               events keep their enable times. *)
            List.iter
              (fun l ->
                if not (Hashtbl.mem pending l) then
                  Hashtbl.replace pending l (at, idx))
              after;
            state := s';
            true)
  in
  let snapshots = Hashtbl.create 1024 in
  let found = ref None in
  (try
     while !found = None do
       if not (step ()) then raise Exit;
       if !n_firings > horizon then raise Exit;
       let now = match !firings with f :: _ -> f.at | [] -> 0 in
       let key =
         ( !state,
           Hashtbl.fold (fun l (en, _) acc -> (l, now - en) :: acc) pending []
           |> List.sort compare )
       in
       match Hashtbl.find_opt snapshots key with
       | Some (time0, count0) ->
           let p = now - time0 in
           if p > 0 then found := Some (p, !n_firings - count0)
       | None -> Hashtbl.replace snapshots key (now, !n_firings)
     done
   with Exit -> ());
  match !found with
  | None ->
      if !n_firings > horizon then Error "no recurrence within horizon"
      else Error "deadlock during timed replay"
  | Some (period, fp) -> (
      (* Extend a few periods so the enabling chain stabilizes, then close
         the cycle along enabling predecessors. *)
      let target = !n_firings + (12 * fp) in
      while !n_firings < target && step () do
        ()
      done;
      let arr = Array.of_list (List.rev !firings) in
      let visits : (Stg.label, (int * int) list) Hashtbl.t =
        Hashtbl.create 16
      in
      let rec walk idx acc acc_len =
        if idx < 0 then Error "enabling chain reaches the initial state"
        else
          let f = arr.(idx) in
          let prior = try Hashtbl.find visits f.lab with Not_found -> [] in
          let closing =
            List.find_opt
              (fun (t1, _) -> t1 - f.at > 0 && (t1 - f.at) mod period = 0)
              prior
          in
          match closing with
          | Some (t1, len1) ->
              let k = (t1 - f.at) / period in
              let cycle = List.filteri (fun i _ -> i < acc_len - len1) acc in
              let inputs =
                List.length (List.filter is_input_label cycle) / k
              in
              Ok (cycle, inputs)
          | None ->
              Hashtbl.replace visits f.lab ((f.at, acc_len) :: prior);
              walk f.enabled_by (f.lab :: acc) (acc_len + 1)
      in
      match walk (Array.length arr - 1) [] 0 with
      | Ok (_cycle, inputs) ->
          Ok
            {
              period;
              input_events_on_cycle = inputs;
              cycle_events = [];
              firings_per_period = fp;
            }
      | Error msg -> Error msg)
