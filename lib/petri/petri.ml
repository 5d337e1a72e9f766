type place = int
type trans = int
type marking = int array

type t = {
  n_places : int;
  n_trans : int;
  place_names : string array;
  trans_names : string array;
  pre : place array array;
  post : place array array;
  producers : trans array array;
  consumers : trans array array;
  initial : marking;
}

module Builder = struct
  type net = t

  type t = {
    mutable places : (string * int) list; (* reversed *)
    mutable n_p : int;
    mutable transs : string list; (* reversed *)
    mutable n_t : int;
    mutable arcs_pt : (place * trans) list;
    mutable arcs_tp : (trans * place) list;
  }

  let create () =
    { places = []; n_p = 0; transs = []; n_t = 0; arcs_pt = []; arcs_tp = [] }

  let add_place b ~name ~tokens =
    let id = b.n_p in
    b.places <- (name, tokens) :: b.places;
    b.n_p <- id + 1;
    id

  let add_trans b ~name =
    let id = b.n_t in
    b.transs <- name :: b.transs;
    b.n_t <- id + 1;
    id

  let arc_pt b p t =
    assert (p >= 0 && p < b.n_p && t >= 0 && t < b.n_t);
    b.arcs_pt <- (p, t) :: b.arcs_pt

  let arc_tp b t p =
    assert (p >= 0 && p < b.n_p && t >= 0 && t < b.n_t);
    b.arcs_tp <- (t, p) :: b.arcs_tp

  let connect b t1 t2 ~name =
    let p = add_place b ~name ~tokens:0 in
    arc_tp b t1 p;
    arc_pt b p t2;
    p

  let sorted_dedup l =
    List.sort_uniq compare l |> Array.of_list

  let build b =
    let n_places = b.n_p and n_trans = b.n_t in
    let place_list = List.rev b.places in
    let place_names = Array.of_list (List.map fst place_list) in
    let initial = Array.of_list (List.map snd place_list) in
    let trans_names = Array.of_list (List.rev b.transs) in
    let pre_l = Array.make n_trans [] and post_l = Array.make n_trans [] in
    let prod_l = Array.make n_places [] and cons_l = Array.make n_places [] in
    let add_pt (p, t) =
      pre_l.(t) <- p :: pre_l.(t);
      cons_l.(p) <- t :: cons_l.(p)
    in
    let add_tp (t, p) =
      post_l.(t) <- p :: post_l.(t);
      prod_l.(p) <- t :: prod_l.(p)
    in
    List.iter add_pt b.arcs_pt;
    List.iter add_tp b.arcs_tp;
    {
      n_places;
      n_trans;
      place_names;
      trans_names;
      pre = Array.map sorted_dedup pre_l;
      post = Array.map sorted_dedup post_l;
      producers = Array.map sorted_dedup prod_l;
      consumers = Array.map sorted_dedup cons_l;
      initial;
    }
end

let of_arrays ~place_names ~trans_names ~pre ~post ~producers ~consumers
    ~initial =
  let n_places = Array.length place_names
  and n_trans = Array.length trans_names in
  if
    Array.length initial <> n_places
    || Array.length producers <> n_places
    || Array.length consumers <> n_places
    || Array.length pre <> n_trans
    || Array.length post <> n_trans
  then invalid_arg "Petri.of_arrays: array lengths disagree";
  { n_places; n_trans; place_names; trans_names; pre; post; producers;
    consumers; initial }

let n_places net = net.n_places
let n_trans net = net.n_trans
let place_name net p = net.place_names.(p)
let trans_name net t = net.trans_names.(t)

let trans_of_name net name =
  let rec loop i =
    if i >= net.n_trans then raise Not_found
    else if String.equal net.trans_names.(i) name then i
    else loop (i + 1)
  in
  loop 0

let initial_marking net = Array.copy net.initial

let enabled net m t = Array.for_all (fun p -> m.(p) > 0) net.pre.(t)

let enabled_all net m =
  let rec loop i acc =
    if i < 0 then acc
    else loop (i - 1) (if enabled net m i then i :: acc else acc)
  in
  loop (net.n_trans - 1) []

let fire net m t =
  if not (enabled net m t) then
    invalid_arg
      (Printf.sprintf "Petri.fire: transition %s not enabled"
         net.trans_names.(t));
  let m' = Array.copy m in
  Array.iter (fun p -> m'.(p) <- m'.(p) - 1) net.pre.(t);
  Array.iter (fun p -> m'.(p) <- m'.(p) + 1) net.post.(t);
  m'

module Marking = struct
  type t = marking

  (* A length check and an int loop, not the polymorphic compare; the
     loop is a function of all it reads, so a probe allocates nothing. *)
  let rec equal_from (m : t) (m' : t) i =
    i = Array.length m || (m.(i) = m'.(i) && equal_from m m' (i + 1))

  let equal (m : t) (m' : t) =
    Array.length m = Array.length m' && equal_from m m' 0

  let compare = compare

  let hash (m : t) =
    Array.fold_left (fun acc x -> (acc * 31) + x + 1) 17 m

  let pp ~names ppf m =
    let marked = ref [] in
    Array.iteri
      (fun p k ->
        if k > 0 then
          marked :=
            (if k = 1 then names.(p) else Printf.sprintf "%s(%d)" names.(p) k)
            :: !marked)
      m;
    Format.fprintf ppf "{%s}" (String.concat "," (List.rev !marked))
end

exception State_budget_exceeded of int

(* [Marking.hash] mixed once more: the low bits the table buckets by
   depend on few sums of the token counts. *)
module Mtbl = Hashtbl.Make (struct
  type t = marking

  let equal = Marking.equal
  let hash m = Hashtbl.hash (Marking.hash m)
end)

let reachable ?(budget = 200_000) net =
  let seen = Mtbl.create 1024 in
  let queue = Queue.create () in
  let order = ref [] in
  let start = initial_marking net in
  Mtbl.replace seen start ();
  Queue.add start queue;
  order := [ start ];
  let count = ref 1 in
  while not (Queue.is_empty queue) do
    let m = Queue.pop queue in
    let expand t =
      let m' = fire net m t in
      if not (Mtbl.mem seen m') then begin
        incr count;
        if !count > budget then raise (State_budget_exceeded budget);
        Mtbl.replace seen m' ();
        Queue.add m' queue;
        order := m' :: !order
      end
    in
    List.iter expand (enabled_all net m)
  done;
  List.rev !order

let is_safe ?budget net =
  let safe m = Array.for_all (fun k -> k <= 1) m in
  List.for_all safe (reachable ?budget net)

let is_marked_graph net =
  let ok p =
    Array.length net.producers.(p) = 1 && Array.length net.consumers.(p) = 1
  in
  let rec loop p = p >= net.n_places || (ok p && loop (p + 1)) in
  loop 0

let is_free_choice net =
  let ok p =
    let cons = net.consumers.(p) in
    Array.length cons <= 1
    || Array.for_all (fun t -> net.pre.(t) = [| p |]) cons
  in
  let rec loop p = p >= net.n_places || (ok p && loop (p + 1)) in
  loop 0

let is_asymmetric_choice net =
  (* Consumer sets are sorted transition-id arrays (built that way), so
     containment is a linear merge. *)
  let contains big small =
    let nb = Array.length big and ns = Array.length small in
    let rec loop i j =
      j >= ns
      || i < nb
         && (if big.(i) = small.(j) then loop (i + 1) (j + 1)
             else big.(i) < small.(j) && loop (i + 1) j)
    in
    loop 0 0
  in
  let intersects a b =
    let na = Array.length a and nb = Array.length b in
    let rec loop i j =
      i < na && j < nb
      && (a.(i) = b.(j)
         || if a.(i) < b.(j) then loop (i + 1) j else loop i (j + 1))
    in
    loop 0 0
  in
  let ok p q =
    let cp = net.consumers.(p) and cq = net.consumers.(q) in
    (not (intersects cp cq)) || contains cp cq || contains cq cp
  in
  let rec pairs p q =
    p >= net.n_places
    || (if q >= net.n_places then pairs (p + 1) (p + 2)
        else ok p q && pairs p (q + 1))
  in
  pairs 0 1

let deadlock_free ?budget net =
  let live m = enabled_all net m <> [] in
  List.for_all live (reachable ?budget net)

let pp ppf net =
  Format.fprintf ppf "@[<v>net: %d places, %d transitions@," net.n_places
    net.n_trans;
  for t = 0 to net.n_trans - 1 do
    let names ps =
      String.concat " "
        (Array.to_list (Array.map (fun p -> net.place_names.(p)) ps))
    in
    Format.fprintf ppf "  %s: {%s} -> {%s}@," net.trans_names.(t)
      (names net.pre.(t)) (names net.post.(t))
  done;
  Format.fprintf ppf "  m0 = %a@]"
    (Marking.pp ~names:net.place_names)
    net.initial
