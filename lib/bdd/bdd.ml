(* Hash-consed ROBDDs.  Nodes are immutable records with a unique id; the
   manager owns the unique table and the operation caches. *)

type t = Leaf of bool | Node of node

and node = { id : int; v : int; lo : t; hi : t }

type man = {
  unique : (int * int * int, t) Hashtbl.t;  (** (var, lo id, hi id) -> node *)
  mutable next_id : int;
  ite_cache : (int * int * int, t) Hashtbl.t;
  quant_cache : (bool * int * int, t) Hashtbl.t;
      (** (existential?, reserved, node id); reset per quantification *)
}

let manager ?(cache = 1 lsl 12) () =
  {
    unique = Hashtbl.create cache;
    next_id = 2;
    ite_cache = Hashtbl.create cache;
    quant_cache = Hashtbl.create cache;
  }

let tru = Leaf true
let fls = Leaf false

let ident = function Leaf false -> 0 | Leaf true -> 1 | Node n -> n.id

let equal a b = ident a == ident b

let is_tru = function Leaf true -> true | Leaf false | Node _ -> false
let is_fls = function Leaf false -> true | Leaf true | Node _ -> false

let mk man v lo hi =
  if equal lo hi then lo
  else
    let key = (v, ident lo, ident hi) in
    match Hashtbl.find_opt man.unique key with
    | Some n -> n
    | None ->
        let n = Node { id = man.next_id; v; lo; hi } in
        man.next_id <- man.next_id + 1;
        Hashtbl.replace man.unique key n;
        n

let var man v = mk man v fls tru

let top_var = function
  | Leaf _ -> max_int
  | Node n -> n.v

let cofactors f v =
  match f with
  | Leaf _ -> (f, f)
  | Node n -> if n.v = v then (n.lo, n.hi) else (f, f)

(* Shannon-expansion ITE with memoization. *)
let rec ite man f g h =
  match f with
  | Leaf true -> g
  | Leaf false -> h
  | Node _ ->
      if equal g h then g
      else if is_tru g && is_fls h then f
      else
        let key = (ident f, ident g, ident h) in
        (match Hashtbl.find_opt man.ite_cache key with
        | Some r -> r
        | None ->
            let v = min (top_var f) (min (top_var g) (top_var h)) in
            let f0, f1 = cofactors f v in
            let g0, g1 = cofactors g v in
            let h0, h1 = cofactors h v in
            let lo = ite man f0 g0 h0 and hi = ite man f1 g1 h1 in
            let r = mk man v lo hi in
            Hashtbl.replace man.ite_cache key r;
            r)

let neg man f = ite man f fls tru
let conj man f g = ite man f g fls
let disj man f g = ite man f tru g
let xor man f g = ite man f (neg man g) g

let rec restrict man f v b =
  match f with
  | Leaf _ -> f
  | Node n ->
      if n.v > v then f
      else if n.v = v then if b then n.hi else n.lo
      else
        (* memo via ite cache would need a distinct tag; recompute — the
           recursion is bounded by the node count above v. *)
        mk man n.v (restrict man n.lo v b) (restrict man n.hi v b)

let quantify man ~ex vars f =
  let vars = List.sort_uniq compare vars in
  Hashtbl.reset man.quant_cache;
  let rec go f =
    match f with
    | Leaf _ -> f
    | Node n -> (
        let key = (ex, 0, ident f) in
        match Hashtbl.find_opt man.quant_cache key with
        | Some r -> r
        | None ->
            let lo = go n.lo and hi = go n.hi in
            let r =
              if List.mem n.v vars then
                if ex then disj man lo hi else conj man lo hi
              else mk man n.v lo hi
            in
            Hashtbl.replace man.quant_cache key r;
            r)
  in
  go f

let exists man vars f = quantify man ~ex:true vars f
let forall man vars f = quantify man ~ex:false vars f

let sat_count man ~nvars f =
  ignore man;
  let memo = Hashtbl.create 64 in
  (* number of satisfying assignments of the sub-BDD over variables
     >= [from] *)
  let rec count f from =
    match f with
    | Leaf true -> 1 lsl (nvars - from)
    | Leaf false -> 0
    | Node n ->
        if n.v < from then invalid_arg "Bdd.sat_count: variable out of order"
        else if n.v >= nvars then
          invalid_arg "Bdd.sat_count: variable beyond nvars"
        else
          let key = (ident f, from) in
          (match Hashtbl.find_opt memo key with
          | Some c -> c
          | None ->
              let below = count n.lo (n.v + 1) + count n.hi (n.v + 1) in
              let c = below * (1 lsl (n.v - from)) in
              Hashtbl.replace memo key c;
              c)
  in
  count f 0

let any_sat _man f =
  let rec go f acc =
    match f with
    | Leaf true -> Some (List.rev acc)
    | Leaf false -> None
    | Node n -> (
        match go n.hi ((n.v, true) :: acc) with
        | Some r -> Some r
        | None -> go n.lo ((n.v, false) :: acc))
  in
  go f []

let eval f assignment =
  let rec go = function
    | Leaf b -> b
    | Node n ->
        if assignment land (1 lsl n.v) <> 0 then go n.hi else go n.lo
  in
  go f

let size f =
  let seen = Hashtbl.create 64 in
  let rec go = function
    | Leaf _ -> ()
    | Node n ->
        if not (Hashtbl.mem seen n.id) then begin
          Hashtbl.replace seen n.id ();
          go n.lo;
          go n.hi
        end
  in
  go f;
  1 + Hashtbl.length seen

let of_cube man c =
  (* Build bottom-up in decreasing variable order for linear size. *)
  let rec go v acc =
    if v < 0 then acc
    else if Boolf.Cube.bound c v then
      let acc =
        if Boolf.Cube.polarity c v then mk man v fls acc else mk man v acc fls
      in
      go (v - 1) acc
    else go (v - 1) acc
  in
  go 61 tru

let of_cover man cover =
  List.fold_left (fun acc c -> disj man acc (of_cube man c)) fls cover
