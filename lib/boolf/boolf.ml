let max_vars = 62

module Cube = struct
  type t = { care : int; value : int }

  let top = { care = 0; value = 0 }

  let make ~care ~value =
    if value land lnot care <> 0 then
      invalid_arg "Boolf.Cube.make: value not within care mask";
    { care; value }

  let of_minterm ~n m =
    if n > max_vars then
      invalid_arg (Printf.sprintf "Boolf: more than %d variables" max_vars);
    { care = (1 lsl n) - 1; value = m }

  let of_string s =
    let n = String.length s in
    if n > max_vars then
      invalid_arg (Printf.sprintf "Boolf: more than %d variables" max_vars);
    let care = ref 0 and value = ref 0 in
    String.iteri
      (fun i c ->
        match c with
        | '1' ->
            care := !care lor (1 lsl i);
            value := !value lor (1 lsl i)
        | '0' -> care := !care lor (1 lsl i)
        | '-' -> ()
        | c -> invalid_arg (Printf.sprintf "Boolf.Cube.of_string: %c" c))
      s;
    { care = !care; value = !value }

  let to_string ~n c =
    String.init n (fun i ->
        if c.care land (1 lsl i) = 0 then '-'
        else if c.value land (1 lsl i) <> 0 then '1'
        else '0')

  let equal c1 c2 = c1.care = c2.care && c1.value = c2.value

  let compare c1 c2 =
    let c = Int.compare c1.care c2.care in
    if c <> 0 then c else Int.compare c1.value c2.value

  let popcount x =
    let rec loop x acc = if x = 0 then acc else loop (x lsr 1) (acc + (x land 1)) in
    loop x 0

  let literals c = popcount c.care

  let covers c m = m land c.care = c.value

  let contains c1 c2 =
    c1.care land c2.care = c1.care && c2.value land c1.care = c1.value

  let inter c1 c2 =
    let common = c1.care land c2.care in
    if c1.value land common <> c2.value land common then None
    else Some { care = c1.care lor c2.care; value = c1.value lor c2.value }

  let free c v =
    let bit = 1 lsl v in
    { care = c.care land lnot bit; value = c.value land lnot bit }

  let bound c v = c.care land (1 lsl v) <> 0
  let polarity c v = c.value land (1 lsl v) <> 0

  let render ~names c =
    let parts = ref [] in
    for v = Array.length names - 1 downto 0 do
      if bound c v then
        parts := (names.(v) ^ if polarity c v then "" else "'") :: !parts
    done;
    match !parts with [] -> "1" | parts -> String.concat " " parts
end

module Cover = struct
  type t = Cube.t list

  let covers cover m = List.exists (fun c -> Cube.covers c m) cover

  let literals cover =
    List.fold_left (fun acc c -> acc + Cube.literals c) 0 cover

  let cubes = List.length

  let equal_on ~n c1 c2 =
    if n > 20 then invalid_arg "Boolf.Cover.equal_on: n too large";
    let rec loop m =
      m >= 1 lsl n || (covers c1 m = covers c2 m && loop (m + 1))
    in
    loop 0

  let render ~names cover =
    match cover with
    | [] -> "0"
    | cover -> String.concat " + " (List.map (Cube.render ~names) cover)
end

(* Does [cube] cover a minterm of [off_arr]?  One scan of the array. *)
let scan_off off_arr cube =
  let rec go i =
    i < Array.length off_arr && (Cube.covers cube off_arr.(i) || go (i + 1))
  in
  go 0

(* The general OFF test, for more than 16 variables: when the cube has few
   free variables, enumerate its minterms and probe the hashed OFF set
   (2^free probes); otherwise scan the OFF array.  Always the cheaper of
   the two. *)
let covers_some_off ~n ~off_arr ~off_mem cube =
  let free_mask = ((1 lsl n) - 1) land lnot cube.Cube.care in
  let free_bits = Cube.popcount free_mask in
  if free_bits < 62 && 1 lsl free_bits <= Array.length off_arr then begin
    (* enumerate sub-masks of free_mask, including 0 *)
    let rec loop sub =
      off_mem (cube.Cube.value lor sub)
      || (sub <> 0 && loop ((sub - 1) land free_mask))
    in
    loop free_mask
  end
  else scan_off off_arr cube

(* The OFF test for at most 16 variables, over the OFF set held as 32-bit
   words: minterm [m] is bit [m land 31] of word [m lsr 5], so one word
   holds the 32 minterms that agree on the variables above the fifth.  A
   cube's minterms over the low five variables form one 32-bit mask
   ([low_masks], indexed by the low five bits of care and value), and it
   selects one word per assignment of its free high variables: 2^free_hi
   word tests instead of 2^free minterm probes.  When that is more words
   than OFF has minterms, scanning OFF is cheaper. *)
let low_masks =
  Array.init 1024 (fun i ->
      let care = i lsr 5 and value = i land 31 in
      let m = ref 0 in
      for p = 0 to 31 do
        if p land care = value then m := !m lor (1 lsl p)
      done;
      !m)

let covers_off_words ~n ~words ~off_arr cube =
  let free_hi = (((1 lsl n) - 1) lsr 5) land lnot (cube.Cube.care lsr 5) in
  if 1 lsl Cube.popcount free_hi > Array.length off_arr then
    scan_off off_arr cube
  else begin
    let lo =
      low_masks.(((cube.Cube.care land 31) lsl 5) lor (cube.Cube.value land 31))
    in
    let base = cube.Cube.value lsr 5 in
    (* enumerate sub-masks of free_hi, including 0 *)
    let rec loop sub =
      words.(base lor sub) land lo <> 0
      || (sub <> 0 && loop ((sub - 1) land free_hi))
    in
    loop free_hi
  end

(* Per-domain OFF words (see [covers_off_words]), grown on demand and all
   zeros between calls: a call sets the words of its OFF minterms and
   clears them again, like [Logic.extract]'s scratch tables. *)
type off_words = { mutable words : int array }

let off_words_key = Pool.Dls.new_key (fun () -> { words = [||] })

(* [f ~mem ~covers_off] with OFF membership and the cube test over the
   domain's OFF words. *)
let with_off_words ~n off_arr f =
  let sc = Pool.Dls.get off_words_key in
  let size = 1 lsl max 0 (n - 5) in
  if Array.length sc.words < size then sc.words <- Array.make size 0;
  let words = sc.words in
  Array.iter
    (fun o -> words.(o lsr 5) <- words.(o lsr 5) lor (1 lsl (o land 31)))
    off_arr;
  let clear () = Array.iter (fun o -> words.(o lsr 5) <- 0) off_arr in
  match
    f
      ~mem:(fun m -> words.(m lsr 5) land (1 lsl (m land 31)) <> 0)
      ~covers_off:(covers_off_words ~n ~words ~off_arr)
  with
  | r ->
      clear ();
      r
  | exception e ->
      clear ();
      raise e

(* Expand minterm [m] to a prime implicant w.r.t. the OFF-set: greedily drop
   literals (lowest variable first) while no OFF minterm becomes covered. *)
let expand_against_off ~n ~covers_off m =
  let cube = ref (Cube.of_minterm ~n m) in
  for v = 0 to n - 1 do
    let candidate = Cube.free !cube v in
    if not (covers_off candidate) then cube := candidate
  done;
  !cube

(* The minimizer behind both OFF representations: [mem] tests OFF
   membership, [covers_off] whether a cube covers some OFF minterm. *)
let prime_cover ~n ~on ~mem ~covers_off =
  (match List.find_opt mem on with
  | Some m ->
      invalid_arg
        (Printf.sprintf "Boolf.minimize: minterm %d in both ON and OFF" m)
  | None -> ());
  let on = List.sort_uniq Int.compare on in
  let primes = List.map (expand_against_off ~n ~covers_off) on in
  let primes = List.sort_uniq Cube.compare primes in
  (* Greedy set cover of ON minterms, over flag arrays: the sets are small
     and this runs in the search's cost function, so no per-round hash
     tables.  Ties on (gain, -literals) keep the first candidate in
     [primes] order, as before. *)
  let on_arr = Array.of_list on in
  let covered = Array.make (Array.length on_arr) false in
  let uncovered = ref (Array.length on_arr) in
  let prime_arr = Array.of_list primes in
  let used = Array.make (Array.length prime_arr) false in
  let chosen = ref [] in
  while !uncovered > 0 do
    let best = ref None in
    Array.iteri
      (fun i c ->
        if not used.(i) then begin
          let g = ref 0 in
          Array.iteri
            (fun j m -> if (not covered.(j)) && Cube.covers c m then incr g)
            on_arr;
          let key = (!g, -Cube.literals c) in
          match !best with
          | Some (bk, _, _) when bk >= key -> ()
          | Some _ | None -> if !g > 0 then best := Some (key, i, c)
        end)
      prime_arr;
    match !best with
    | None ->
        (* Cannot happen: every ON minterm has its own prime. *)
        assert (!uncovered = 0)
    | Some (_, i, cube) ->
        used.(i) <- true;
        chosen := cube :: !chosen;
        Array.iteri
          (fun j m ->
            if (not covered.(j)) && Cube.covers cube m then begin
              covered.(j) <- true;
              decr uncovered
            end)
          on_arr
  done;
  (* Irredundancy: greedy set cover can leave a cube whose ON minterms are
     all covered by cubes chosen later (their overlap, not their gain).
     Scan in canonical cube order and drop any cube every ON minterm of
     which is covered by the rest of the (current) cover. *)
  let chosen = List.sort Cube.compare !chosen in
  let rec drop_redundant kept = function
    | [] -> List.rev kept
    | c :: rest ->
        let others m =
          List.exists (fun c' -> Cube.covers c' m) kept
          || List.exists (fun c' -> Cube.covers c' m) rest
        in
        let redundant =
          Array.for_all (fun m -> (not (Cube.covers c m)) || others m) on_arr
        in
        if redundant then drop_redundant kept rest
        else drop_redundant (c :: kept) rest
  in
  drop_redundant [] chosen

let minimize ~n ~on ~off =
  if n > max_vars then
    invalid_arg
      (Printf.sprintf "Boolf.minimize: more than %d variables" max_vars);
  let off_arr = Array.of_list off in
  let in_range m = m >= 0 && m < 1 lsl n in
  if n <= 16 && Array.for_all in_range off_arr && List.for_all in_range on
  then with_off_words ~n off_arr (prime_cover ~n ~on)
  else
    let tbl = Hashtbl.create (2 * max 1 (Array.length off_arr)) in
    Array.iter (fun m -> Hashtbl.replace tbl m ()) off_arr;
    let off_mem m = Hashtbl.mem tbl m in
    prime_cover ~n ~on ~mem:off_mem
      ~covers_off:(covers_some_off ~n ~off_arr ~off_mem)

let estimate_literals ~n ~on ~off = Cover.literals (minimize ~n ~on ~off)

(* ------------------------------------------------------------------ *)
(* Cross-candidate memoization of [minimize].

   The reduction search minimizes the same (n, ON, OFF) subproblem many
   times: sibling candidates leave most signals' sets untouched, and the
   set/reset networks of a generalized C-element share codes.  The cache
   key is the canonical form of the inputs (sorted, deduplicated minterm
   lists) — [minimize] is invariant under permutation and duplication of
   its inputs, so a hit returns exactly what the call would have computed.

   Tables live in {!Pool.Dls} domain-local storage: each domain (say, a
   serve worker) fills its own table, so there is no locking and no shared
   mutation, and because [minimize] is deterministic every domain converges
   to the same entries — a pool job stays pure up to
   commutative-and-idempotent memoization. *)
module Memo = struct
  type entry = { cover : Cover.t; lits : int }

  let c_hits = Obs.Counter.make "boolf.memo.hits"
  let c_misses = Obs.Counter.make "boolf.memo.misses"

  (* The polymorphic hash reads only the first few cells of each list, so
     keys sharing a prefix of minterms would share a bucket: fold them all. *)
  module Tbl = Hashtbl.Make (struct
    type t = int * int list * int list

    let equal (n1, on1, off1) (n2, on2, off2) =
      n1 = n2 && List.equal Int.equal on1 on2 && List.equal Int.equal off1 off2

    let hash (n, on, off) =
      let mix h m = (h lxor m) * 0x100000001b3 in
      let h = List.fold_left mix (mix n (List.length on)) on in
      Hashtbl.hash (List.fold_left mix h off)
  end)

  let tables : entry Tbl.t Pool.Dls.key =
    Pool.Dls.new_key (fun () -> Tbl.create 1024)

  (* [Logic] passes its ON/OFF lists strictly ascending already: check
     that in one walk and sort only the lists that are not. *)
  let rec ascending = function
    | a :: (b :: _ as rest) -> a < b && ascending rest
    | [] | [ _ ] -> true

  let canonical l = if ascending l then l else List.sort_uniq Int.compare l

  let lookup ~n ~on ~off =
    let on = canonical on and off = canonical off in
    let key = (n, on, off) in
    let tbl = Pool.Dls.get tables in
    match Tbl.find_opt tbl key with
    | Some e ->
        Obs.Counter.incr c_hits;
        e
    | None ->
        Obs.Counter.incr c_misses;
        let cover = minimize ~n ~on ~off in
        let e = { cover; lits = Cover.literals cover } in
        Tbl.add tbl key e;
        e

  let minimize ~n ~on ~off = (lookup ~n ~on ~off).cover
  let literals ~n ~on ~off = (lookup ~n ~on ~off).lits

  let clear () = Tbl.reset (Pool.Dls.get tables)
end
