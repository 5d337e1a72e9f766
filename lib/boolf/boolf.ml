let max_vars = 62

(* Set bits of a non-negative int below [2^62]: per-field sums, bytes
   last (the product's top byte holds their total). *)
let popcount x =
  let x = x - ((x lsr 1) land 0x1555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f0f0f0f0f in
  (x * 0x0101010101010101) lsr 56

module Cube = struct
  type t = { care : int; value : int }

  let top = { care = 0; value = 0 }

  let make ~care ~value =
    if value land lnot care <> 0 then
      invalid_arg "Boolf.Cube.make: value not within care mask";
    { care; value }

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

  let literals c = popcount c.care

  let covers c m = m land c.care = c.value

  let contains c1 c2 =
    c1.care land c2.care = c1.care && c2.value land c1.care = c1.value

  let inter c1 c2 =
    let common = c1.care land c2.care in
    if c1.value land common <> c2.value land common then None
    else Some { care = c1.care lor c2.care; value = c1.value lor c2.value }

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

(* Strictly ascending from index [i - 1] on: sorted, no minterm twice.
   The loops below are top-level functions of all they read: a local
   [let rec] closes over its free variables and allocates per call. *)
let rec ascending_from (a : int array) i =
  i >= Array.length a || (a.(i - 1) < a.(i) && ascending_from a (i + 1))

(* [a] itself when strictly ascending (callers' arrays are never
   mutated), else a sorted, deduplicated copy. *)
let canonical a =
  if ascending_from a 1 then a
  else begin
    let a = Array.copy a in
    Array.sort Int.compare a;
    let k = ref 0 in
    Array.iteri
      (fun i m ->
        if i = 0 || m <> a.(!k - 1) then begin
          a.(!k) <- m;
          incr k
        end)
      a;
    Array.sub a 0 !k
  end

(* Does the cube [(care, value)] cover a minterm of [off] from index [i]
   on?  One scan. *)
let rec scan_off off care value i =
  i < Array.length off
  && (off.(i) land care = value || scan_off off care value (i + 1))

(* Is [value lor sub'] in OFF for some sub-mask [sub'] of [free] at most
   [sub], counting down? *)
let rec probe_off off_mem value free sub =
  off_mem (value lor sub)
  || (sub <> 0 && probe_off off_mem value free ((sub - 1) land free))

(* The general OFF test, for more than 16 variables: when the cube has few
   free variables, enumerate its minterms and probe the hashed OFF set
   (2^free probes); otherwise scan the OFF array.  Always the cheaper of
   the two. *)
let covers_some_off ~n ~off ~off_mem care value =
  let free_mask = ((1 lsl n) - 1) land lnot care in
  let free_bits = popcount free_mask in
  if free_bits < 62 && 1 lsl free_bits <= Array.length off then
    probe_off off_mem value free_mask free_mask
  else scan_off off care value 0

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

(* Does some word [base lor sub'], [sub'] a sub-mask of [free] at most
   [sub], meet [lo]? *)
let rec probe_words words base lo free sub =
  words.(base lor sub) land lo <> 0
  || (sub <> 0 && probe_words words base lo free ((sub - 1) land free))

let covers_off_words ~n ~words ~off care value =
  let free_hi = (((1 lsl n) - 1) lsr 5) land lnot (care lsr 5) in
  if 1 lsl popcount free_hi > Array.length off then scan_off off care value 0
  else
    probe_words words (value lsr 5)
      low_masks.(((care land 31) lsl 5) lor (value land 31))
      free_hi free_hi

(* Per-domain OFF words (see [covers_off_words]), grown on demand and all
   zeros between calls: a call sets the words of its OFF minterms and
   clears them again, like [Logic.extract]'s scratch tables. *)
type off_words = { mutable words : int array }

let off_words_key = Pool.Dls.new_key (fun () -> { words = [||] })

let check_disjoint ~mem on =
  Array.iter
    (fun m ->
      if mem m then
        invalid_arg
          (Printf.sprintf "Boolf.minimize: minterm %d in both ON and OFF" m))
    on

(* Coverage bitsets hold [wbits] ON minterms per word, so that
   [popcount] sees non-negative words below [2^62]. *)
let wbits = 62

(* The cover of the strictly ascending [on], given [covers_off care
   value], whether a cube covers some OFF minterm.

   Each ON minterm is expanded to a prime: literals are dropped greedily,
   lowest variable first, while no OFF minterm becomes covered.  The
   distinct primes are kept in [Cube.compare] order (care, then value).
   A greedy set cover then picks, round by round, the prime covering the
   most uncovered ON minterms, fewer literals on equal gain, the first in
   prime order on a full tie.  Greedy cover can leave a cube whose ON
   minterms the cubes chosen after it cover between them: an
   irredundancy pass in prime order drops every chosen cube whose ON
   minterms the rest of the current cover (kept cubes before it, every
   chosen cube after it) covers.

   Both passes run on per-prime coverage bitsets of the ON set: bit [j]
   of prime [p]'s row is set when [p] covers [on.(j)], so a gain is a
   popcount of the row against the uncovered words, and redundancy a
   bitset inclusion. *)
let prime_cover ~n ~on ~covers_off =
  let k = Array.length on in
  (* Distinct primes, ascending by (care, value): [np] of them in
     [pc]/[pv], each new one inserted in place. *)
  let pc = Array.make k 0 and pv = Array.make k 0 in
  let np = ref 0 in
  let full = (1 lsl n) - 1 in
  for j = 0 to k - 1 do
    let care = ref full and value = ref on.(j) in
    for v = 0 to n - 1 do
      let bit = 1 lsl v in
      let c = !care land lnot bit and x = !value land lnot bit in
      if not (covers_off c x) then begin
        care := c;
        value := x
      end
    done;
    let care = !care and value = !value in
    let lo = ref 0 and hi = ref !np in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if pc.(mid) < care || (pc.(mid) = care && pv.(mid) < value) then
        lo := mid + 1
      else hi := mid
    done;
    let i = !lo in
    if not (i < !np && pc.(i) = care && pv.(i) = value) then begin
      Array.blit pc i pc (i + 1) (!np - i);
      Array.blit pv i pv (i + 1) (!np - i);
      pc.(i) <- care;
      pv.(i) <- value;
      incr np
    end
  done;
  let np = !np in
  let w = (k + wbits - 1) / wbits in
  let cov = Array.make (np * w) 0 in
  for p = 0 to np - 1 do
    let care = pc.(p) and value = pv.(p) in
    for x = 0 to w - 1 do
      let word = ref 0 in
      for b = 0 to min wbits (k - (x * wbits)) - 1 do
        if on.((x * wbits) + b) land care = value then
          word := !word lor (1 lsl b)
      done;
      cov.((p * w) + x) <- !word
    done
  done;
  (* Greedy cover over the uncovered words [unc]. *)
  let unc = Array.make w 0 in
  for x = 0 to w - 1 do
    unc.(x) <- (1 lsl min wbits (k - (x * wbits))) - 1
  done;
  let used = Bytes.make np '\000' in
  let remaining = ref k in
  while !remaining > 0 do
    let best = ref (-1) and best_gain = ref 0 and best_lits = ref 0 in
    for p = 0 to np - 1 do
      if Bytes.unsafe_get used p = '\000' then begin
        let g = ref 0 in
        for x = 0 to w - 1 do
          g := !g + popcount (cov.((p * w) + x) land unc.(x))
        done;
        if !g > 0 then begin
          let l = popcount pc.(p) in
          if !best < 0 || !g > !best_gain || (!g = !best_gain && l < !best_lits)
          then begin
            best := p;
            best_gain := !g;
            best_lits := l
          end
        end
      end
    done;
    (* Every ON minterm has its own prime, so some prime gains. *)
    assert (!best >= 0);
    let p = !best in
    Bytes.unsafe_set used p '\001';
    remaining := !remaining - !best_gain;
    for x = 0 to w - 1 do
      unc.(x) <- unc.(x) land lnot cov.((p * w) + x)
    done
  done;
  (* Irredundancy, in prime order: [after] row [p] is the union of the
     chosen rows after [p], [kept] the union of the rows kept so far. *)
  let after = Array.make (np * w) 0 in
  let acc = Array.make w 0 in
  for p = np - 1 downto 0 do
    for x = 0 to w - 1 do
      after.((p * w) + x) <- acc.(x);
      if Bytes.unsafe_get used p = '\001' then
        acc.(x) <- acc.(x) lor cov.((p * w) + x)
    done
  done;
  let kept = Array.make w 0 in
  for p = 0 to np - 1 do
    if Bytes.unsafe_get used p = '\001' then begin
      let redundant = ref true in
      for x = 0 to w - 1 do
        let i = (p * w) + x in
        if cov.(i) land lnot (kept.(x) lor after.(i)) <> 0 then
          redundant := false
      done;
      if !redundant then Bytes.unsafe_set used p '\000'
      else
        for x = 0 to w - 1 do
          kept.(x) <- kept.(x) lor cov.((p * w) + x)
        done
    end
  done;
  let cover = ref [] in
  for p = np - 1 downto 0 do
    if Bytes.unsafe_get used p = '\001' then
      cover := { Cube.care = pc.(p); value = pv.(p) } :: !cover
  done;
  !cover

let minimize ~n ~on ~off =
  if n > max_vars then
    invalid_arg
      (Printf.sprintf "Boolf.minimize: more than %d variables" max_vars);
  let on = canonical on in
  let in_range m = m >= 0 && m < 1 lsl n in
  if n <= 16 && Array.for_all in_range off && Array.for_all in_range on
  then begin
    let sc = Pool.Dls.get off_words_key in
    let size = 1 lsl max 0 (n - 5) in
    if Array.length sc.words < size then sc.words <- Array.make size 0;
    let words = sc.words in
    Array.iter
      (fun o -> words.(o lsr 5) <- words.(o lsr 5) lor (1 lsl (o land 31)))
      off;
    let clear () = Array.iter (fun o -> words.(o lsr 5) <- 0) off in
    match
      check_disjoint on ~mem:(fun m ->
          words.(m lsr 5) land (1 lsl (m land 31)) <> 0);
      prime_cover ~n ~on ~covers_off:(fun care value ->
          covers_off_words ~n ~words ~off care value)
    with
    | cover ->
        clear ();
        cover
    | exception e ->
        clear ();
        raise e
  end
  else begin
    let tbl = Hashtbl.create (2 * max 1 (Array.length off)) in
    Array.iter (fun m -> Hashtbl.replace tbl m ()) off;
    let off_mem m = Hashtbl.mem tbl m in
    check_disjoint on ~mem:off_mem;
    prime_cover ~n ~on ~covers_off:(fun care value ->
        covers_some_off ~n ~off ~off_mem care value)
  end

(* ------------------------------------------------------------------ *)
(* Cross-candidate memoization of [minimize].

   The reduction search minimizes the same (n, ON, OFF) subproblem many
   times: sibling candidates leave most signals' sets untouched, and the
   set/reset networks of a generalized C-element share codes.  The cache
   key is the canonical form of the inputs (strictly ascending minterm
   arrays) — [minimize] is invariant under permutation and duplication of
   its inputs, so a hit returns exactly what the call would have computed.
   [Logic] passes its sets canonical already and never mutates them, so
   a key shares the caller's arrays.

   Tables live in {!Pool.Dls} domain-local storage: each domain (say, a
   serve worker) fills its own table, so there is no locking and no shared
   mutation, and because [minimize] is deterministic every domain converges
   to the same entries — a pool job stays pure up to
   commutative-and-idempotent memoization. *)
module Memo = struct
  type entry = { cover : Cover.t; lits : int }

  let c_hits = Obs.Counter.make "boolf.memo.hits"
  let c_misses = Obs.Counter.make "boolf.memo.misses"

  let rec equal_from (a : int array) (b : int array) i =
    i = Array.length a || (a.(i) = b.(i) && equal_from a b (i + 1))

  let ints_equal a b = Array.length a = Array.length b && equal_from a b 0

  (* The polymorphic hash reads only the first few cells of an array, so
     keys sharing a prefix of minterms would share a bucket: fold them all. *)
  module Tbl = Hashtbl.Make (struct
    type t = int * int array * int array

    let equal (n1, on1, off1) (n2, on2, off2) =
      Int.equal n1 n2 && ints_equal on1 on2 && ints_equal off1 off2

    let hash (n, on, off) =
      let mix h m = (h lxor m) * 0x100000001b3 in
      let h = ref (mix n (Array.length on)) in
      for i = 0 to Array.length on - 1 do
        h := mix !h on.(i)
      done;
      for i = 0 to Array.length off - 1 do
        h := mix !h off.(i)
      done;
      Hashtbl.hash !h
  end)

  let tables : entry Tbl.t Pool.Dls.key =
    Pool.Dls.new_key (fun () -> Tbl.create 1024)

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
