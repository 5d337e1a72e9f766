(* Tests for the boolean cube/cover algebra and the two-level minimizer. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let cube = Boolf.Cube.of_string

(* Two cube helpers the minimizer does without: the cube binding the
   first [n] variables to a minterm's bits, and a cube with the literal
   on [v] dropped. *)
let cube_of_minterm ~n m = Boolf.Cube.make ~care:((1 lsl n) - 1) ~value:m

let cube_free (c : Boolf.Cube.t) v =
  let bit = 1 lsl v in
  Boolf.Cube.make ~care:(c.care land lnot bit) ~value:(c.value land lnot bit)

let test_cube_strings () =
  check_str "roundtrip" "10-" (Boolf.Cube.to_string ~n:3 (cube "10-"));
  check_str "all dc" "---" (Boolf.Cube.to_string ~n:3 Boolf.Cube.top);
  check_int "literals" 2 (Boolf.Cube.literals (cube "10-"));
  check_int "top literals" 0 (Boolf.Cube.literals Boolf.Cube.top);
  Alcotest.check_raises "bad char" (Invalid_argument "Boolf.Cube.of_string: x")
    (fun () -> ignore (cube "1x"))

let test_covers_minterm () =
  let c = cube "1-0" in
  check "covers 100" true (Boolf.Cube.covers c 0b001);
  (* variable 0 is the leftmost character, bit 0 *)
  check "covers 110" true (Boolf.Cube.covers c 0b011);
  check "rejects 101" false (Boolf.Cube.covers c 0b101);
  check "rejects 000" false (Boolf.Cube.covers c 0b000)

let test_contains () =
  check "larger contains smaller" true
    (Boolf.Cube.contains (cube "1--") (cube "1-0"));
  check "not contains" false (Boolf.Cube.contains (cube "1-0") (cube "1--"));
  check "reflexive" true (Boolf.Cube.contains (cube "01-") (cube "01-"));
  check "top contains all" true (Boolf.Cube.contains Boolf.Cube.top (cube "010"))

let test_inter () =
  (match Boolf.Cube.inter (cube "1--") (cube "-0-") with
  | Some c -> check_str "intersection" "10-" (Boolf.Cube.to_string ~n:3 c)
  | None -> Alcotest.fail "expected intersection");
  check "disjoint" true (Boolf.Cube.inter (cube "1--") (cube "0--") = None)

let test_free_bound () =
  let c = cube "10-" in
  check "bound 0" true (Boolf.Cube.bound c 0);
  check "bound 2" false (Boolf.Cube.bound c 2);
  check "polarity" true (Boolf.Cube.polarity c 0 && not (Boolf.Cube.polarity c 1));
  let c' = cube_free c 0 in
  check_str "freed" "-0-" (Boolf.Cube.to_string ~n:3 c')

let test_render () =
  let names = [| "a"; "b"; "c" |] in
  check_str "product" "a b'" (Boolf.Cube.render ~names (cube "10-"));
  check_str "constant one" "1" (Boolf.Cube.render ~names Boolf.Cube.top);
  check_str "sum" "a b' + c"
    (Boolf.Cover.render ~names [ cube "10-"; cube "--1" ]);
  check_str "empty cover" "0" (Boolf.Cover.render ~names [])

let test_minimize_simple () =
  (* f = a (variable 0) over 2 variables; full truth table given. *)
  let on = [| 0b01; 0b11 |] and off = [| 0b00; 0b10 |] in
  let cover = Boolf.minimize ~n:2 ~on ~off in
  check_int "single cube" 1 (Boolf.Cover.cubes cover);
  check_int "single literal" 1 (Boolf.Cover.literals cover)

let test_minimize_dc () =
  (* ON = {11}, OFF = {00}: a single don't-care-expanded literal works. *)
  let cover = Boolf.minimize ~n:2 ~on:[| 0b11 |] ~off:[| 0b00 |] in
  check_int "one cube" 1 (Boolf.Cover.cubes cover);
  check_int "one literal thanks to don't cares" 1 (Boolf.Cover.literals cover)

let test_minimize_xor () =
  (* XOR has no don't cares and needs two 2-literal cubes. *)
  let on = [| 0b01; 0b10 |] and off = [| 0b00; 0b11 |] in
  let cover = Boolf.minimize ~n:2 ~on ~off in
  check_int "two cubes" 2 (Boolf.Cover.cubes cover);
  check_int "four literals" 4 (Boolf.Cover.literals cover)

let test_minimize_errors () =
  check "overlapping on/off rejected" true
    (match Boolf.minimize ~n:2 ~on:[| 1 |] ~off:[| 1 |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_equal_on () =
  let c1 = [ cube "1-" ] in
  let c2 = [ cube "10"; cube "11" ] in
  check "same function" true (Boolf.Cover.equal_on ~n:2 c1 c2);
  check "different" false (Boolf.Cover.equal_on ~n:2 c1 [ cube "01" ])

let test_estimate () =
  let literals ~on ~off = Boolf.Cover.literals (Boolf.minimize ~n:3 ~on ~off) in
  check_int "constant zero" 0 (literals ~on:[||] ~off:[| 1 |]);
  check_int "constant one" 0 (literals ~on:[| 1 |] ~off:[||])

(* Properties. *)

let gen_onoff n =
  QCheck.Gen.(
    let minterm = int_range 0 ((1 lsl n) - 1) in
    pair (list_size (int_range 0 8) minterm) (list_size (int_range 0 8) minterm))

let arb_onoff n =
  QCheck.make
    ~print:(fun (on, off) ->
      Printf.sprintf "on=[%s] off=[%s]"
        (String.concat ";" (List.map string_of_int on))
        (String.concat ";" (List.map string_of_int off)))
    (gen_onoff n)

let disjoint on off = not (List.exists (fun m -> List.mem m off) on)

(* [Boolf.minimize] on the generated lists, as arrays in the same order. *)
let minimize_l ~n ~on ~off =
  Boolf.minimize ~n ~on:(Array.of_list on) ~off:(Array.of_list off)

let prop_minimize_sound =
  QCheck.Test.make
    ~name:"minimize covers every ON minterm and no OFF minterm" ~count:300
    (arb_onoff 6)
    (fun (on, off) ->
      QCheck.assume (disjoint on off);
      let cover = minimize_l ~n:6 ~on ~off in
      List.for_all (fun m -> Boolf.Cover.covers cover m) on
      && not (List.exists (fun m -> Boolf.Cover.covers cover m) off))

let prop_minimize_primes =
  QCheck.Test.make
    ~name:"every cube of a minimized cover is prime against the OFF set"
    ~count:200 (arb_onoff 5)
    (fun (on, off) ->
      QCheck.assume (disjoint on off);
      let cover = minimize_l ~n:5 ~on ~off in
      let prime c =
        (* Freeing any bound literal would cover an OFF minterm. *)
        List.for_all
          (fun v ->
            (not (Boolf.Cube.bound c v))
            || List.exists
                 (fun m -> Boolf.Cube.covers (cube_free c v) m)
                 off)
          (List.init 5 Fun.id)
      in
      List.for_all prime cover)

let prop_minimize_irredundant =
  QCheck.Test.make
    ~name:"minimized covers are irredundant" ~count:300 (arb_onoff 6)
    (fun (on, off) ->
      QCheck.assume (disjoint on off);
      let cover = minimize_l ~n:6 ~on ~off in
      (* Dropping any single cube must uncover some ON minterm. *)
      let rec each kept = function
        | [] -> true
        | c :: rest ->
            let others = kept @ rest in
            List.exists
              (fun m ->
                Boolf.Cube.covers c m
                && not (List.exists (fun c' -> Boolf.Cube.covers c' m) others))
              on
            && each (c :: kept) rest
      in
      on = [] || each [] cover)

let prop_memo_canonical =
  QCheck.Test.make
    ~name:"memoized minimize is invariant under input permutation/duplication"
    ~count:300
    QCheck.(pair (arb_onoff 6) (int_bound 1000))
    (fun ((on, off), salt) ->
      QCheck.assume (disjoint on off);
      let direct = minimize_l ~n:6 ~on ~off in
      (* A seeded shuffle plus duplication of the first element: same sets,
         different array contents. *)
      let mangle l =
        let tagged =
          List.mapi (fun i m -> (((i * 7919) + salt) mod 101, m)) l
        in
        let shuffled = List.map snd (List.sort compare tagged) in
        Array.of_list (match shuffled with [] -> [] | m :: _ -> m :: shuffled)
      in
      let on_a = Array.of_list on and off_a = Array.of_list off in
      let memo1 = Boolf.Memo.minimize ~n:6 ~on:on_a ~off:off_a in
      let memo2 = Boolf.Memo.minimize ~n:6 ~on:(mangle on) ~off:(mangle off) in
      memo1 = direct && memo2 = direct
      && Boolf.Memo.literals ~n:6 ~on:(mangle on) ~off:(mangle off)
         = Boolf.Cover.literals direct)

let prop_contains_covers =
  QCheck.Test.make
    ~name:"contains is equivalent to minterm-wise coverage" ~count:200
    QCheck.(pair (int_range 0 242) (int_range 0 242))
    (fun (x, y) ->
      (* interpret x, y base-3 as cubes over 5 variables *)
      let decode v =
        let buf = Bytes.create 5 in
        let rec go v i =
          if i < 5 then begin
            Bytes.set buf i
              (match v mod 3 with 0 -> '0' | 1 -> '1' | _ -> '-');
            go (v / 3) (i + 1)
          end
        in
        go v 0;
        Boolf.Cube.of_string (Bytes.to_string buf)
      in
      let c1 = decode x and c2 = decode y in
      let by_minterms =
        List.for_all
          (fun m -> (not (Boolf.Cube.covers c2 m)) || Boolf.Cube.covers c1 m)
          (List.init 32 Fun.id)
      in
      Boolf.Cube.contains c1 c2 = by_minterms)

(* A reference for [Boolf.minimize] at any width: expand each ON minterm
   by dropping literal v, for v from 0 to n - 1, when a scan of the OFF
   list finds no minterm the wider cube covers; then the same cover step
   (greedy set cover, gain first, then fewer literals, ties to the first
   prime in cube order; then the irredundancy pass in cube order). *)
let reference_minimize ~n ~on ~off =
  let covers = Boolf.Cube.covers and lits = Boolf.Cube.literals in
  let expand m =
    let c = ref (cube_of_minterm ~n m) in
    for v = 0 to n - 1 do
      let wider = cube_free !c v in
      if not (List.exists (covers wider) off) then c := wider
    done;
    !c
  in
  let on = List.sort_uniq compare on in
  let primes = List.sort_uniq Boolf.Cube.compare (List.map expand on) in
  let rec greedy chosen = function
    | [] -> chosen
    | uncovered ->
        let best =
          List.fold_left
            (fun best c ->
              let g = List.length (List.filter (covers c) uncovered) in
              match best with
              | _ when g = 0 -> best
              | Some (bg, bl, _) when (bg, bl) >= (g, -lits c) -> best
              | Some _ | None -> Some (g, -lits c, c))
            None primes
        in
        let c = match best with Some (_, _, c) -> c | None -> assert false in
        greedy (c :: chosen)
          (List.filter (fun m -> not (covers c m)) uncovered)
  in
  let rec drop_redundant kept = function
    | [] -> List.rev kept
    | c :: rest ->
        let others m = List.exists (fun c' -> covers c' m) (kept @ rest) in
        if List.for_all (fun m -> (not (covers c m)) || others m) on then
          drop_redundant kept rest
        else drop_redundant (c :: kept) rest
  in
  drop_redundant [] (List.sort Boolf.Cube.compare (greedy [] on))

(* Widths 1 to 16 (at most 5 variables fit one OFF word; 16 is the widest
   word table) and 17 to 20 (the hashed OFF set), with ON sets of up to
   200 minterms, so that the coverage bitsets span several 62-bit words,
   and OFF sets from empty to a few hundred minterms: the small ones make
   the minimizer scan OFF rather than test words or probe the table. *)
let arb_any_width =
  let gen =
    QCheck.Gen.(
      let* n =
        oneof [ int_range 1 5; int_range 6 16; return 16; int_range 17 20 ]
      in
      let minterm = int_range 0 ((1 lsl n) - 1) in
      let* on = list_size (oneof [ int_range 0 24; int_range 0 200 ]) minterm in
      let* off =
        list_size (oneof [ int_range 0 8; int_range 0 64; int_range 0 400 ])
          minterm
      in
      return (n, List.filter (fun m -> not (List.mem m off)) on, off))
  in
  QCheck.make
    ~print:(fun (n, on, off) ->
      Printf.sprintf "n=%d on=[%s] off=[%s]" n
        (String.concat ";" (List.map string_of_int on))
        (String.concat ";" (List.map string_of_int off)))
    gen

let prop_minimize_any_width =
  QCheck.Test.make
    ~name:"minimize = OFF-scan reference, widths 1 to 20" ~count:600
    arb_any_width
    (fun (n, on, off) ->
      minimize_l ~n ~on ~off = reference_minimize ~n ~on ~off)

(* Keys that share a 16-minterm ON prefix (more array cells than the
   polymorphic hash reads) each get their own entry: a second lookup hits
   and returns what [minimize] computes. *)
let test_memo_shared_prefix () =
  let n = 10 in
  let keys =
    List.init 200 (fun i ->
        (Array.init 17 (fun j -> if j < 16 then j else 100 + i), [| 512 + i |]))
  in
  Boolf.Memo.clear ();
  List.iter (fun (on, off) -> ignore (Boolf.Memo.minimize ~n ~on ~off)) keys;
  let counter name = List.assoc name (Obs.counters ()) in
  let hits = counter "boolf.memo.hits" and misses = counter "boolf.memo.misses" in
  Test_obs.with_enabled true (fun () ->
      List.iter
        (fun (on, off) ->
          check "cover" true
            (Boolf.Memo.minimize ~n ~on ~off = Boolf.minimize ~n ~on ~off))
        keys);
  check_int "every key hits" (List.length keys)
    (counter "boolf.memo.hits" - hits);
  check_int "no miss" misses (counter "boolf.memo.misses")

(* [Memo] keys on the strictly ascending arrays: a lookup with the same
   sets out of order, or with a repeated minterm, hits the entry the
   ascending arrays made, and an unsorted first lookup makes the entry the
   ascending arrays then hit. *)
let test_memo_unsorted_hits () =
  let n = 6 in
  let on = [| 1; 5; 12; 33 |] and off = [| 0; 2; 40; 63 |] in
  let scrambled =
    [ ([| 33; 5; 1; 12 |], [| 63; 0; 40; 2 |]); ([| 1; 5; 5; 12; 33 |], off) ]
  in
  let counter name = List.assoc name (Obs.counters ()) in
  let direct = Boolf.minimize ~n ~on ~off in
  List.iter
    (fun (first, then_) ->
      Boolf.Memo.clear ();
      let hits = counter "boolf.memo.hits"
      and misses = counter "boolf.memo.misses" in
      Test_obs.with_enabled true (fun () ->
          List.iter
            (fun (on, off) ->
              check "cover" true (Boolf.Memo.minimize ~n ~on ~off = direct))
            (first :: then_));
      check_int "one miss" 1 (counter "boolf.memo.misses" - misses);
      check_int "the rest hit" (List.length then_)
        (counter "boolf.memo.hits" - hits))
    [ ((on, off), scrambled); (List.hd scrambled, [ (on, off) ]) ];
  (* The scrambled arrays are read, never sorted in place. *)
  check "caller's array untouched" true
    (fst (List.hd scrambled) = [| 33; 5; 1; 12 |])

let suite =
  [
    Alcotest.test_case "cube strings" `Quick test_cube_strings;
    Alcotest.test_case "covers minterm" `Quick test_covers_minterm;
    Alcotest.test_case "contains" `Quick test_contains;
    Alcotest.test_case "inter" `Quick test_inter;
    Alcotest.test_case "free and bound" `Quick test_free_bound;
    Alcotest.test_case "render" `Quick test_render;
    Alcotest.test_case "minimize identity" `Quick test_minimize_simple;
    Alcotest.test_case "minimize with dc" `Quick test_minimize_dc;
    Alcotest.test_case "minimize xor" `Quick test_minimize_xor;
    Alcotest.test_case "minimize errors" `Quick test_minimize_errors;
    Alcotest.test_case "equal_on" `Quick test_equal_on;
    Alcotest.test_case "estimate constants" `Quick test_estimate;
    QCheck_alcotest.to_alcotest prop_minimize_sound;
    QCheck_alcotest.to_alcotest prop_minimize_primes;
    QCheck_alcotest.to_alcotest prop_minimize_irredundant;
    QCheck_alcotest.to_alcotest prop_memo_canonical;
    Alcotest.test_case "memo keys sharing a long prefix" `Quick
      test_memo_shared_prefix;
    QCheck_alcotest.to_alcotest prop_contains_covers;
    Alcotest.test_case "memo: unsorted input hits sorted key" `Quick
      test_memo_unsorted_hits;
    QCheck_alcotest.to_alcotest prop_minimize_any_width;
  ]
