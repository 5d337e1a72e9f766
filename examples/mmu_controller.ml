(* The MMU controller case study (second case study, Sec. 8): reshuffling
   the return-to-zero transitions of a four-phase controller halves its
   area without sacrificing speed-independence.

   The exact netlist of Myers & Meng's MMU is not in the paper; this is the
   reconstruction documented in DESIGN.md: a bus-side passive channel b
   sequences three active sub-handshakes l (lookup), m (miss handling) and
   r (refill).

   Run with:  dune exec examples/mmu_controller.exe *)

open Expansion

let mmu =
  spec
    (Parse.proc "loop { b?; l!; l?; m!; m?; r!; r?; b! }")

let () =
  let stg = four_phase mmu in
  let sg = Core.sg_exn stg in
  Format.printf "MMU 4-phase expansion: %a, SI=%b, %d CSC conflict pairs@."
    Sg.pp sg
    (Sg.is_speed_independent sg)
    (Sg.csc_conflict_count sg);

  (* The original: implement the maximally concurrent expansion directly. *)
  let original = Core.implement ~max_csc:8 ~name:"original" sg in

  (* Reshuffled variants: protect the mutual concurrency of three of the
     four channels' reset transitions and reduce everything else. *)
  let l = Core.lab stg in
  let keep3 (x, y, z) =
    let r c = l (c ^ "o-") in
    [ (r x, r y); (r x, r z); (r y, r z) ]
  in
  let row name keeps =
    Core.optimize ~name ~keep_conc:keeps ~w:0.8 ~size_frontier:4 sg
  in
  let rows =
    [
      original;
      Core.optimize ~name:"original reduced" ~w:1.0 ~size_frontier:4 sg;
      row "|| (b,m,r)" (keep3 ("b", "m", "r"));
      row "|| (l,m,r)" (keep3 ("l", "m", "r"));
    ]
  in
  print_string (Core.render_table ~title:"MMU controller" rows);

  match (original.Core.area, (List.nth rows 2).Core.area) with
  | Some orig, Some best ->
      Printf.printf
        "\nreshuffling reduced the area to %.0f%% of the original (paper: \
         less than half)\n"
        (100.0 *. float_of_int best /. float_of_int orig)
  | (Some _ | None), _ -> print_endline "\nsome implementation failed"
