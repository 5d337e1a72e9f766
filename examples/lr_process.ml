(* The LR-process (Sec. 3 of the paper): handshake expansion from a CSP-like
   specification and exploration of the reshuffling space.

   Run with:  dune exec examples/lr_process.exe *)

open Expansion

(* The LR-process transfers control from its passive port l to its active
   port r:  *[ l? ; r! ; r? ; l! ]  — written with the combinators... *)
let lr_combinators = spec (Loop (Seq [ Recv "l"; Send "r"; Recv "r"; Send "l" ]))

(* ... or with the concrete syntax accepted by the astg CLI. *)
let lr_parsed = spec (Parse.proc "loop { l?; r!; r?; l! }")

let () =
  assert (lr_combinators.proc = lr_parsed.proc);

  (* 4-phase expansion with the handshake protocol enforced per channel
     ([li+; lo+; li-; lo-]) and all other reset events maximally
     concurrent — the paper's Fig. 2.f. *)
  let stg = four_phase lr_combinators in
  print_string (Stg.Io.print stg);
  let sg = Core.sg_exn stg in
  Format.printf "max-concurrency expansion: %a@." Sg.pp sg;

  (* The same expansion without interface constraints (Fig. 2.e) is not a
     valid LR handshake: the request could reset before the acknowledge. *)
  let invalid = four_phase ~constraints:`None lr_combinators in
  Printf.printf "without interface constraints: %d states, %d CSC conflicts\n"
    (Sg.n_states (Core.sg_exn invalid))
    (Sg.csc_conflict_count (Core.sg_exn invalid));

  (* Explore the reshuffling space: the rows of the paper's Table 1. *)
  let l = Core.lab stg in
  let rows =
    [
      Core.implement_reduced ~name:"Q-module (hand)" sg
        [ (l "lo+", l "ro-"); (l "lo+", l "ri-") ];
      Core.implement_reduced ~name:"Full reduction" sg
        [ (l "lo-", l "ri-"); (l "ro-", l "li-") ];
      Core.implement ~name:"Max.concurrency" sg;
      Core.optimize ~name:"li || ri kept" ~keep_conc:[ (l "li-", l "ri-") ]
        ~w:0.8 ~size_frontier:6 sg;
    ]
  in
  print_string (Core.render_table ~title:"LR-process implementations" rows);

  (* The full reduction is just two wires: lo = ri, ro = li. *)
  List.iter
    (fun (r : Core.report) ->
      Printf.printf "-- %s\n%s\n" r.Core.name r.Core.equations)
    rows
