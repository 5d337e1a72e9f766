(* The PAR component of Tangram (first case study, Sec. 8): a passive
   channel a triggers two sub-handshakes b and c in parallel.

   Run with:  dune exec examples/par_component.exe *)

open Expansion

let par =
  spec
    (Loop
       (Seq
          [
            Recv "a";
            Par [ Seq [ Send "b"; Recv "b" ]; Seq [ Send "c"; Recv "c" ] ];
            Send "a";
          ]))

let () =
  (* The channel-level STG of Fig. 10.a, then the automatic 4-phase
     expansion of Fig. 10.b. *)
  print_string (Stg.Io.print (compile_raw par));
  let stg = four_phase par in
  print_string (Stg.Io.print stg);
  let sg = Core.sg_exn stg in
  Format.printf "4-phase expansion: %a, %d CSC conflict pairs@." Sg.pp sg
    (Sg.csc_conflict_count sg);

  let delays s t = Timing.par_delays s t in
  let l = Core.lab stg in

  (* The manual Tangram implementation acknowledges only after both
     sub-handshakes have fully returned to zero. *)
  let manual =
    Core.implement_reduced ~delays ~name:"manual (Tangram)" sg
      [ (l "ao+", l "bi-"); (l "ao+", l "ci-") ]
  in

  (* The automatic flow reduces concurrency while preserving the parallel
     execution of both processes (b? || c? must stay concurrent). *)
  let automatic =
    Core.optimize ~delays ~name:"automatic" ~w:0.9 ~size_frontier:20
      ~keep_conc:[ (l "bi+", l "ci+") ]
      sg
  in
  print_string
    (Core.render_table ~title:"PAR component" [ manual; automatic ]);
  Printf.printf "-- automatic implementation:\n%s\n" automatic.Core.equations;

  (* The paper notes the automatic circuit is asymmetric: one channel's
     handshake is gated by the other's progress, which is beneficial when
     that other process is slower.  Verify the protected concurrency
     survived the reduction. *)
  let outcome =
    Search.optimize ~w:0.9 ~size_frontier:20
      ~keep_conc:[ (l "bi+", l "ci+") ]
      sg
  in
  let best_sg = outcome.Search.best.Search.sg in
  Printf.printf "parallel execution preserved in the reduced behaviour: %b\n"
    (Sg.concurrent best_sg (l "bi+") (l "ci+"))
