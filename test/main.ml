(* When the suite runs with tracing on (ASYNC_REPRO_TRACE=1, as the CI
   tier-1 job does), dump whatever the trace buffers hold at exit as a
   Chrome trace artifact.  Tests that enable recording locally reset the
   buffers behind themselves, so the artifact mostly shows the suites
   that ran after the obs suite — plenty to load in Perfetto. *)
let () =
  if Obs.enabled () then
    at_exit (fun () ->
        let file =
          Option.value ~default:"obs_trace.json"
            (Sys.getenv_opt "ASYNC_REPRO_TRACE_FILE")
        in
        Out_channel.with_open_text file (fun oc ->
            Out_channel.output_string oc (Obs.chrome_trace ()));
        Printf.eprintf "wrote %s\n%!" file)

let () =
  Alcotest.run "async_repro"
    [
      ("obs", Test_obs.suite);
      ("petri", Test_petri.suite);
      ("stg", Test_stg.suite);
      ("sg", Test_sg.suite);
      ("boolf", Test_boolf.suite);
      ("logic", Test_logic.suite);
      ("timing", Test_timing.suite);
      ("reduction", Test_reduction.suite);
      ("expansion", Test_expansion.suite);
      ("csc", Test_csc.suite);
      ("regions", Test_regions.suite);
      ("search", Test_search.suite);
      ("flow", Test_flow.suite);
      ("netlist", Test_netlist.suite);
      ("circuit", Test_circuit.suite);
      ("contract", Test_contract.suite);
      ("specs", Test_specs.suite);
      ("bdd", Test_bdd.suite);
      ("crosscheck", Test_crosscheck.suite);
      ("techmap", Test_techmap.suite);
      ("portfolio", Test_portfolio.suite);
      ("delta", Test_delta.suite);
      ("roundtrip", Test_roundtrip.suite);
      ("fuzz", Test_fuzz.suite);
      ("serve", Test_serve.suite);
      ("json", Test_json.suite);
    ]
