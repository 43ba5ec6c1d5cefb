(* Redundant-check elimination: instrument every IR-corpus kernel with
   and without [redundant_elim], run both deterministically, and report
   the static and dynamic checking-overhead deltas.  The two runs must
   be bit-identical over [r0] and the final shared image — the optimizer
   may only remove work, never change results. *)

let run_rce () =
  let base_opts = Rewrite.Instrument.default_options in
  let opt_opts = { base_opts with Rewrite.Instrument.redundant_elim = true } in
  let rows =
    List.map
      (fun (e : Apps.Ircorpus.entry) ->
        let prog_b, st_b = Rewrite.Instrument.instrument ~options:base_opts e.Apps.Ircorpus.e_program in
        let prog_o, st_o = Rewrite.Instrument.instrument ~options:opt_opts e.Apps.Ircorpus.e_program in
        let rb = Apps.Ircorpus.run prog_b e in
        let ro = Apps.Ircorpus.run prog_o e in
        if not Apps.Ircorpus.(rb.r0 = ro.r0 && rb.image = ro.image) then
          failwith (e.Apps.Ircorpus.e_name ^ ": optimized run diverged from the baseline");
        let slots_b = rb.Apps.Ircorpus.check_slots and slots_o = ro.Apps.Ircorpus.check_slots in
        let saved =
          if slots_b = 0 then 0.0 else float_of_int (slots_b - slots_o) /. float_of_int slots_b
        in
        ( e.Apps.Ircorpus.e_name,
          Sim.Stats.(
            ints
              [
                st_b.Rewrite.Instrument.new_slots; st_o.Rewrite.Instrument.new_slots;
                st_o.Rewrite.Instrument.checks_eliminated; st_o.Rewrite.Instrument.checks_hoisted;
                slots_b; slots_o;
              ]
            @ [
                Float (100.0 *. saved); Float (Sim.Units.to_us rb.Apps.Ircorpus.elapsed);
                Float (Sim.Units.to_us ro.Apps.Ircorpus.elapsed);
              ]) ))
      Apps.Ircorpus.all
  in
  Support.print
    {
      Sim.Stats.title = "redundant-check elimination (IR corpus, 1 processor)";
      columns =
        [
          "kernel"; "slots"; "slots_opt"; "eliminated"; "hoisted"; "check_slots"; "check_slots_opt";
          "saved_pct"; "elapsed_us"; "elapsed_opt_us";
        ];
      rows;
    };
  Printf.printf
    "\nstatic slots shrink with redundant_elim; executed check slots drop on every\n\
     kernel with an eliminated check, and results stay bit-identical.\n"
