(* fc_check — model check FC / FC[REG] formulas against words.

   Examples:
     fc_check --formula "forall z. !(z = eps) -> !exists x y. (x = z . y) & (y = z . z)" abab aaa
     fc_check --formula "x in /a*b*/" --free x=aab aabb
     fc_check --formula "exists x y. (x = y . y)" --enumerate 4 --sigma ab
     fc_check --formula "x in /a*(ba)*/" --compile
     fc_check --formula "exists x y. (x = y . y)" --metrics m.json abab aab *)

open Cmdliner

let run formula_src words free enumerate sigma compile quantifier_rank_flag metrics =
  Option.iter
    (fun path ->
      (match Obs.Jsonw.writable path with
      | Ok () -> ()
      | Error why ->
          Format.eprintf "--metrics: cannot write %s: %s@." path why;
          exit 2);
      Obs.Metrics.enable ();
      at_exit (fun () -> Obs.Metrics.dump ~path))
    metrics;
  match Fc.Parser.parse formula_src with
  | Error msg ->
      Format.eprintf "parse error: %s@." msg;
      exit 2
  | Ok formula ->
      let sigma_chars =
        match sigma with
        | Some s -> List.init (String.length s) (String.get s)
        | None -> Fc.Formula.constants formula
      in
      Format.printf "formula: %a@." Fc.Formula.pp formula;
      if quantifier_rank_flag then
        Format.printf "quantifier rank: %d; size: %d; pure FC: %b@."
          (Fc.Formula.quantifier_rank formula)
          (Fc.Formula.size formula)
          (Fc.Formula.is_pure_fc formula);
      let formula, compiled_note =
        if compile then
          match Fc.Bounded_compile.compile_formula ~sigma:sigma_chars formula with
          | Some pure -> (pure, " (compiled to pure FC)")
          | None ->
              Format.eprintf "cannot compile: some constraint is neither bounded nor simple@.";
              exit 2
        else (formula, "")
      in
      if compile then Format.printf "compiled: %a@." Fc.Formula.pp formula;
      let env =
        List.map
          (fun binding ->
            match String.index_opt binding '=' with
            | Some i ->
                ( String.sub binding 0 i,
                  String.sub binding (i + 1) (String.length binding - i - 1) )
            | None ->
                Format.eprintf "bad --free binding %S (want var=value)@." binding;
                exit 2)
          free
      in
      (* bindings must cover every free variable, or there is nothing
         to evaluate *)
      (if env <> [] then
         match
           List.filter
             (fun x -> not (List.mem_assoc x env))
             (Fc.Formula.free_vars formula)
         with
         | [] -> ()
         | unbound ->
             Format.eprintf "unbound free variable(s): %s (bind each with --free)@."
               (String.concat ", " unbound);
             exit 2);
      let check_word w =
        let sigma_all =
          List.sort_uniq Char.compare (sigma_chars @ Words.Word.alphabet w)
        in
        let st = Fc.Structure.make ~sigma:sigma_all w in
        if Fc.Formula.is_sentence formula then
          Format.printf "%s ⊨%s %s@."
            (if w = "" then "ε" else w)
            compiled_note
            (if Fc.Eval.holds st formula then "true" else "false")
        else if env <> [] then
          Format.printf "%s, %s ⊨ %b@."
            (if w = "" then "ε" else w)
            (String.concat ", " (List.map (fun (x, v) -> x ^ "=" ^ v) env))
            (Fc.Eval.holds ~env st formula)
        else begin
          let vars = Fc.Formula.free_vars formula in
          let tuples = Fc.Eval.relation st formula ~vars in
          Format.printf "%s: %d satisfying assignment(s) over (%s)@."
            (if w = "" then "ε" else w)
            (List.length tuples) (String.concat ", " vars);
          List.iter
            (fun tuple ->
              Format.printf "  (%s)@."
                (String.concat ", " (List.map (fun v -> if v = "" then "ε" else v) tuple)))
            tuples
        end
      in
      List.iter check_word words;
      (match enumerate with
      | None -> ()
      | Some max_len ->
          if not (Fc.Formula.is_sentence formula) then begin
            Format.eprintf "--enumerate needs a sentence@.";
            exit 2
          end
          else begin
            let members = Fc.Eval.language_upto ~sigma:sigma_chars formula ~max_len in
            Format.printf "L(φ) ∩ Σ^≤%d (%d members):@." max_len (List.length members);
            List.iter (fun w -> Format.printf "  %s@." (if w = "" then "ε" else w)) members
          end);
      exit 0

let formula_arg =
  Arg.(required & opt (some string) None & info [ "f"; "formula" ] ~docv:"FORMULA" ~doc:"The FC/FC[REG] formula.")

let words_arg = Arg.(value & pos_all string [] & info [] ~docv:"WORD" ~doc:"Words to check.")

let free_arg =
  Arg.(value & opt_all string [] & info [ "free" ] ~docv:"VAR=VALUE" ~doc:"Bind a free variable.")

let enumerate_arg =
  Arg.(value & opt (some int) None & info [ "enumerate" ] ~docv:"N" ~doc:"Enumerate L(φ) up to length N.")

let sigma_arg =
  Arg.(value & opt (some string) None & info [ "sigma" ] ~docv:"LETTERS" ~doc:"Alphabet (default: the formula's constants).")

let compile_arg =
  Arg.(value & flag & info [ "compile" ] ~doc:"Rewrite bounded/simple regular constraints into pure FC (Lemma 5.3).")

let qr_arg = Arg.(value & flag & info [ "info" ] ~doc:"Print quantifier rank and size.")

let metrics_arg =
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
       ~doc:"Enable the Obs counters (fc.quantifier_nodes: quantifier and \
             free-variable domains enumerated; fc.candidates: candidates the \
             guides generated for them; fc.unguided: domains that fell back \
             to the whole universe) and dump the merged snapshot to $(docv) \
             on exit.")

let cmd =
  Cmd.v
    (Cmd.info "fc_check" ~doc:"Model check FC and FC[REG] formulas over word structures")
    Term.(const run $ formula_arg $ words_arg $ free_arg $ enumerate_arg $ sigma_arg $ compile_arg $ qr_arg $ metrics_arg)

let () = exit (Cmd.eval cmd)
