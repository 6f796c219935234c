(* spanner_cli — evaluate regex formulas and simple spanner pipelines.

   Examples:
     spanner_cli --extract "x{a*}y{b*}" aabb
     spanner_cli --extract "x{acheive|begining}" --anywhere "abacheiveb"
     spanner_cli --extract "x{(a|b)+}y{(a|b)+}" --select-eq x,y abab
     spanner_cli --extract "x{(a|b)+}y{(a|b)+}" --select-eq x,y --anywhere cabab
     spanner_cli --extract "x{a*}y{(ba)*}" --select-rel num_a:x,y aababa *)

open Cmdliner

let named_relation name =
  match String.lowercase_ascii name with
  | "num_a" -> Some (Spanner.Selectable.num 'a')
  | "num_b" -> Some (Spanner.Selectable.num 'b')
  | "add" -> Some Spanner.Selectable.add
  | "mult" -> Some Spanner.Selectable.mult
  | "scatt" -> Some Spanner.Selectable.scatt
  | "perm" -> Some Spanner.Selectable.perm
  | "rev" -> Some Spanner.Selectable.rev
  | "shuff" -> Some Spanner.Selectable.shuff
  | "morph" -> Some (Spanner.Selectable.morph Words.Morphism.paper_h)
  | "len_eq" -> Some Spanner.Selectable.len_eq
  | "len_lt" -> Some Spanner.Selectable.len_lt
  | _ -> None

let split_on_comma s = String.split_on_char ',' s |> List.filter (fun x -> x <> "")

(* Σ* · γ · Σ* over the document's own alphabet *)
let anywhere_formula f doc =
  let wild = Spanner.Regex_formula.of_regex (Regex_engine.Regex.all_words (Words.Word.alphabet doc)) in
  Spanner.Regex_formula.Cat (wild, Spanner.Regex_formula.Cat (f, wild))

let run extract docs anywhere select_eq select_rel metrics =
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
  match Spanner.Regex_formula.parse extract with
  | Error msg ->
      Format.eprintf "parse error: %s@." msg;
      exit 2
  | Ok formula ->
      if not (Spanner.Regex_formula.is_functional formula) then begin
        Format.eprintf "regex formula is not functional@.";
        exit 2
      end;
      (* the selections, applied to an Extract leaf *)
      let select_eq =
        match select_eq with
        | Some pair -> (
            match split_on_comma pair with
            | [ x; y ] -> fun e -> Spanner.Algebra.Select_eq (x, y, e)
            | _ ->
                Format.eprintf "--select-eq wants x,y@.";
                exit 2)
        | None -> Fun.id
      in
      let select_rel =
        match select_rel with
        | Some spec -> (
            match String.index_opt spec ':' with
            | Some i -> (
                let name = String.sub spec 0 i in
                let vars = split_on_comma (String.sub spec (i + 1) (String.length spec - i - 1)) in
                match named_relation name with
                | Some r -> fun e -> Spanner.Algebra.Select_rel (r, vars, e)
                | None ->
                    Format.eprintf "unknown relation %s@." name;
                    exit 2)
            | None ->
                Format.eprintf "--select-rel wants name:x,y,...@.";
                exit 2)
        | None -> Fun.id
      in
      let pipeline f = select_rel (select_eq (Spanner.Algebra.Extract f)) in
      let expr = pipeline formula in
      Format.printf "spanner: %a@." Spanner.Algebra.pp expr;
      (match Spanner.Algebra.well_formed expr with
      | Error msg ->
          Format.eprintf "ill-formed: %s@." msg;
          exit 2
      | Ok schema -> Format.printf "schema: (%s)@." (String.concat ", " schema));
      List.iter
        (fun doc ->
          let result =
            if anywhere then Spanner.Algebra.eval (pipeline (anywhere_formula formula doc)) doc
            else Spanner.Algebra.eval expr doc
          in
          Format.printf "%s: %a@." doc (Spanner.Relation.pp ~doc) result)
        docs;
      exit 0

let extract_arg =
  Arg.(required & opt (some string) None & info [ "e"; "extract" ] ~docv:"FORMULA" ~doc:"Regex formula with x{...} bindings.")

let docs_arg = Arg.(value & pos_all string [] & info [] ~docv:"DOC" ~doc:"Documents.")
let anywhere_arg =
  Arg.(value & flag & info [ "anywhere" ] ~doc:"Wrap the formula in Σ*...Σ* (before any selection).")
let select_eq_arg = Arg.(value & opt (some string) None & info [ "select-eq" ] ~docv:"X,Y" ~doc:"Apply ζ^= selection.")
let select_rel_arg = Arg.(value & opt (some string) None & info [ "select-rel" ] ~docv:"R:VARS" ~doc:"Apply a ζ^R selection (num_a, add, mult, scatt, perm, rev, shuff, morph, len_eq, len_lt).")

let metrics_arg =
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
       ~doc:"Enable the Obs counters (spanner.compiles: compile-cache misses; \
             spanner.run_nodes: co-reachable run nodes enumerated) and dump \
             the merged snapshot to $(docv) on exit.")

let cmd =
  Cmd.v
    (Cmd.info "spanner_cli" ~doc:"Evaluate document spanners")
    Term.(const run $ extract_arg $ docs_arg $ anywhere_arg $ select_eq_arg $ select_rel_arg $ metrics_arg)

let () = exit (Cmd.eval cmd)
