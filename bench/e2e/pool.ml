(* The query pool of the [decide] and [decide_session] workloads, and
   its golden verdicts.

   Instances come from the paper's witness constructions: the (p, q)
   witness pairs of L₁–L₆, aⁿbⁿ and a≤b (Lemma 4.14, Example 4.4), one
   Fooling Lemma instance with nonempty separators, and primitive powers
   w^p vs w^q (Lemma 4.8) for w ∈ {ab, aab, abb}. Word length stands in
   for cost: k = 1 up to 50 letters in both words, k = 2 up to 28, which
   keeps every instance under about 0.2 s cache-less and a pass over the
   whole pool near 1.5 s on a 2-core x86 VM. *)

type inst = { family : string; p : int; q : int; k : int; w : string; v : string }

let rep s n = String.concat "" (List.init n (fun _ -> s))

let pairs =
  [ (1, 2); (2, 3); (3, 4); (2, 4); (3, 5); (4, 6); (5, 7); (6, 8); (8, 10);
    (10, 12); (12, 14); (16, 18); (20, 22); (24, 26) ]

let fooling =
  Core.Fooling.make ~w1:"c" ~w2:"c" ~w3:"c" ~u:"a" ~v:"b" ~f:Fun.id ~f_name:"id" ()

let families =
  let lang name (l : Core.Langs.t) = (name, fun p q -> Core.Langs.witness_candidates l ~p ~q) in
  let power base = ("pow_" ^ base, fun p q -> Some (rep base p, rep base q)) in
  [
    lang "L1" Core.Langs.l1; lang "L2" Core.Langs.l2; lang "L3" Core.Langs.l3;
    lang "L4" Core.Langs.l4; lang "L5" Core.Langs.l5; lang "L6" Core.Langs.l6;
    lang "anbn" Core.Langs.anbn; lang "a_le_b" Core.Langs.a_le_b;
    ( "fool_cacbc",
      fun p q ->
        let i = fooling in
        Some
          ( Core.Fooling.word_at i p,
            i.w1 ^ rep i.u q ^ i.w2 ^ rep i.v (i.f p) ^ i.w3 ) );
    power "ab"; power "aab"; power "abb";
  ]

let max_len ~smoke k =
  match (smoke, k) with
  | false, 1 -> 50
  | false, _ -> 28
  | true, 1 -> 16
  | true, _ -> 10

let pool ~smoke =
  List.concat_map
    (fun (family, words) ->
      List.concat_map
        (fun (p, q) ->
          match words p q with
          | None -> []
          | Some (w, v) ->
              List.filter_map
                (fun k ->
                  if String.length w + String.length v <= max_len ~smoke k then
                    Some { family; p; q; k; w; v }
                  else None)
                [ 1; 2 ])
        pairs)
    families
  |> Array.of_list

let verdict_to_string = function
  | Efgame.Game.Equiv -> "Equiv"
  | Efgame.Game.Not_equiv -> "Not_equiv"
  | Efgame.Game.Unknown -> "Unknown"

(* Golden file: one line per instance,
   family TAB p TAB q TAB k TAB verdict TAB w TAB v. *)
let parse_golden text =
  let tbl = Hashtbl.create 256 in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         match String.split_on_char '\t' line with
         | [ _; _; _; k; verdict; w; v ] -> (
             match (int_of_string_opt k, verdict) with
             | Some k, ("Equiv" | "Not_equiv") -> Hashtbl.replace tbl (w, v, k) verdict
             | _ -> failwith ("decide_pool.golden: bad line: " ^ line))
         | [ "" ] -> ()
         | _ when String.starts_with ~prefix:"#" line -> ()
         | _ -> failwith ("decide_pool.golden: bad line: " ^ line));
  tbl

(* The golden verdict of every pool instance, or [Failure] naming the
   first instance the golden file does not cover (the pool construction
   changed, so the file must be regenerated on a trusted commit). *)
let golden pool =
  let tbl = parse_golden Golden_data.text in
  Array.map
    (fun i ->
      match Hashtbl.find_opt tbl (i.w, i.v, i.k) with
      | Some v -> v
      | None ->
          Printf.ksprintf failwith "decide_pool.golden has no verdict for %s (%d,%d) k=%d"
            i.family i.p i.q i.k)
    pool

let write_golden path =
  let pool = pool ~smoke:false in
  let oc = open_out path in
  output_string oc
    "# Golden verdicts of the e2e decide pool: family, p, q, k, verdict, w, v.\n\
     # Written by `e2e.exe --write-golden` with the cache-less solver.\n";
  Array.iter
    (fun i ->
      let t0 = Span.now_ns () in
      let verdict = Efgame.Game.decide (Efgame.Game.make i.w i.v) i.k in
      let ms = float_of_int (Span.now_ns () - t0) /. 1e6 in
      if verdict = Efgame.Game.Unknown then
        Printf.ksprintf failwith "%s (%d,%d) k=%d: Unknown" i.family i.p i.q i.k;
      Printf.printf "%-10s (%2d,%2d) k=%d %-9s %9.2f ms\n%!" i.family i.p i.q i.k
        (verdict_to_string verdict) ms;
      Printf.fprintf oc "%s\t%d\t%d\t%d\t%s\t%s\t%s\n" i.family i.p i.q i.k
        (verdict_to_string verdict) i.w i.v)
    pool;
  close_out oc;
  Printf.printf "wrote %d verdicts to %s\n" (Array.length pool) path
