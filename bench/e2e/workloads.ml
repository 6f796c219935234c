(* The seven workloads. Each one drives the libraries only through
   their public functions, wraps every call into a layer in a bench-side
   span, and checks every answer against an oracle after the clock has
   stopped.

   [setup] is what a user pays before the first operation (inputs,
   formulas, tables, manifests, plus an untimed warm-up of the same
   inputs on every seed); it returns the measured loop. Stateful
   workloads (decide_session, frontier_cold) warm up on a throwaway
   table and start the loop from a cold one, because users pay that
   cold start on every session or scan. *)

type env = { seed : int; smoke : bool; workdir : string }

type loop = Measured of (Run.t -> unit) | Unmeasurable of string

type t = { name : string; setup : env -> loop }

let l_make = Span.layer "efgame.make"
let l_decide = Span.layer "efgame.decide"
let l_cache_create = Span.layer "cache.create"
let l_scan = Span.layer "witness.scan"
let l_save = Span.layer "persist.save"
let l_load = Span.layer "persist.load"
let l_parse = Span.layer "spanner.parse"
let l_extract = Span.layer "spanner.extract"
let l_select = Span.layer "spanner.select"
let l_structure = Span.layer "fc.structure"
let l_eval_ww = Span.layer "fc.eval.ww"
let l_eval_cube_free = Span.layer "fc.eval.cube_free"
let l_eval_fib = Span.layer "fc.eval.fib"
let l_eval_vbv = Span.layer "fc.eval.vbv"
let l_fo_eq = Span.layer "fc.fo_eq"
let l_init = Span.layer "dist.init"
let l_fork = Span.layer "dist.fork"
let l_wait = Span.layer "dist.wait"
let l_merge = Span.layer "dist.merge"

let c_solves = Span.counter "efgame.solves"
let c_nodes = Span.counter "efgame.nodes"
let c_memo = Span.counter "efgame.memo_entries"
let c_caches = Span.counter "cache.tables"
let c_hits = Span.counter "cache.hits"
let c_misses = Span.counter "cache.misses"
let c_stores = Span.counter "cache.stores"
let c_entries = Span.counter "cache.entries"
let c_scans = Span.counter "witness.scans"
let c_pairs = Span.counter "witness.pairs"
let c_wnodes = Span.counter "witness.nodes"
let c_chunks = Span.counter "scheduler.chunks"
let c_save_bytes = Span.counter "persist.save_bytes"
let c_bytes = Span.counter "spanner.bytes"
let c_rows = Span.counter "spanner.rows"
let c_drains = Span.counter "dist.drains"
let c_shard_ns = Span.counter "dist.shard_scan_ns"
let c_run_ns = Span.counter "dist.worker_run_ns"
let c_tail_ns = Span.counter "dist.drain_tail_ns"
let c_efficiency = Span.counter "dist.parallel_efficiency"
let c_claimed = Span.counter "dist.claimed"
let c_reclaimed = Span.counter "dist.reclaimed"
let c_requeued = Span.counter "dist.requeued"
let c_quarantined = Span.counter "dist.quarantined"
let c_speculated = Span.counter "dist.speculated"

let shuffle rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Draws that visit every stratum once per cycle, in a seeded order.
   Operation cost climbs steeply with input size, so iid sizes let one
   seed's mix read 25% slower than another's; cycling keeps the mix of
   every run the same up to one partial cycle, and the seed moves only
   order and content. *)
let cycle rng strata =
  let order = ref [||] and next = ref 0 in
  fun () ->
    if !next >= Array.length !order then begin
      order := shuffle rng (Array.length strata);
      next := 0
    end;
    incr next;
    strata.(!order.(!next - 1))

let range lo hi = Array.init (hi - lo + 1) (fun i -> lo + i)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let or_fail = function Run.Pass -> () | Run.Mismatch m | Run.Failed m -> failwith ("warm-up: " ^ m)

let count_cache (s : Efgame.Cache.stats) =
  Span.add c_caches 1.;
  Span.add c_hits (float_of_int s.Efgame.Cache.hits);
  Span.add c_misses (float_of_int s.Efgame.Cache.misses);
  Span.add c_stores (float_of_int s.Efgame.Cache.stores);
  Span.add c_entries (float_of_int s.Efgame.Cache.entries)

let count_scan (st : Efgame.Witness.scan_stats) =
  Span.add c_scans 1.;
  Span.add c_pairs (float_of_int st.Efgame.Witness.pairs);
  Span.add c_wnodes (float_of_int st.Efgame.Witness.nodes);
  Span.add c_chunks (float_of_int st.Efgame.Witness.chunks)

(* ---- decide, decide_session ------------------------------------- *)

let solve ?cache (i : Pool.inst) =
  let cfg = Span.with_span l_make (fun () -> Efgame.Game.make i.w i.v) in
  Span.with_span l_decide (fun () -> Efgame.Game.decide_with_stats ?cache cfg i.k)

let count_solve ((_, st) : Efgame.Game.verdict * Efgame.Game.stats) =
  Span.add c_solves 1.;
  Span.add c_nodes (float_of_int st.Efgame.Game.nodes);
  Span.add c_memo (float_of_int st.Efgame.Game.memo_entries)

let verify_solve golden (i : Pool.inst) (verdict, _) =
  let what () = Printf.sprintf "%s (%d,%d) k=%d" i.family i.p i.q i.k in
  match verdict with
  | Efgame.Game.Unknown -> Run.Failed (what () ^ ": Unknown")
  | v when Pool.verdict_to_string v = golden -> Run.Pass
  | v -> Run.Mismatch (Printf.sprintf "%s: %s, golden %s" (what ()) (Pool.verdict_to_string v) golden)

(* a fixed 5% of the pool *)
let warm_up ?cache pool golden =
  Span.quiet (fun () ->
      Array.iteri
        (fun j i -> if j mod 20 = 0 then or_fail (verify_solve golden.(j) i (solve ?cache i)))
        pool)

let decide env =
  let pool = Pool.pool ~smoke:env.smoke in
  let golden = Pool.golden pool in
  warm_up pool golden;
  Measured
    (fun r ->
      let rng = Random.State.make [| env.seed; 1 |] in
      (* whole passes over the pool, so every run measures the same mix *)
      while Run.more r do
        Array.iter
          (fun j ->
            if Run.room r then
              Run.op r
                (fun () -> solve pool.(j))
                (fun res ->
                  count_solve res;
                  verify_solve golden.(j) pool.(j) res))
          (shuffle rng (Array.length pool));
        Run.end_pass r
      done)

(* Popularity is Zipf(1.1) over a fixed ranking of the pool; the seed
   drives the draws. A seeded ranking would let one seed put a 0.2 s
   instance on top and another a 0.1 ms one. *)
let zipf_cdf n s =
  let w = Array.init n (fun i -> 1. /. (float_of_int (i + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let draw cdf rng =
  let u = Random.State.float rng 1. in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) < u then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length cdf - 1)

let decide_session env =
  let pool = Pool.pool ~smoke:env.smoke in
  let golden = Pool.golden pool in
  let ranked = shuffle (Random.State.make [| 0x5e55 |]) (Array.length pool) in
  let cdf = zipf_cdf (Array.length pool) 1.1 in
  warm_up ~cache:(Efgame.Cache.create ()) pool golden;
  Measured
    (fun r ->
      let cache = Efgame.Cache.create () in
      let rng = Random.State.make [| env.seed; 2 |] in
      while Run.more r do
        let j = ranked.(draw cdf rng) in
        Run.op r
          (fun () -> solve ~cache pool.(j))
          (fun res ->
            count_solve res;
            verify_solve golden.(j) pool.(j) res)
      done;
      count_cache (Efgame.Cache.stats cache))

(* ---- frontier_cold, frontier_warm ------------------------------- *)

let frontier_n ~smoke = if smoke then 24 else 80

(* The first pair p < q ≤ n the table records as ≡₃, if any. *)
let equiv_pair cache ~n =
  let found = ref None in
  for q = n downto 1 do
    for p = q - 1 downto 0 do
      if Efgame.Witness.table_verdict cache ~k:3 p q = Some true then found := Some (p, q)
    done
  done;
  !found

let check_table cache ~n =
  let entries = (Efgame.Cache.stats cache).Efgame.Cache.entries in
  if entries <> Oracle.triangle_entries n then
    Run.Mismatch
      (Printf.sprintf "table to %d holds %d entries, expected %d" n entries
         (Oracle.triangle_entries n))
  else
    match equiv_pair cache ~n with
    | Some (p, q) -> Run.Mismatch (Printf.sprintf "table claims a^%d ≡3 a^%d" p q)
    | None -> Run.Pass

(* Cut [0, total) into consecutive windows of [size ()] pairs. *)
let windows size ~total =
  let rec go start acc =
    if start >= total then List.rev acc
    else
      let stop = min total (start + size ()) in
      go stop ((start, stop) :: acc)
  in
  go 0 []

let scan_outcome ~what = function
  | Efgame.Witness.Exhausted _ -> Run.Pass
  | Efgame.Witness.Found (p, q) ->
      Run.Mismatch (Printf.sprintf "%s: scan found a^%d ≡3 a^%d" what p q)
  | Efgame.Witness.Inconclusive _ -> Run.Failed (what ^ ": scan inconclusive")
  | Efgame.Witness.Interrupted _ -> Run.Failed (what ^ ": scan interrupted")

let frontier_cold env =
  let n = frontier_n ~smoke:env.smoke in
  let total = n * (n + 1) / 2 in
  (* windows of 8..64 pairs: about 90 per pass, so a run has enough
     operations for segment medians (see Report.segments) *)
  let sizes, save_every =
    if env.smoke then (Array.map (( * ) 4) (range 2 8), 100)
    else (Array.map (( * ) 4) (range 2 16), 1000)
  in
  let path = Filename.concat env.workdir "cold.tbl" in
  Span.quiet (fun () ->
      let cache = Efgame.Cache.create () and n = n * 2 / 5 in
      or_fail
        (scan_outcome ~what:"warm-up scan"
           (fst (Efgame.Witness.scan ~engine:(Efgame.Witness.Cached cache) ~k:3 ~max_n:n ())));
      match Efgame.Persist.save cache (Filename.concat env.workdir "warm-up.tbl") with
      | Ok _ -> ()
      | Error e -> Fmt.failwith "warm-up save: %a" Efgame.Persist.pp_error e);
  Measured
    (fun r ->
      let size = cycle (Random.State.make [| env.seed; 3 |]) sizes in
      (* whole passes: a partial one would over-weight the cheap small-q
         windows at the start of the triangle *)
      while Run.more r do
        let cache = Efgame.Cache.create () in
        let fresh = ref 0 in
        let whole = ref true in
        List.iter
          (fun (a, b) ->
            if not (Run.room r) then whole := false
            else
              Run.op r
                (fun () ->
                  let scan =
                    Span.with_span l_scan (fun () ->
                        Efgame.Witness.scan ~engine:(Efgame.Witness.Cached cache)
                          ~range:(a, b) ~k:3 ~max_n:n ())
                  in
                  fresh := !fresh + (b - a);
                  if !fresh < save_every then (scan, None)
                  else begin
                    fresh := 0;
                    (scan, Some (Span.with_span l_save (fun () -> Efgame.Persist.save cache path)))
                  end)
                (fun ((outcome, st), saved) ->
                  count_scan st;
                  match saved with
                  | Some (Error e) -> Run.Failed (Fmt.str "checkpoint: %a" Efgame.Persist.pp_error e)
                  | Some (Ok _) | None ->
                      if saved <> None then
                        Span.add c_save_bytes (float_of_int (Unix.stat path).Unix.st_size);
                      scan_outcome ~what:(Printf.sprintf "window [%d,%d)" a b) outcome))
          (windows size ~total);
        count_cache (Efgame.Cache.stats cache);
        if !whole then begin
          Run.end_pass r;
          match check_table cache ~n with
          | Run.Pass -> ()
          | Run.Mismatch m -> Run.mismatch r m
          | Run.Failed m -> Run.fail r m
        end
      done)

let frontier_warm env =
  let n = frontier_n ~smoke:env.smoke in
  let path = Filename.concat env.workdir "warm.tbl" in
  let cache = Efgame.Cache.create () in
  let outcome, _ = Efgame.Witness.scan ~engine:(Efgame.Witness.Cached cache) ~k:3 ~max_n:n () in
  or_fail (scan_outcome ~what:"set-up scan" outcome);
  (match Efgame.Persist.save ~bound:(3, n) cache path with
  | Ok _ -> ()
  | Error e -> Fmt.failwith "saving %s: %a" path Efgame.Persist.pp_error e);
  let expected = Oracle.triangle_entries n in
  Measured
    (fun r ->
      let next_bound = cycle (Random.State.make [| env.seed; 4 |]) (range (n / 2) n) in
      while Run.more r do
        let bound = next_bound () in
        Run.op r
          (fun () ->
            let cache = Span.with_span l_cache_create (fun () -> Efgame.Cache.create ()) in
            match Span.with_span l_load (fun () -> Efgame.Persist.load cache path) with
            | Error e -> Error e
            | Ok report ->
                let scan =
                  Span.with_span l_scan (fun () ->
                      Efgame.Witness.scan ~engine:(Efgame.Witness.Cached cache) ~k:3
                        ~max_n:bound ())
                in
                Ok (report, scan, cache))
          (function
            | Error e -> Run.Failed (Fmt.str "load: %a" Efgame.Persist.pp_error e)
            | Ok (report, (outcome, st), cache) -> (
                count_scan st;
                let stats = Efgame.Cache.stats cache in
                count_cache stats;
                if report.Efgame.Persist.entries <> expected then
                  Run.Mismatch (Printf.sprintf "loaded %d entries, expected %d" report.entries expected)
                else if report.Efgame.Persist.bound <> Some (3, n) then
                  Run.Mismatch "loaded table lost its proven bound"
                else
                  match scan_outcome ~what:(Printf.sprintf "restart to %d" bound) outcome with
                  | Run.Pass when stats.Efgame.Cache.entries <> expected ->
                      Run.Mismatch
                        (Printf.sprintf "restart to %d grew the table to %d entries" bound
                           stats.Efgame.Cache.entries)
                  | c -> c))
      done)

(* ---- extract ---------------------------------------------------- *)

let misspellings = [ "acheive"; "begining"; "recieve"; "seperate"; "occured"; "untill" ]

let line rng ~len =
  let b =
    Bytes.init len (fun _ ->
        match Random.State.int rng 27 with 26 -> ' ' | c -> Char.chr (Char.code 'a' + c))
  in
  for _ = 1 to Random.State.int rng 3 do
    let w = List.nth misspellings (Random.State.int rng (List.length misspellings)) in
    if String.length w <= len then
      Bytes.blit_string w 0 b (Random.State.int rng (len - String.length w + 1)) (String.length w)
  done;
  Bytes.to_string b

(* an {a, b} word, a square half the time *)
let ab_word rng ~len =
  let gen n = String.init n (fun _ -> if Random.State.bool rng then 'a' else 'b') in
  if Random.State.bool rng then
    let u = gen (len / 2) in
    u ^ u
  else gen len

let spans rel =
  List.map
    (function
      | [ (s : Spanner.Span.t) ] -> (s.left, s.right)
      | _ -> (-1, -1))
    (Spanner.Relation.rows rel)

let verify_extract doc rel =
  if Spanner.Relation.schema rel <> [ "x" ] then Run.Mismatch "extract: schema is not [x]"
  else if spans rel <> Oracle.occurrences misspellings doc then
    Run.Mismatch (Printf.sprintf "extract %S: rows differ from a substring scan" doc)
  else Run.Pass

let verify_select doc rel =
  let n = String.length doc in
  let expected =
    if n >= 2 && Oracle.is_square doc then
      [ [ Spanner.Span.make 0 (n / 2); Spanner.Span.make (n / 2) n ] ]
    else []
  in
  if Spanner.Relation.rows rel = expected then Run.Pass
  else Run.Mismatch (Printf.sprintf "zeta= on %S: expected %d row(s)" doc (List.length expected))

let extract env =
  let parse src =
    match Span.with_span l_parse (fun () -> Spanner.Regex_formula.parse src) with
    | Ok f -> f
    | Error e -> failwith e
  in
  let words = parse ("x{" ^ String.concat "|" misspellings ^ "}") in
  let halves =
    Spanner.Algebra.Select_eq ("x", "y", Spanner.Algebra.Extract (parse "x{(a|b)+}y{(a|b)+}"))
  in
  (* corpus lines of 16..32 bytes (18 of each length, about 300), {a, b}
     words of 16..40 (4 of each, 100) *)
  let line_lens, lines_per, ab_lens, abs_per =
    if env.smoke then (range 8 12, 2, range 4 12, 1) else (range 16 32, 18, range 16 40, 4)
  in
  (* [per] documents of every length, drawn length-stratified *)
  let documents rng lens per gen =
    let docs = Array.map (fun len -> Array.init per (fun _ -> gen rng ~len)) lens in
    let len = cycle rng (Array.mapi (fun i _ -> i) lens) in
    fun () -> docs.(len ()).(Random.State.int rng per)
  in
  let run_extract doc = Span.with_span l_extract (fun () -> Spanner.Regex_formula.matches_anywhere words doc) in
  let run_select doc = Span.with_span l_select (fun () -> Spanner.Algebra.eval halves doc) in
  (* warm-up: the same 5% on every seed, so set-up time does not vary with it *)
  Span.quiet (fun () ->
      let rng = Random.State.make [| 0; 5 |] in
      let line = documents rng line_lens 1 line and ab = documents rng ab_lens 1 ab_word in
      for _ = 1 to 12 do
        let d = line () in
        or_fail (verify_extract d (run_extract d))
      done;
      for _ = 1 to 3 do
        let d = ab () in
        or_fail (verify_select d (run_select d))
      done);
  let rng = Random.State.make [| env.seed; 5 |] in
  let next_line = documents rng line_lens lines_per line in
  let next_ab = documents rng ab_lens abs_per ab_word in
  let kind = cycle rng [| `Extract; `Extract; `Extract; `Extract; `Select |] in
  Measured
    (fun r ->
      while Run.more r do
        match kind () with
        | `Extract ->
            let doc = next_line () in
            Run.op r (fun () -> run_extract doc) (fun rel ->
                Span.add c_bytes (float_of_int (String.length doc));
                Span.add c_rows (float_of_int (Spanner.Relation.cardinality rel));
                verify_extract doc rel)
        | `Select ->
            let doc = next_ab () in
            Run.op r (fun () -> run_select doc) (fun rel ->
                Span.add c_rows (float_of_int (Spanner.Relation.cardinality rel));
                verify_select doc rel)
      done)

(* ---- model_check ------------------------------------------------ *)

type check_kind =
  | Fc of Fc.Formula.t * char list * Span.layer  (** formula, Σ, layer *)
  | Fo_eq of Fc.Fo_eq.t

type instance = { kind : check_kind; word : string; oracle : string -> bool; label : string }

let letters w = List.sort_uniq Char.compare (List.init (String.length w) (String.get w))

let fc formula layer oracle label word =
  let sigma = List.sort_uniq Char.compare (Fc.Formula.constants formula @ letters word) in
  { kind = Fc (formula, sigma, layer); word; oracle; label }

let random_word rng alphabet n =
  String.init n (fun _ -> alphabet.[Random.State.int rng (String.length alphabet)])

let both xs = Array.concat [ Array.map (fun x -> (x, true)) xs; Array.map (fun x -> (x, false)) xs ]

(* Instances in a fixed proportion per 16 checks: three of each FC
   family, four FO[EQ]. Within a family the sizes are strata too. *)
let instances ~smoke rng =
  let sized full toy = if smoke then toy else full in
  let family =
    cycle rng [| `Ww; `Ww; `Ww; `Cube; `Cube; `Cube; `Fib; `Fib; `Fib; `Vbv; `Vbv; `Vbv;
                 `Fo; `Fo; `Fo; `Fo |]
  in
  let every lo hi step = Array.map (fun i -> lo + (i * step)) (range 0 ((hi - lo) / step)) in
  (* ww: squares and (almost surely) non-squares of 8..64 letters *)
  let ww = cycle rng (both (sized (range 8 64) (range 4 12))) in
  (* cube_free: Fibonacci prefixes and random ternary words of 25..100
     letters (cubes), square-free ternary words of 25..50 (cube-free) *)
  let cube =
    cycle rng
      (Array.concat
         [ Array.map (fun n -> (`Prefix, n)) (sized (every 25 100 5) (range 6 12));
           Array.map (fun n -> (`Random, n)) (sized (every 25 100 5) (range 6 12));
           Array.map (fun n -> (`Square_free, n)) (sized (every 25 50 5) (range 6 12)) ])
  in
  (* fib: members c F0 c ... c Fn c for n ≤ 5, and one-letter mutations *)
  let fib = cycle rng (both (range 0 (sized 5 3))) in
  (* vbv: a^n b a^m, with m = n half the time *)
  let vbv = cycle rng (both (range 0 (sized 18 6))) in
  let fo = cycle rng (both (range 1 (sized 7 5))) in
  fun () ->
    match family () with
    | `Fo ->
        let len, square = fo () in
        let word = random_word rng "ab" len in
        if square then
          { kind = Fo_eq Fc.Fo_eq.ww; word; oracle = Oracle.is_square; label = "fo_eq ww" }
        else
          { kind = Fo_eq Fc.Fo_eq.cube_free; word; oracle = Oracle.is_cube_free;
            label = "fo_eq cube_free" }
    | `Ww ->
        let len, square = ww () in
        let word =
          if square then
            let u = random_word rng "ab" (len / 2) in
            u ^ u
          else random_word rng "ab" len
        in
        fc Fc.Builders.ww l_eval_ww Oracle.is_square "ww" word
    | `Cube ->
        let word =
          match cube () with
          | `Prefix, n -> Words.Fibonacci.prefix n
          | `Random, n -> random_word rng "abc" n
          | `Square_free, n -> Oracle.square_free_ternary n
        in
        fc Fc.Builders.cube_free l_eval_cube_free Oracle.is_cube_free "cube_free" word
    | `Fib ->
        let n, member = fib () in
        let word = Core.Langs.l_fib.nth n in
        let word =
          if member then word
          else
            let b = Bytes.of_string word in
            let i = Random.State.int rng (Bytes.length b) in
            let c = Bytes.get b i in
            Bytes.set b i (List.nth (List.filter (( <> ) c) [ 'a'; 'b'; 'c' ]) (Random.State.int rng 2));
            Bytes.to_string b
        in
        fc Fc.Builders.fib l_eval_fib Core.Langs.l_fib.member "fib" word
    | `Vbv ->
        let n, equal = vbv () in
        let m = if equal then n else Random.State.int rng (sized 19 7) in
        fc Fc.Builders.vbv l_eval_vbv Oracle.is_vbv "vbv" (String.make n 'a' ^ "b" ^ String.make m 'a')

let check_model i =
  match i.kind with
  | Fc (formula, sigma, layer) ->
      let st = Span.with_span l_structure (fun () -> Fc.Structure.make ~sigma i.word) in
      Span.with_span layer (fun () -> Fc.Eval.holds st formula)
  | Fo_eq formula -> Span.with_span l_fo_eq (fun () -> Fc.Fo_eq.language_member formula i.word)

let verify_model i holds =
  if holds = i.oracle i.word then Run.Pass
  else Run.Mismatch (Printf.sprintf "%s on %S: checker says %b" i.label i.word holds)

let model_check env =
  Span.quiet (fun () ->
      let next = instances ~smoke:env.smoke (Random.State.make [| 0; 7 |]) in
      for _ = 1 to 32 do
        let i = next () in
        or_fail (verify_model i (check_model i))
      done);
  let next = instances ~smoke:env.smoke (Random.State.make [| env.seed; 7 |]) in
  Measured
    (fun r ->
      while Run.more r do
        let i = next () in
        Run.op r (fun () -> check_model i) (verify_model i)
      done)

(* ---- shard_drain ------------------------------------------------ *)

type worker_report = {
  w_start : int;
  w_stop : int;
  w_result : (Dist.Worker.summary, string) result;
  w_heap_words : int;
}

(* The workload process has created no domain, so forking is allowed
   (OCaml 5 refuses Unix.fork once any other domain has existed). Each
   worker reports over a pipe and leaves with _exit, so it never flushes
   buffers it inherited. *)
let spawn_worker dir =
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Obs.Log.set_level Obs.Log.Error;
      let w_start = Span.now_ns () in
      let w_result =
        try Dist.Worker.run (Dist.Worker.default_config ~dir)
        with e -> Error (Printexc.to_string e)
      in
      let report =
        { w_start; w_stop = Span.now_ns (); w_result;
          w_heap_words = (Gc.quick_stat ()).Gc.top_heap_words }
      in
      let oc = Unix.out_channel_of_descr wr in
      Marshal.to_channel oc report [];
      close_out oc;
      Unix._exit 0
  | pid ->
      Unix.close wr;
      (pid, rd)

let collect (pid, rd) =
  let ic = Unix.in_channel_of_descr rd in
  let report = try Ok (Marshal.from_channel ic : worker_report) with e -> Error (Printexc.to_string e) in
  close_in ic;
  match (Unix.waitpid [] pid, report) with
  | (_, Unix.WEXITED 0), Ok r -> Ok r
  | _, Error e -> Error ("worker report unreadable: " ^ e)
  | _ -> Error "worker exited abnormally"

type drain = { wall_ns : int; reports : (worker_report, string) result list; merged : (Dist.Merge.t, string) result }

let merged_path dir = Filename.concat dir "merged.tbl"

let run_drain ~workers dir =
  flush_all ();
  let t0 = Span.now_ns () in
  let procs = Span.with_span l_fork (fun () -> List.init workers (fun _ -> spawn_worker dir)) in
  let reports = Span.with_span l_wait (fun () -> List.map collect procs) in
  let wall_ns = Span.now_ns () - t0 in
  let merged = Span.with_span l_merge (fun () -> Dist.Merge.merge ~dir ~out:(merged_path dir) ()) in
  { wall_ns; reports; merged }

let summaries d =
  List.fold_right
    (fun r acc ->
      match (r, acc) with
      | Ok { w_result = Ok s; _ }, Ok l -> Ok (s :: l)
      | Ok { w_result = Error e; _ }, _ | Error e, _ -> Error e
      | _, (Error _ as e) -> e)
    d.reports (Ok [])

let verify_drain ~max_n ~shards dir d =
  let sum f l = List.fold_left (fun a s -> a + f s) 0 l in
  match (summaries d, d.merged) with
  | Error e, _ -> Run.Failed ("worker: " ^ e)
  | _, Error e -> Run.Failed ("merge: " ^ e)
  | Ok ss, Ok t ->
      let completed = sum (fun (s : Dist.Worker.summary) -> s.completed) ss in
      if completed <> shards then
        Run.Mismatch (Printf.sprintf "workers completed %d of %d shards" completed shards)
      else if not (Dist.Merge.complete t) || t.Dist.Merge.quarantined <> 0 then
        Run.Mismatch "merge incomplete or quarantined"
      else if t.Dist.Merge.bound <> Some (3, max_n) then Run.Mismatch "proven bound not stamped"
      else if t.Dist.Merge.entries <> Oracle.triangle_entries max_n then
        Run.Mismatch
          (Printf.sprintf "merged %d entries, expected %d" t.Dist.Merge.entries
             (Oracle.triangle_entries max_n))
      else begin
        let cache = Efgame.Cache.create () in
        match Efgame.Persist.load cache (merged_path dir) with
        | Error e -> Run.Failed (Fmt.str "reloading merged table: %a" Efgame.Persist.pp_error e)
        | Ok _ -> (
            match equiv_pair cache ~n:max_n with
            | Some (p, q) -> Run.Mismatch (Printf.sprintf "merged table claims a^%d ≡3 a^%d" p q)
            | None -> Run.Pass)
      end

let count_drain r (m : Dist.Manifest.t) dir d =
  let oks = List.filter_map Result.to_option d.reports in
  List.iter (fun w -> r.Run.worker_heap_words <- max r.Run.worker_heap_words w.w_heap_words) oks;
  let shard_ns =
    Array.fold_left
      (fun acc (s : Dist.Manifest.shard) ->
        match Dist.Record.read ~dir s.Dist.Manifest.id with
        | Ok { Dist.Record.wall_ns = Some w; _ } -> acc + Int64.to_int w
        | _ -> acc)
      0 m.Dist.Manifest.shards
  in
  let stops = List.map (fun w -> w.w_stop) oks in
  Span.add c_drains 1.;
  Span.add c_shard_ns (float_of_int shard_ns);
  Span.add c_run_ns (float_of_int (List.fold_left (fun a w -> a + w.w_stop - w.w_start) 0 oks));
  if stops <> [] then
    Span.add c_tail_ns
      (float_of_int (List.fold_left max min_int stops - List.fold_left min max_int stops));
  Span.add c_efficiency
    (float_of_int shard_ns /. float_of_int (List.length d.reports * max 1 d.wall_ns));
  List.iter
    (fun w ->
      match w.w_result with
      | Ok (s : Dist.Worker.summary) ->
          Span.add c_claimed (float_of_int s.claimed);
          Span.add c_reclaimed (float_of_int s.reclaimed);
          Span.add c_requeued (float_of_int s.requeued);
          Span.add c_quarantined (float_of_int s.quarantined);
          Span.add c_speculated (float_of_int s.speculated)
      | Error _ -> ())
    oks

let shard_drain env =
  (* max_n 40: the idle worker's poll sleep at the drain tail then lands
     in about 90% of drains, so p50 and p90 both sit inside that mode;
     at 24 it landed in 0-40% depending on load, and p90 flipped *)
  let max_n, shards, workers = ((if env.smoke then 12 else 40), 8, 2) in
  let cores = Domain.recommended_domain_count () in
  if cores < workers then
    Unmeasurable
      (Printf.sprintf "not measurable here: %d core(s) for %d workers" cores workers)
  else begin
    let dirs = ref 0 in
    let fresh_dir () =
      incr dirs;
      let dir = Filename.concat env.workdir (Printf.sprintf "shards-%d" !dirs) in
      rm_rf dir;
      Unix.mkdir dir 0o755;
      dir
    in
    let save m dir =
      match Dist.Manifest.save m ~dir with Ok () -> () | Error e -> failwith ("manifest: " ^ e)
    in
    let m, dir =
      Span.with_span l_init (fun () ->
          let m = Dist.Manifest.create ~k:3 ~max_n ~shards () in
          let dir = fresh_dir () in
          save m dir;
          (m, dir))
    in
    Span.quiet (fun () -> or_fail (verify_drain ~max_n ~shards dir (run_drain ~workers dir)));
    rm_rf dir;
    Measured
      (fun r ->
        while Run.more r do
          let dir = fresh_dir () in
          save m dir;
          Run.op r
            (fun () -> run_drain ~workers dir)
            (fun d ->
              count_drain r m dir d;
              verify_drain ~max_n ~shards dir d);
          rm_rf dir
        done)
  end

(* BENCHMARK.json says why each workload exists *)
let all =
  [
    { name = "decide"; setup = decide };
    { name = "decide_session"; setup = decide_session };
    { name = "frontier_cold"; setup = frontier_cold };
    { name = "frontier_warm"; setup = frontier_warm };
    { name = "extract"; setup = extract };
    { name = "model_check"; setup = model_check };
    { name = "shard_drain"; setup = shard_drain };
  ]
