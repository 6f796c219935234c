(* Totality of the text parsers and file loaders: on arbitrary input
   they return [Ok] or [Error], never raise (and a loaded snapshot never
   reports a negative entry count). Each generator mixes raw bytes with
   inputs shaped like the real thing (token soup and one-edit mutations
   for the parsers; checksummed snapshot and manifest files with random
   fields for the loaders), so the checks reach past the first
   rejection. *)

open QCheck
module Persist = Efgame.Persist

(* FNV-1a 64, the checksum of both file formats *)
let fnv1a64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h :=
        Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

let raw_bytes = Gen.(string_size ~gen:char (int_bound 80))

let soup tokens =
  Gen.(map (String.concat "") (list_size (int_bound 24) (oneofl tokens)))

(* a well-formed input with one random edit: a token inserted, a byte
   dropped or a byte replaced *)
let edit valid tokens =
  Gen.(
    oneofl valid >>= fun s ->
    int_bound (String.length s) >>= fun i ->
    let pre = String.sub s 0 i in
    let post = String.sub s i (String.length s - i) in
    let tail =
      if post = "" then "" else String.sub post 1 (String.length post - 1)
    in
    frequency
      [ (1, return s);
        (2, map (fun t -> pre ^ t ^ post) (oneofl tokens));
        (1, return (pre ^ tail));
        (1, map (fun c -> pre ^ String.make 1 c ^ tail) char) ])

let total name ~valid tokens parse =
  Test.make ~count:2000 ~name
    (make ~print:(Printf.sprintf "%S")
       (Gen.frequency
          [ (1, raw_bytes); (2, soup tokens); (3, edit valid tokens) ]))
    (fun s -> match parse s with Ok _ | Error _ -> true)

let regex_tokens =
  [ "a"; "b"; "c"; "("; ")"; "|"; "*"; "+"; "?"; "%e"; "%0"; "%"; "\\"; "\\*";
    "()"; " "; "\x00"; "\xff" ]

let fc_parser =
  total "Fc.Parser.parse is total"
    ~valid:
      [ "forall z. !(z = eps) -> !exists x y. (x = z . y) & (y = z . z)";
        "exists x y. (x = y . y) & !(x = eps)"; "E x: x in /(ab)*/ | true";
        "A x. x = 'a' . \"bc\" <-> ~false"; "x = \"abc\"" ]
    [ "exists"; "forall"; "E"; "A"; " "; "x"; "y"; "z1"; "eps"; "."; ":"; "=";
      "("; ")"; "!"; "~"; "&"; "|"; "->"; "<->"; "-"; "<"; "true"; "false";
      "in"; "/"; "a*"; "(ab)*"; "'a'"; "'"; "\"ab\""; "\""; "\\"; "\xce\xb5" ]
    Fc.Parser.parse

let regex_parser =
  total "Regex.parse is total"
    ~valid:[ "a*(ba)*|c?"; "(a|b)+%e"; "\\*%0|()" ]
    regex_tokens Regex_engine.Regex.parse

let regex_formula_parser =
  total "Regex_formula.parse is total"
    ~valid:
      [ "x{a*}y{b*}"; "(a|b)*x{acheive|begining}(a|b)*"; "(a)x{(a|b)+}y{%e}" ]
    (regex_tokens @ [ "x{"; "y{"; "ax{"; "{"; "}"; "_"; "0" ])
    Spanner.Regex_formula.parse

(* ------------------------------------------------------------------ *)
(* Loaders *)

let with_file contents f =
  let path = Filename.temp_file "efgame_total" ".tbl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc contents);
      f path)

let le32 n =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int n);
  Bytes.to_string b

let le64 n =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 n;
  Bytes.to_string b

let wild_int =
  Gen.(oneof [ int_range (-3) 12; int; oneofl [ max_int; min_int ] ])

(* one entry over random fields: a bare v1 record, or a v2/v3 frame
   with a valid checksum *)
let gen_entry version =
  Gen.(
    map3
      (fun key win lose ->
        let body = le32 (String.length key) ^ key ^ le32 win ^ le32 lose in
        if version = 1 then body
        else "\xF2\xEF\x7A\xA5" ^ body ^ le64 (fnv1a64 body))
      (string_size ~gen:char (int_bound 12))
      wild_int wild_int)

(* magic, version, count and checksum, each right or wrong *)
let gen_snapshot =
  Gen.(
    oneofl [ 1; 2; 3; 0; 4; -1 ] >>= fun version ->
    (if version = 3 then
       map2 (fun k n -> le32 k ^ le64 (Int64.of_int n)) wild_int wild_int
     else return "")
    >>= fun bound ->
    frequency
      [ (3, list_size (int_bound 4) (gen_entry version));
        (1, map (fun b -> [ b ]) raw_bytes) ]
    >>= fun entries ->
    let payload = bound ^ String.concat "" entries in
    frequency [ (3, return (List.length entries)); (1, wild_int) ]
    >>= fun count ->
    bool >>= fun good_sum ->
    (if good_sum then return (fnv1a64 payload) else map Int64.of_int int)
    >>= fun sum ->
    let file =
      "EFGT" ^ le32 version ^ le64 (Int64.of_int count) ^ le64 sum ^ payload
    in
    (* truncate or flip a byte now and then *)
    frequency
      [ (3, return file);
        (1, map (fun n -> String.sub file 0 (n mod (String.length file + 1))) nat);
        (1,
          map2
            (fun i c ->
              let b = Bytes.of_string file in
              Bytes.set b (i mod Bytes.length b) c;
              Bytes.to_string b)
            nat char) ])

let persist_load =
  Test.make ~count:4000 ~name:"Persist.load is total on arbitrary bytes"
    (make ~print:(Printf.sprintf "%S")
       (Gen.frequency [ (1, raw_bytes); (4, gen_snapshot) ]))
    (fun data ->
      with_file data (fun path ->
          List.for_all
            (fun salvage ->
              let cache = Efgame.Cache.create ~log2_buckets:4 () in
              match Persist.load ~salvage cache path with
              | Ok r -> r.Persist.entries >= 0 && r.Persist.dropped >= 0
              | Error _ -> true)
            [ false; true ]))

let test_v1_negative_count () =
  (* a v1 header whose u64 count reads as a negative int, over an empty
     payload with a valid checksum, used to load "cleanly" with a
     negative entry count *)
  let file = "EFGT" ^ le32 1 ^ le64 (-3L) ^ le64 (fnv1a64 "") in
  with_file file (fun path ->
      List.iter
        (fun salvage ->
          match Persist.load ~salvage (Efgame.Cache.create ()) path with
          | Error Persist.Truncated -> ()
          | Error e -> Alcotest.failf "wrong error: %a" Persist.pp_error e
          | Ok r -> Alcotest.failf "loaded %d entries" r.Persist.entries)
        [ false; true ])

let manifest_lines =
  [ "efgame-shard-manifest 1"; "efgame-shard-manifest 2";
    "efgame-shard-manifest 9"; "efgame-shard-manifest x";
    "efgame-shard-manifest"; "k 3"; "k -1"; "k"; "max_n 4"; "max_n 0";
    "max_n 99999999999999999999"; "max_n 4611686018427387903"; "total 10";
    "total -1"; "model uniform"; "model power:1.5"; "model power:nan";
    "model power:"; "model :"; "model"; "shard 0 0 5"; "shard 1 5 10";
    "shard 2 10 3"; "shard -1 0 0"; "shard a b c"; "shard 0 0"; ""; " "; "\t";
    "checksum 0"; "garbage"; "\xff\x00" ]

(* a valid manifest's lines with one replaced, or random lines; then
   checksummed, usually correctly *)
let gen_manifest =
  let valid =
    [ "efgame-shard-manifest 2"; "k 3"; "max_n 4"; "total 10"; "model uniform";
      "shard 0 0 5"; "shard 1 5 10" ]
  in
  Gen.(
    frequency
      [ (1, return valid);
        (3,
          map2
            (fun i l ->
              List.mapi (fun j v -> if j = i mod 7 then l else v) valid)
            nat (oneofl manifest_lines));
        (2, list_size (int_bound 8) (oneofl manifest_lines)) ]
    >>= fun lines ->
    frequency [ (4, return true); (1, return false) ] >|= fun good_sum ->
    let body = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
    if good_sum then Printf.sprintf "%schecksum %Lx\n" body (fnv1a64 body)
    else body)

let manifest_load =
  Test.make ~count:1500 ~name:"Manifest.load is total on arbitrary bytes"
    (make ~print:(Printf.sprintf "%S")
       (Gen.frequency [ (1, raw_bytes); (3, gen_manifest) ]))
    (fun data ->
      let dir = Filename.temp_dir "efgame_total" "" in
      let file = Filename.concat dir "manifest" in
      Fun.protect
        ~finally:(fun () ->
          (try Sys.remove file with Sys_error _ -> ());
          try Sys.rmdir dir with Sys_error _ -> ())
        (fun () ->
          Out_channel.with_open_bin file (fun oc -> output_string oc data);
          match Dist.Manifest.load ~dir with Ok _ | Error _ -> true))

let tests =
  ( "totality",
    Alcotest.test_case "v1 table with a negative count is rejected" `Quick
      test_v1_negative_count
    :: List.map QCheck_alcotest.to_alcotest
         [ fc_parser; regex_parser; regex_formula_parser; persist_load;
           manifest_load ] )
