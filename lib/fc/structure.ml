type t = { word : string; sigma : char list; facs : Words.Factors.t }

let make ?sigma w =
  let letters = Words.Word.alphabet w in
  let sigma =
    match sigma with
    | None -> letters
    | Some cs ->
        let cs = List.sort_uniq Char.compare cs in
        if not (List.for_all (fun c -> List.mem c cs) letters) then
          invalid_arg "Structure.make: word uses letters outside sigma";
        cs
  in
  { word = w; sigma; facs = Words.Factors.of_word w }

let word t = t.word
let sigma t = t.sigma
let facs t = t.facs
let universe t = Words.Factors.to_list t.facs
let universe_size t = Words.Factors.size t.facs
let mem t f = Words.Factors.mem t.facs f

let const_value t c =
  if Words.Word.count_letter c t.word >= 1 then Some (String.make 1 c) else None

let constant_vector t =
  List.map (fun c -> (String.make 1 c, const_value t c)) t.sigma @ [ ("\xce\xb5", Some "") ]

let pp ppf t =
  Format.fprintf ppf "𝔄_%a (Σ = {%a}, %d factors)" Words.Word.pp t.word
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Format.pp_print_char)
    t.sigma (universe_size t)
