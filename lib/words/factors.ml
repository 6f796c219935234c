type t = {
  word : string;
  by_id : string array; (* length-lex sorted, index = id *)
  ids : (string, int) Hashtbl.t;
}

let of_word word =
  let n = String.length word in
  let set = Hashtbl.create (n * n) in
  for i = 0 to n do
    for len = 0 to n - i do
      let f = String.sub word i len in
      if not (Hashtbl.mem set f) then Hashtbl.add set f ()
    done
  done;
  let all = Hashtbl.fold (fun f () acc -> f :: acc) set [] in
  let by_id = Array.of_list (List.sort Word.compare_length_lex all) in
  let ids = Hashtbl.create (Array.length by_id) in
  Array.iteri (fun i f -> Hashtbl.add ids f i) by_id;
  { word; by_id; ids }

let word t = t.word
let size t = Array.length t.by_id
let mem t f = Hashtbl.mem t.ids f
let id_of t f = Hashtbl.find_opt t.ids f
let id_of_exn t f = Hashtbl.find t.ids f

let factor_of t i =
  if i < 0 || i >= Array.length t.by_id then invalid_arg "Factors.factor_of";
  t.by_id.(i)

let to_list t = Array.to_list t.by_id
let iter f t = Array.iter f t.by_id
let fold f init t = Array.fold_left f init t.by_id

let inter a b =
  let smaller, larger = if size a <= size b then (a, b) else (b, a) in
  fold (fun acc f -> if mem larger f then f :: acc else acc) [] smaller
  |> List.sort Word.compare_length_lex

let max_common_factor_length a b =
  List.fold_left (fun m f -> max m (String.length f)) 0 (inter a b)

let equal_sets a b = size a = size b && Array.for_all (mem b) a.by_id
