type t = { buf : Buffer.t; mutable comma : bool }

let create ?(initial_size = 256) () =
  { buf = Buffer.create initial_size; comma = false }

let contents t = Buffer.contents t.buf

let to_file path f =
  let t = create ~initial_size:4096 () in
  f t;
  Buffer.add_char t.buf '\n';
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> Buffer.output_buffer oc t.buf)

let writable path =
  let dir = Filename.dirname path in
  let access p =
    match Unix.access p [ Unix.W_OK ] with
    | () -> Ok ()
    | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  in
  if Sys.file_exists path then
    if Sys.is_directory path then Error "is a directory" else access path
  else if Sys.file_exists dir && Sys.is_directory dir then
    Result.map_error (fun e -> dir ^ ": " ^ e) (access dir)
  else Error (dir ^ ": no such directory")

let add_escaped buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let escaped s =
  let buf = Buffer.create (String.length s + 8) in
  add_escaped buf s;
  Buffer.contents buf

(* Emit the comma owed by the previous sibling, if any. *)
let start_value t = if t.comma then Buffer.add_char t.buf ','
let finish_value t = t.comma <- true

let add_quoted t s =
  Buffer.add_char t.buf '"';
  add_escaped t.buf s;
  Buffer.add_char t.buf '"'

let obj t f =
  start_value t;
  Buffer.add_char t.buf '{';
  t.comma <- false;
  f t;
  Buffer.add_char t.buf '}';
  finish_value t

let arr t f =
  start_value t;
  Buffer.add_char t.buf '[';
  t.comma <- false;
  f t;
  Buffer.add_char t.buf ']';
  finish_value t

let string t s =
  start_value t;
  add_quoted t s;
  finish_value t

let int t n =
  start_value t;
  Buffer.add_string t.buf (string_of_int n);
  finish_value t

let null t =
  start_value t;
  Buffer.add_string t.buf "null";
  finish_value t

let float ?(prec = 6) t v =
  if Float.is_finite v then begin
    start_value t;
    Buffer.add_string t.buf (Printf.sprintf "%.*f" prec v);
    finish_value t
  end
  else null t

let bool t b =
  start_value t;
  Buffer.add_string t.buf (if b then "true" else "false");
  finish_value t

let raw t s =
  start_value t;
  Buffer.add_string t.buf s;
  finish_value t

let field t name f =
  start_value t;
  add_quoted t name;
  Buffer.add_char t.buf ':';
  t.comma <- false;
  f t;
  finish_value t

let field_string t name v = field t name (fun t -> string t v)
let field_int t name v = field t name (fun t -> int t v)
let field_float ?prec t name v = field t name (fun t -> float ?prec t v)
let field_bool t name v = field t name (fun t -> bool t v)
let field_null t name = field t name null
