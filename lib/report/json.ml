type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list
  | Fixed of int * float
  | Int64 of int64

let max_depth = 32

(* ------------------------------------------------------------ printer *)

let add_escaped b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let escape s =
  let b = Buffer.create (String.length s + 8) in
  add_escaped b s;
  Buffer.contents b

let add_float b f =
  if not (Float.is_finite f) then Buffer.add_string b "null"
  else begin
    (* The shorter of %.15g and %.17g that reads back as [f]; a rendering
       without a point or an exponent would reparse as an Int, so it
       gets a ".0". *)
    let s = Printf.sprintf "%.15g" f in
    let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
    Buffer.add_string b s;
    if not (String.contains s '.' || String.contains s 'e') then
      Buffer.add_string b ".0"
  end

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (if x then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Int64 i -> Buffer.add_string b (Int64.to_string i)
  | Float f -> add_float b f
  | Fixed (digits, f) ->
      if Float.is_finite f then
        Buffer.add_string b (Printf.sprintf "%.*f" digits f)
      else Buffer.add_string b "null"
  | String s ->
      Buffer.add_char b '"';
      add_escaped b s;
      Buffer.add_char b '"'
  | List xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          to_buffer b x)
        xs;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          to_buffer b (String k);
          Buffer.add_char b ':';
          to_buffer b v)
        fields;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b

let document v =
  let b = Buffer.create 4096 in
  (match v with
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          Buffer.add_string b (if i > 0 then ",\n  " else "\n  ");
          to_buffer b (String k);
          Buffer.add_string b ": ";
          match v with
          | List items ->
              Buffer.add_char b '[';
              List.iteri
                (fun j x ->
                  Buffer.add_string b (if j > 0 then ",\n    " else "\n    ");
                  to_buffer b x)
                items;
              Buffer.add_string b "\n  ]"
          | v -> to_buffer b v)
        fields;
      Buffer.add_string b "\n}"
  | v -> to_buffer b v);
  Buffer.add_char b '\n';
  Buffer.contents b

(* ------------------------------------------------------------- parser *)

exception Bad of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\r' | '\n' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match s.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad \\u escape"
      in
      v := (!v * 16) + d;
      advance ()
    done;
    !v
  in
  let utf8_add b cp =
    if cp < 0x80 then Buffer.add_char b (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char b (Char.chr (0xc0 lor (cp lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xe0 lor (cp lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
    end
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (if !pos >= n then fail "unterminated escape"
           else
             match s.[!pos] with
             | '"' -> advance (); Buffer.add_char b '"'
             | '\\' -> advance (); Buffer.add_char b '\\'
             | '/' -> advance (); Buffer.add_char b '/'
             | 'b' -> advance (); Buffer.add_char b '\b'
             | 'f' -> advance (); Buffer.add_char b '\012'
             | 'n' -> advance (); Buffer.add_char b '\n'
             | 'r' -> advance (); Buffer.add_char b '\r'
             | 't' -> advance (); Buffer.add_char b '\t'
             | 'u' -> advance (); utf8_add b (hex4 ())
             | _ -> fail "bad escape");
          loop ()
      | c when Char.code c < 0x20 -> fail "raw control byte in string"
      | c ->
          advance ();
          Buffer.add_char b c;
          loop ()
    in
    loop ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let digits () =
      let d0 = !pos in
      while !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false) do
        advance ()
      done;
      if !pos = d0 then fail "expected digit"
    in
    digits ();
    let is_float = ref false in
    if peek () = Some '.' then begin
      is_float := true;
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        is_float := true;
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    let out_of_range what =
      pos := start;
      fail (what ^ " out of range")
    in
    if !is_float then
      let f = float_of_string text in
      if Float.is_finite f then Float f else out_of_range "number"
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> out_of_range "integer"
  in
  let rec parse_value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [ parse_value (depth + 1) ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value (depth + 1) :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            (k, v)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected byte 0x%02x" (Char.code c))
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing bytes after document";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg
