exception Parse_error of string

let fail line fmt =
  Printf.ksprintf (fun s -> raise (Parse_error (Printf.sprintf "line %d: %s" line s))) fmt

(* ------------------------------------------------------------- opcodes *)

let cmp_preds =
  [ (Op.Lt, "lt"); (Op.Le, "le"); (Op.Gt, "gt"); (Op.Ge, "ge"); (Op.Eq, "eq"); (Op.Ne, "ne") ]

(* Every opcode without an operand field, keyed by its spelling.  The
   printer writes and the parser reads through this one table: [Op.name]
   spells all of them except [cmp], which carries its predicate. *)
let mnemonics =
  List.map
    (fun op -> (Op.name op, op))
    Op.
      [
        Bin Add; Bin Sub; Bin Mul; Bin Div; Bin Max; Bin Min; Un Neg; Un Abs;
        Un Floor; Select; Phi; Fp2fx_int; Fp2fx_frac; Shift_exp; Br;
      ]
  @ List.map (fun (c, p) -> ("cmp." ^ p, Op.Cmp c)) cmp_preds

(* ------------------------------------------------------------- printing *)

(* Fused opcodes print as their mnemonic (e.g. [cmp+select]), which the
   parser does not accept. *)
let add_op buf op =
  let add = Buffer.add_string buf in
  match op with
  | Op.Const v -> add (Printf.sprintf "const %h" v)
  | Op.Input s -> add "input "; add s
  | Op.Load s -> add "load "; add s
  | Op.Store s -> add "store "; add s
  | Op.Lut s -> add "lut "; add s
  | Op.Cmp c -> add "cmp."; add (List.assoc c cmp_preds)
  | op -> add (Op.name op)

let rec add_sexpr buf = function
  | Kernel.Svar s -> Buffer.add_string buf s
  | Kernel.Sconst v -> Buffer.add_string buf (Printf.sprintf "%h" v)
  | Kernel.Sbin (op, a, b) ->
      Buffer.add_char buf '(';
      add_sexpr buf a;
      Buffer.add_char buf ' ';
      Buffer.add_string buf (Op.name (Op.Bin op));
      Buffer.add_char buf ' ';
      add_sexpr buf b;
      Buffer.add_char buf ')'
  | Kernel.Sisqrt e ->
      Buffer.add_string buf "isqrt(";
      add_sexpr buf e;
      Buffer.add_char buf ')'

(* [anon] writes the kernel name and every loop label as [_]. *)
let print ~anon (k : Kernel.t) =
  let buf = Buffer.create 1024 in
  let add = Buffer.add_string buf in
  let add_ref id = add " %"; add (string_of_int id) in
  let name s = if anon then "_" else s in
  add "kernel ";
  add (name k.name);
  add (match k.klass with Kernel.EO -> " EO\n" | Kernel.RE -> " RE\n");
  let names kw = function
    | [] -> ()
    | l -> add kw; List.iter (fun s -> add " "; add s) l; add "\n"
  in
  names "inputs" k.inputs;
  names "outputs" k.outputs;
  names "scalars" k.scalar_inputs;
  List.iter
    (fun (l : Kernel.loop) ->
      add "loop ";
      add (name l.label);
      if l.reduction then add " reduction";
      add " step=";
      add (string_of_int l.step);
      add " vw=";
      add (string_of_int l.vector_width);
      add "\n";
      List.iter
        (fun (v, e) -> add "  pre "; add v; add " = "; add_sexpr buf e; add "\n")
        l.pre;
      List.iter (fun (v, id) -> add "  export "; add v; add " ="; add_ref id; add "\n") l.exports;
      List.iter
        (fun (i : Instr.t) ->
          add " ";
          add_ref i.id;
          add " = ";
          add_op buf i.op;
          List.iter add_ref i.args;
          if i.offset <> 0 then (add " +"; add (string_of_int i.offset));
          add "\n")
        l.body;
      add "endloop\n")
    k.loops;
  add "endkernel\n";
  Buffer.contents buf

let to_string k = print ~anon:false k
let structural_digest k = Digest.to_hex (Digest.string (print ~anon:true k))

(* -------------------------------------------------------------- parsing *)

let tokens_of_line line =
  String.split_on_char ' ' line |> List.filter (fun s -> s <> "")

let parse_ref line tok =
  if String.length tok < 2 || tok.[0] <> '%' then fail line "expected %%<id>, got %s" tok
  else
    match int_of_string_opt (String.sub tok 1 (String.length tok - 1)) with
    | Some v -> v
    | None -> fail line "bad instruction reference %s" tok

let parse_float line tok =
  match float_of_string_opt tok with
  | Some v -> v
  | None -> fail line "bad number %s" tok

(* Expression parser for the pre-scalar glue: fully parenthesized binary
   expressions, isqrt(...), numbers, identifiers. *)
let parse_sexpr line text =
  let n = String.length text in
  let pos = ref 0 in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let skip_ws () =
    while !pos < n && text.[!pos] = ' ' do
      incr pos
    done
  in
  let ident_or_number () =
    let start = !pos in
    while
      !pos < n
      && (match text.[!pos] with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' | '+' -> true
         | _ -> false)
    do
      incr pos
    done;
    if !pos = start then fail line "expected identifier or number in expression";
    String.sub text start (!pos - start)
  in
  let rec expr () =
    skip_ws ();
    match peek () with
    | Some '(' ->
        incr pos;
        let a = expr () in
        skip_ws ();
        let op_tok = ident_or_number () in
        let op =
          match List.assoc_opt op_tok mnemonics with
          | Some (Op.Bin o) -> o
          | _ -> fail line "unknown operator %s in expression" op_tok
        in
        let b = expr () in
        skip_ws ();
        (match peek () with
        | Some ')' -> incr pos
        | _ -> fail line "expected ) in expression");
        Kernel.Sbin (op, a, b)
    | Some _ ->
        let tok = ident_or_number () in
        if tok = "isqrt" then begin
          skip_ws ();
          match peek () with
          | Some '(' ->
              incr pos;
              let e = expr () in
              skip_ws ();
              (match peek () with
              | Some ')' -> incr pos
              | _ -> fail line "expected ) after isqrt argument");
              Kernel.Sisqrt e
          | _ -> fail line "expected ( after isqrt"
        end
        else
          (match float_of_string_opt tok with
          | Some v -> Kernel.Sconst v
          | None -> Kernel.Svar tok)
    | None -> fail line "unexpected end of expression"
  in
  let e = expr () in
  skip_ws ();
  if !pos <> n then fail line "trailing characters in expression: %s" (String.sub text !pos (n - !pos));
  e

let parse_instr line toks =
  match toks with
  | dest :: "=" :: op_tok :: rest ->
      let id = parse_ref line dest in
      let take_refs rest =
        let rec go args offset = function
          | [] -> (List.rev args, offset)
          | tok :: t when String.length tok > 0 && tok.[0] = '%' ->
              go (parse_ref line tok :: args) offset t
          | tok :: t when String.length tok > 1 && tok.[0] = '+' -> (
              match int_of_string_opt (String.sub tok 1 (String.length tok - 1)) with
              | Some o -> go args o t
              | None -> fail line "bad offset %s" tok)
          | tok :: _ -> fail line "unexpected token %s" tok
        in
        go [] 0 rest
      in
      let op, rest =
        match (op_tok, rest) with
        | "const", v :: t -> (Op.Const (parse_float line v), t)
        | "input", s :: t -> (Op.Input s, t)
        | "load", s :: t -> (Op.Load s, t)
        | "store", s :: t -> (Op.Store s, t)
        | "lut", s :: t -> (Op.Lut s, t)
        | ("const" | "input" | "load" | "store" | "lut"), [] ->
            fail line "%s needs an operand" op_tok
        | tok, _ -> (
            match List.assoc_opt tok mnemonics with
            | Some op -> (op, rest)
            | None -> fail line "unknown opcode %s" tok)
      in
      let args, offset = take_refs rest in
      Instr.make ~offset ~id ~op ~args ()
  | _ -> fail line "expected %%<id> = <op> ..."

type loop_acc = {
  mutable label : string;
  mutable reduction : bool;
  mutable step : int;
  mutable vw : int;
  mutable pre : (string * Kernel.sexpr) list;
  mutable exports : (string * int) list;
  mutable body : Instr.t list;
}

let of_string text =
  let lines = String.split_on_char '\n' text in
  let name = ref "" and klass = ref Kernel.EO in
  let inputs = ref [] and outputs = ref [] and scalars = ref [] in
  let loops = ref [] in
  let current = ref None in
  let seen_kernel = ref false and seen_end = ref false in
  List.iteri
    (fun idx raw ->
      let lineno = idx + 1 in
      let line = String.trim raw in
      if line = "" || (String.length line > 0 && line.[0] = '#') then ()
      else
        match (tokens_of_line line, !current) with
        | "kernel" :: n :: k :: [], None ->
            seen_kernel := true;
            name := n;
            klass :=
              (match k with
              | "EO" -> Kernel.EO
              | "RE" -> Kernel.RE
              | other -> fail lineno "unknown class %s" other)
        | "inputs" :: rest, None -> inputs := rest
        | "outputs" :: rest, None -> outputs := rest
        | "scalars" :: rest, None -> scalars := rest
        | "loop" :: label :: rest, None ->
            let acc =
              { label; reduction = false; step = 1; vw = 1; pre = []; exports = []; body = [] }
            in
            List.iter
              (fun tok ->
                if tok = "reduction" then acc.reduction <- true
                else if String.length tok > 5 && String.sub tok 0 5 = "step=" then
                  acc.step <-
                    (match int_of_string_opt (String.sub tok 5 (String.length tok - 5)) with
                    | Some v -> v
                    | None -> fail lineno "bad step")
                else if String.length tok > 3 && String.sub tok 0 3 = "vw=" then
                  acc.vw <-
                    (match int_of_string_opt (String.sub tok 3 (String.length tok - 3)) with
                    | Some v -> v
                    | None -> fail lineno "bad vw")
                else fail lineno "unknown loop attribute %s" tok)
              rest;
            current := Some acc
        | [ "endkernel" ], None -> seen_end := true
        | toks, None -> fail lineno "unexpected top-level line: %s" (String.concat " " toks)
        | [ "endloop" ], Some acc ->
            loops :=
              {
                Kernel.label = acc.label;
                pre = List.rev acc.pre;
                body = List.rev acc.body;
                reduction = acc.reduction;
                exports = List.rev acc.exports;
                step = acc.step;
                vector_width = acc.vw;
              }
              :: !loops;
            current := None
        | "pre" :: pname :: "=" :: rest, Some acc ->
            acc.pre <- (pname, parse_sexpr lineno (String.concat " " rest)) :: acc.pre
        | [ "export"; ename; "="; ref_tok ], Some acc ->
            acc.exports <- (ename, parse_ref lineno ref_tok) :: acc.exports
        | toks, Some acc -> acc.body <- parse_instr lineno toks :: acc.body)
    lines;
  if not !seen_kernel then raise (Parse_error "missing kernel header");
  if not !seen_end then raise (Parse_error "missing endkernel");
  if !current <> None then raise (Parse_error "unterminated loop");
  let k =
    {
      Kernel.name = !name;
      klass = !klass;
      loops = List.rev !loops;
      inputs = !inputs;
      outputs = !outputs;
      scalar_inputs = !scalars;
    }
  in
  match Kernel.validate k with
  | Ok () -> k
  | Error e -> raise (Parse_error ("validation: " ^ e))
