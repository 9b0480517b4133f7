open Taqp_data

type expr =
  | Const of Value.t
  | Attr of string
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | True
  | False
  | Cmp of cmp * expr * expr
  | And of t * t
  | Or of t * t
  | Not of t

exception Type_error of string

let type_error fmt = Fmt.kstr (fun s -> raise (Type_error s)) fmt

(* Static type of an expression: numeric expressions may be Tint or
   Tfloat; we fold both into `Num for checking purposes. *)
type sty = Num | Str | Boolean

let sty_of_vty = function
  | Value.Tint | Value.Tfloat -> Num
  | Value.Tstring -> Str
  | Value.Tbool -> Boolean

let sty_name = function Num -> "numeric" | Str -> "string" | Boolean -> "bool"

let rec expr_type schema = function
  | Const Value.Null -> None
  | Const v -> Option.map sty_of_vty (Value.type_of v)
  | Attr name -> (
      match Schema.find schema name with
      | i -> Some (sty_of_vty (Schema.ty_at schema i))
      | exception Schema.Schema_error msg -> type_error "%s" msg)
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) ->
      let check side =
        match expr_type schema side with
        | Some Num | None -> ()
        | Some s -> type_error "arithmetic on %s operand" (sty_name s)
      in
      check a;
      check b;
      Some Num

let rec typecheck schema = function
  | True | False -> ()
  | Cmp (_, a, b) -> (
      match (expr_type schema a, expr_type schema b) with
      | Some x, Some y when x <> y ->
          type_error "comparison between %s and %s" (sty_name x) (sty_name y)
      | _, _ -> ())
  | And (a, b) | Or (a, b) ->
      typecheck schema a;
      typecheck schema b
  | Not a -> typecheck schema a

(* Compiled expressions close over attribute positions. *)
let rec compile_expr schema = function
  | Const v -> fun _ -> v
  | Attr name ->
      let i =
        match Schema.find schema name with
        | i -> i
        | exception Schema.Schema_error msg -> type_error "%s" msg
      in
      fun t -> Tuple.get t i
  | Add (a, b) -> arith schema ( + ) ( +. ) a b
  | Sub (a, b) -> arith schema ( - ) ( -. ) a b
  | Mul (a, b) -> arith schema ( * ) ( *. ) a b
  | Div (a, b) ->
      let fa = compile_expr schema a and fb = compile_expr schema b in
      fun t ->
        (match (fa t, fb t) with
        | Value.Int _, Value.Int 0 -> Value.Null
        | Value.Int x, Value.Int y -> Value.Int (x / y)
        | x, y -> (
            match (Value.to_float x, Value.to_float y) with
            | Some x, Some y when y <> 0.0 -> Value.Float (x /. y)
            | _, _ -> Value.Null))

and arith schema int_op float_op a b =
  let fa = compile_expr schema a and fb = compile_expr schema b in
  fun t ->
    match (fa t, fb t) with
    | Value.Int x, Value.Int y -> Value.Int (int_op x y)
    | x, y -> (
        match (Value.to_float x, Value.to_float y) with
        | Some x, Some y -> Value.Float (float_op x y)
        | _, _ -> Value.Null)

let cmp_holds op a b =
  if Value.is_null a || Value.is_null b then false
  else
    let c = Value.compare a b in
    match op with
    | Eq -> c = 0
    | Ne -> c <> 0
    | Lt -> c < 0
    | Le -> c <= 0
    | Gt -> c > 0
    | Ge -> c >= 0

let compile schema pred =
  typecheck schema pred;
  let rec go = function
    | True -> fun _ -> true
    | False -> fun _ -> false
    | Cmp (op, a, b) ->
        let fa = compile_expr schema a and fb = compile_expr schema b in
        fun t -> cmp_holds op (fa t) (fb t)
    | And (a, b) ->
        let fa = go a and fb = go b in
        fun t -> fa t && fb t
    | Or (a, b) ->
        let fa = go a and fb = go b in
        fun t -> fa t || fb t
    | Not a ->
        let fa = go a in
        fun t -> not (fa t)
  in
  go pred

(* ------------------------------------------------------------------ *)
(* The column form: the same predicate over row ids of int columns.   *)

type operand = Col of int array | Lit of int

exception Not_columnar

(* [a op b] with both sides ints, as [cmp_holds] decides it on [Int]s:
   [Value.compare] on two [Int]s is [Int.compare]. *)
let cmp_rows op a b : int -> bool =
  let flip = function
    | Lt -> Gt
    | Le -> Ge
    | Gt -> Lt
    | Ge -> Le
    | (Eq | Ne) as op -> op
  in
  match (a, b) with
  | Lit x, Lit y ->
      let holds = cmp_holds op (Value.Int x) (Value.Int y) in
      fun _ -> holds
  | Col c, Lit k | Lit k, Col c -> (
      let op = match a with Lit _ -> flip op | Col _ -> op in
      match op with
      | Eq -> fun r -> c.(r) = k
      | Ne -> fun r -> c.(r) <> k
      | Lt -> fun r -> c.(r) < k
      | Le -> fun r -> c.(r) <= k
      | Gt -> fun r -> c.(r) > k
      | Ge -> fun r -> c.(r) >= k)
  | Col c, Col d -> (
      match op with
      | Eq -> fun r -> c.(r) = d.(r)
      | Ne -> fun r -> c.(r) <> d.(r)
      | Lt -> fun r -> c.(r) < d.(r)
      | Le -> fun r -> c.(r) <= d.(r)
      | Gt -> fun r -> c.(r) > d.(r)
      | Ge -> fun r -> c.(r) >= d.(r))

let compile_rows schema ~column pred =
  typecheck schema pred;
  let operand = function
    | Attr name -> (
        match column (Schema.find schema name) with
        | Some c -> Col c
        | None -> raise Not_columnar)
    | Const (Value.Int k) -> Lit k
    | Const (Value.Float _ | Value.String _ | Value.Bool _ | Value.Null)
    | Add _ | Sub _ | Mul _ | Div _ ->
        raise Not_columnar
  in
  let rec go = function
    | True -> fun _ -> true
    | False -> fun _ -> false
    | Cmp (op, a, b) -> cmp_rows op (operand a) (operand b)
    | And (a, b) ->
        let fa = go a and fb = go b in
        fun r -> fa r && fb r
    | Or (a, b) ->
        let fa = go a and fb = go b in
        fun r -> fa r || fb r
    | Not a ->
        let fa = go a in
        fun r -> not (fa r)
  in
  match go pred with test -> Some test | exception Not_columnar -> None

let rec comparisons = function
  | True | False -> 0
  | Cmp (_, _, _) -> 1
  | And (a, b) | Or (a, b) -> comparisons a + comparisons b
  | Not a -> comparisons a

let attrs pred =
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  let note name =
    if not (Hashtbl.mem seen name) then begin
      Hashtbl.add seen name ();
      out := name :: !out
    end
  in
  let rec go_expr = function
    | Const _ -> ()
    | Attr name -> note name
    | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) ->
        go_expr a;
        go_expr b
  in
  let rec go = function
    | True | False -> ()
    | Cmp (_, a, b) ->
        go_expr a;
        go_expr b
    | And (a, b) | Or (a, b) ->
        go a;
        go b
    | Not a -> go a
  in
  go pred;
  List.rev !out

let rec conjuncts = function
  | And (a, b) -> conjuncts a @ conjuncts b
  | p -> [ p ]

let equi_join_pairs pred =
  List.filter_map
    (function Cmp (Eq, Attr a, Attr b) -> Some (a, b) | _ -> None)
    (conjuncts pred)

let residual_of_equi pred =
  let keep = function Cmp (Eq, Attr _, Attr _) -> false | _ -> true in
  match List.filter keep (conjuncts pred) with
  | [] -> True
  | p :: ps -> List.fold_left (fun acc q -> And (acc, q)) p ps

let conj = function
  | [] -> True
  | p :: ps -> List.fold_left (fun acc q -> And (acc, q)) p ps

let disj = function
  | [] -> False
  | p :: ps -> List.fold_left (fun acc q -> Or (acc, q)) p ps

let cmp_symbol = function
  | Eq -> "="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let rec pp_expr ppf = function
  | Const v -> Value.pp ppf v
  | Attr a -> Fmt.string ppf a
  | Add (a, b) -> Fmt.pf ppf "(%a + %a)" pp_expr a pp_expr b
  | Sub (a, b) -> Fmt.pf ppf "(%a - %a)" pp_expr a pp_expr b
  | Mul (a, b) -> Fmt.pf ppf "(%a * %a)" pp_expr a pp_expr b
  | Div (a, b) -> Fmt.pf ppf "(%a / %a)" pp_expr a pp_expr b

let rec pp ppf = function
  | True -> Fmt.string ppf "true"
  | False -> Fmt.string ppf "false"
  | Cmp (op, a, b) -> Fmt.pf ppf "%a %s %a" pp_expr a (cmp_symbol op) pp_expr b
  | And (a, b) -> Fmt.pf ppf "(%a && %a)" pp a pp b
  | Or (a, b) -> Fmt.pf ppf "(%a || %a)" pp a pp b
  | Not a -> Fmt.pf ppf "!(%a)" pp a
