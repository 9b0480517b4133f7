(** Selection / join predicates: boolean formulas over tuple attributes
    with integer/float arithmetic and string comparison.

    The paper's cost formulas depend on the number of comparisons a
    selection formula evaluates ("the selection formula containing two
    integer comparisons"); {!comparisons} exposes exactly that count. *)

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

val typecheck : Schema.t -> t -> unit
(** @raise Type_error when an attribute is unknown, arithmetic is applied
    to non-numeric operands, or a comparison mixes incompatible types. *)

val compile : Schema.t -> t -> Tuple.t -> bool
(** Resolve attribute positions against [schema] once and return a fast
    evaluator. Null comparisons are false (SQL-ish three-valued logic
    collapsed to false). @raise Type_error as {!typecheck}. *)

val compile_rows :
  Schema.t -> column:(int -> int array option) -> t -> (int -> bool) option
(** The predicate as a test on row ids, for tuples whose attributes are
    held as flat int columns: [column i] is attribute [i]'s column
    (indexed by row id), or [None] if it has none. [Some test] when
    every comparison sets an [Int] attribute with a column against
    another such attribute or an [Int] constant, under [And], [Or],
    [Not], [True] and [False]; then [test r] is {!compile}'s verdict on
    the tuple at row [r]. [None] for any other shape: float, string,
    bool or null constants, arithmetic, or an attribute without a
    column. @raise Type_error as {!typecheck}. *)

val comparisons : t -> int
(** Number of comparison nodes, the cost-formula workload measure. *)

val attrs : t -> string list
(** Attribute names referenced, without duplicates, in first-use order. *)

val equi_join_pairs : t -> (string * string) list
(** The top-level conjuncts of the form [Attr a = Attr b] — the join
    attributes a sort-merge join can key on. *)

val residual_of_equi : t -> t
(** [t] with its {!equi_join_pairs} conjuncts replaced by [True] —
    what remains to check after the merge keys matched. *)

val conj : t list -> t
val disj : t list -> t

val pp : Format.formatter -> t -> unit
val pp_expr : Format.formatter -> expr -> unit
