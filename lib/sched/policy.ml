type t = Fifo | Edf | Least_laxity | Weighted_fair

let all = [ Fifo; Edf; Least_laxity; Weighted_fair ]

let name = function
  | Fifo -> "fifo"
  | Edf -> "edf"
  | Least_laxity -> "llf"
  | Weighted_fair -> "wfq"

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "fifo" -> Some Fifo
  | "edf" -> Some Edf
  | "llf" | "least-laxity" -> Some Least_laxity
  | "wfq" | "weighted-fair" -> Some Weighted_fair
  | _ -> None

let pp ppf t = Format.pp_print_string ppf (name t)

type candidate = {
  key : int;
  seq : int;
  deadline : float;
  laxity : float Lazy.t;
  service : float;
  weight : float;
}

(* Every policy reduces to "minimize a score, break ties by admission
   order": the score function is the whole policy. Ties on the score go
   to the earlier [seq] so selection is total and deterministic. *)
let score t c =
  match t with
  | Fifo -> float_of_int c.seq
  | Edf -> c.deadline
  | Least_laxity -> Lazy.force c.laxity
  | Weighted_fair -> c.service /. c.weight

let select t = function
  | [] -> invalid_arg "Policy.select: no candidates"
  | first :: rest ->
      List.fold_left
        (fun best c ->
          let sb = score t best and sc = score t c in
          if sc < sb || (sc = sb && c.seq < best.seq) then c else best)
        first rest
