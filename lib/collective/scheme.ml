type t =
  | Ring
  | Btree
  | Dbtree
  | Optimal
  | Orca
  | Peel
  | Peel_prog_cores
  | Peel_multitree of int

let all = [ Ring; Btree; Optimal; Orca; Peel; Peel_prog_cores ]


let to_string = function
  | Ring -> "ring"
  | Btree -> "tree"
  | Dbtree -> "dbtree"
  | Optimal -> "optimal"
  | Orca -> "orca"
  | Peel -> "peel"
  | Peel_prog_cores -> "peel+cores"
  | Peel_multitree n -> Printf.sprintf "peel-mt%d" n

let of_string s =
  match s with
  | "ring" -> Some Ring
  | "tree" | "btree" -> Some Btree
  | "dbtree" -> Some Dbtree
  | "optimal" -> Some Optimal
  | "orca" -> Some Orca
  | "peel" -> Some Peel
  | "peel+cores" | "peel-prog" | "peel_prog_cores" -> Some Peel_prog_cores
  | _ ->
      if String.length s > 7 && String.sub s 0 7 = "peel-mt" then
        match int_of_string_opt (String.sub s 7 (String.length s - 7)) with
        | Some n when n >= 1 -> Some (Peel_multitree n)
        | _ -> None
      else None
