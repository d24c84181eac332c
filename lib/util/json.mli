(** Minimal JSON values: a writer and a strict parser.

    The observability layer (trace export, [BENCH.json]) needs
    machine-readable output without pulling an external dependency, so
    this is the smallest useful JSON implementation: one value type,
    a compact serializer whose output is always valid JSON, and a
    recursive-descent parser used by the round-trip tests.

    Numbers are carried as [float] (like JavaScript). The writer emits
    integral values without a fractional part and everything else with
    17 significant digits, so [parse (to_string v)] reconstructs every
    finite number exactly. Non-finite floats serialize as [null] (JSON
    has no representation for them). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val num : float -> t
(** [Num x], or [Null] when [x] is NaN or infinite. *)

val int : int -> t
(** [Num (float_of_int i)]. *)

val str : string -> t

val to_string : t -> string
(** Compact (no whitespace) serialization; always valid JSON. *)

val parse : string -> (t, string) result
(** Strict parse of a complete JSON document: rejects trailing garbage,
    unterminated literals and malformed escapes. Object key order is
    preserved. [Error] carries a message with a byte offset. *)

(** {1 Accessors} (for tests and simple consumers) *)

val member : string -> t -> t option
(** First binding of the key in an [Obj]; [None] otherwise. *)

val get_num : t -> float option
val get_str : t -> string option
val get_arr : t -> t list option
val get_bool : t -> bool option
