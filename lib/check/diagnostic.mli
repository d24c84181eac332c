(** The uniform finding type every [Peel_check] checker emits.

    A diagnostic pins one invariant violation (or suspicion) to a
    stable, greppable code — "TREE002", "PLAN005" — so tests can assert
    on exactly which corruption was caught and operators can look the
    code up in DESIGN.md's invariant table.  Severity [Error] means a
    paper-level invariant is broken (the artifact must not be used);
    [Warning] flags values that are legal but outside the envelope the
    evaluation exercises; [Info] is advisory. *)

type severity = Error | Warning | Info

type t = {
  severity : severity;
  code : string;     (** stable short code, e.g. "TREE002" *)
  message : string;  (** human explanation of this specific finding *)
  location : string; (** where: "packet 3", "edge 12->47", "link 9" *)
}

val errorf : code:string -> loc:string -> ('a, unit, string, t) format4 -> 'a
val warningf : code:string -> loc:string -> ('a, unit, string, t) format4 -> 'a

val severity_to_string : severity -> string

val to_string : t -> string
(** ["error[TREE002] edge 12->47: link 9 is down"]. *)

val errors : t list -> t list
(** Just the [Error]-severity findings. *)

val has_errors : t list -> bool

val has_code : string -> t list -> bool
(** Whether any finding carries the given code.  Test oracle: the
    suites assert a diagnosis with it. *)

val sort : t list -> t list
(** Errors first, then warnings, then infos; stable by code within a
    severity. *)

val pp_report : Format.formatter -> t list -> unit
(** One finding per line; prints "no findings" for the empty list. *)
