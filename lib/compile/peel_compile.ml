(** Fleet-level rule compiler: lower a batch of per-group send plans
    into concrete per-switch tables ({!Compile}), with a static
    equivalence checker over stable CMP codes ({!Check_compile}).

    {!compile} is the checked front door: under [PEEL_CHECK=1]
    ({!Peel_check.enabled}) every compile is re-proved equivalent
    before it is returned. *)

module Compile = Compile
module Check_compile = Check_compile

let compile ?capacity ?aggregate fabric batch =
  let t = Compile.compile ?capacity ?aggregate fabric batch in
  if Peel_check.enabled () then
    Peel_check.assert_valid ~what:"compiled rule tables"
      (Check_compile.check fabric t);
  t

(* Entry count of an unaggregated compile, for callers that discard
   the tables themselves.  In debug mode ([PEEL_CHECK=1]) the full
   checked compile runs instead, so every counted batch is still
   re-proved equivalent.  The service counts memoized rule footprints
   with [Compile.count_footprints] and re-proves each flush itself. *)
let count_entries fabric batch =
  if Peel_check.enabled () then Compile.total_entries (compile fabric batch)
  else Compile.count_entries fabric batch
