(** Power-of-two cover sets over an [m]-bit ToR identifier space
    (paper §3.2).

    A prefix [{ value; len }] denotes the block of [2^(m-len)]
    identifiers whose top [len] bits equal [value] — exactly a CIDR
    block.  [exact_cover] is the canonical trie decomposition: the
    minimal set of prefixes covering the targets and nothing else
    ("outermost complete sub-trees" in the paper's example).
    [budgeted_cover] trades packets for bandwidth: at most [budget]
    prefixes, minimizing the number of over-covered (non-target)
    identifiers — the knob behind the paper's §3.4 fragmentation open
    question. *)

type prefix = { value : int; len : int }
(** [value] holds the top [len] bits (0 <= value < 2^len). The block
    covered in an [m]-bit space is [\[value*2^(m-len),
    (value+1)*2^(m-len))]. *)

val block_size : m:int -> prefix -> int
val covers : m:int -> prefix -> int -> bool
val expand : m:int -> prefix -> int list
(** All identifiers in the block, ascending. *)

val parent : prefix -> prefix option
(** The double-size enclosing block: [{value/2; len-1}]. [None] for the
    root (len 0).  Independent of [m] — a valid prefix's parent is
    valid in the same space. *)

val sibling : prefix -> prefix option
(** The parent's other child (same [len], low bit flipped); [None] for
    the root.  A sibling pair's blocks partition their parent's. *)

val is_ancestor : prefix -> prefix -> bool
(** [is_ancestor a p] — does [a]'s block contain [p]'s?  Reflexive, and
    the only way two prefix blocks can overlap is containment, so
    [not (is_ancestor a b) && not (is_ancestor b a)] means disjoint. *)

val to_string : m:int -> prefix -> string
(** CIDR-ish rendering, e.g. "01*" for value=1,len=2 in a 3-bit space. *)

val validate : m:int -> prefix -> unit
(** Raises [Invalid_argument] if [len] is outside [0..m] or [value]
    outside [0..2^len). *)

val exact_cover : m:int -> int list -> prefix list
(** Minimal exact decomposition of a target set into power-of-two
    blocks; sorted by block start. Targets must lie in [0..2^m);
    duplicates are ignored. The empty set yields [].  Cost: O(2^m) to
    prefix-sum the targets, then O(1) per trie node visited (at most
    [(m + 1) * |targets|] of them). *)

val budgeted_cover : m:int -> budget:int -> int list -> prefix list
(** Cover every target with at most [budget] prefixes (budget >= 1),
    minimizing first the count of covered non-targets, then the number
    of prefixes. Falls back to [{value=0; len=0}] (the whole pod) when
    the budget forces it.  Among equal optima, a block is covered whole
    when that is optimal, else split at the smallest left-child budget
    that reaches the optimum.  Cost: O(2^m) to prefix-sum the targets,
    then O(budget^2) int operations per trie node holding a target, in
    int arrays of [budget + 1] values per such node. *)

val covered_set : m:int -> prefix list -> int list
(** Union of the blocks, ascending, duplicates removed.
    Test oracle: the cover tests check exactness against it. *)

val over_coverage : m:int -> prefix list -> targets:int list -> int
(** Number of covered identifiers that are not targets. *)

val is_cover : m:int -> prefix list -> targets:int list -> bool
(** Do the prefixes cover every target?  (Over-covering is allowed;
    see {!over_coverage} for how much.)
    Test oracle: the budgeted-cover tests check coverage with it. *)
