(** E10 — resource fragmentation (paper §3.4 open question).

    As job placement becomes less compact, prefix ranges fragment: the
    exact cover needs more packets (more copies up the funnel), while a
    budgeted cover bounds the packet count by over-covering racks that
    then discard the traffic.  This ablation quantifies both sides of
    the trade-off and its CCT impact. *)

val run : Common.mode -> unit
