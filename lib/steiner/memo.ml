(* Bounded keyed cache for planning results.  The service control plane
   memoizes full peels and prefix plans per (source, member-set) so the
   many identical small groups of a multi-tenant Poisson mix skip
   Layer_peel / Plan.build entirely.

   Determinism contract: a cache hit must return a value observationally
   identical to recomputing it, so hits never change behaviour — only
   time.  The service never mutates the fabric it plans on, and the
   capacity bound drops *insertions* rather than evicting — the set of
   cached keys is a deterministic function of the insertion sequence,
   never of hash-order or timing. *)

type ('k, 'v) t = {
  hash : 'k -> int;
  equal : 'k -> 'k -> bool;
  capacity : int;
  buckets : (int, ('k * 'v) list) Hashtbl.t;
  mutable size : int;
  mutable hits : int;
  mutable misses : int;
}

let create ?(capacity = 65536) ~hash ~equal () =
  if capacity < 1 then invalid_arg "Memo.create: capacity must be >= 1";
  {
    hash;
    equal;
    capacity;
    buckets = Hashtbl.create 1024;
    size = 0;
    hits = 0;
    misses = 0;
  }

let length t = t.size
let hits t = t.hits
let misses t = t.misses
let find t k =
  let h = t.hash k in
  let rec lookup = function
    | [] -> None
    | (k', v) :: rest -> if t.equal k k' then Some v else lookup rest
  in
  match Hashtbl.find_opt t.buckets h with
  | None ->
      t.misses <- t.misses + 1;
      None
  | Some chain -> (
      match lookup chain with
      | Some v ->
          t.hits <- t.hits + 1;
          Some v
      | None ->
          t.misses <- t.misses + 1;
          None)

let add t k v =
  if t.size < t.capacity then begin
    let h = t.hash k in
    let chain = Option.value (Hashtbl.find_opt t.buckets h) ~default:[] in
    if not (List.exists (fun (k', _) -> t.equal k k') chain) then begin
      Hashtbl.replace t.buckets h ((k, v) :: chain);
      t.size <- t.size + 1
    end
  end

let memoize t k compute =
  match find t k with
  | Some v -> v
  | None ->
      let v = compute () in
      add t k v;
      v
