(* Bounded planning memo keyed by (source, node set), laid out so
   that no key is a boxed value: node sets are byte slices of one
   arena, sources and key hashes are int columns, and an
   open-addressing table of entry indices finds them.  See memo.mli
   for the determinism contract. *)

module Bits = Peel_util.Bits
module Bitset = Bits.Bitset

type 'v t = {
  capacity : int;
  width : int;
  key_bytes : int;  (* arena bytes per entry: (width + 7) / 8 *)
  mutable keys : Bytes.t;  (* entry e's node set at e * key_bytes *)
  mutable sources : int array;
  mutable hashes : int array;
  mutable values : 'v array;  (* [||] until the first insertion *)
  mutable slots : int array;  (* entry index + 1, or 0 when empty; 2^b long *)
  mutable shift : int;  (* Sys.int_size - b: a hash's top b bits index [slots] *)
  mutable size : int;
  mutable hits : int;
  mutable misses : int;
}

(* Fibonacci hashing: the product's top bits depend on every bit of
   the hash.  FNV-1a's low bits see only the low bits of each byte, so
   a mask over them would collide sets that differ in a byte's upper
   half. *)
let mix = 0x2545F4914F6CDD1D

(* An empty table for [n] entries, at most half full. *)
let table t n =
  let b = Bits.ceil_log2 (2 * n) in
  t.slots <- Array.make (1 lsl b) 0;
  t.shift <- Sys.int_size - b

let create ?(capacity = 65536) ~width () =
  if capacity < 1 then invalid_arg "Memo.create: capacity must be >= 1";
  if width < 0 then invalid_arg "Memo.create: width must be >= 0";
  let key_bytes = (width + 7) lsr 3 in
  let n = min capacity 8 in
  let t =
    {
      capacity;
      width;
      key_bytes;
      keys = Bytes.create (n * key_bytes);
      sources = Array.make n 0;
      hashes = Array.make n 0;
      values = [||];
      slots = [||];
      shift = 0;
      size = 0;
      hits = 0;
      misses = 0;
    }
  in
  table t n;
  t

let length t = t.size
let hits t = t.hits
let misses t = t.misses

let key_hash t ~source set =
  if Bitset.width set <> t.width then
    invalid_arg
      (Printf.sprintf "Memo: a key of width %d in a memo of width %d"
         (Bitset.width set) t.width);
  ((Bitset.hash set * 31) + source) land max_int

(* The table position holding (source, set), or the empty position
   where it would go.  The table is at most half full, so the probe
   ends. *)
let position t h ~source set =
  let mask = Array.length t.slots - 1 in
  let i = ref ((h * mix) lsr t.shift) in
  while
    let e = Array.unsafe_get t.slots !i - 1 in
    e >= 0
    && not
         (Array.unsafe_get t.hashes e = h
         && Array.unsafe_get t.sources e = source
         && Bitset.equal_slice set t.keys (e * t.key_bytes))
  do
    i := (!i + 1) land mask
  done;
  !i

let find t ~source set =
  let h = key_hash t ~source set in
  let e = Array.unsafe_get t.slots (position t h ~source set) - 1 in
  if e >= 0 then t.hits <- t.hits + 1 else t.misses <- t.misses + 1;
  e

let get t i =
  if i < 0 || i >= t.size then invalid_arg "Memo.get: no such entry";
  Array.unsafe_get t.values i

(* Double the columns (up to [capacity]) and re-place every entry from
   its stored hash; entries are distinct, so no key is compared. *)
let grow t =
  let n = min t.capacity (2 * Array.length t.sources) in
  let column a =
    let a' = Array.make n 0 in
    Array.blit a 0 a' 0 t.size;
    a'
  in
  t.sources <- column t.sources;
  t.hashes <- column t.hashes;
  let keys = Bytes.create (n * t.key_bytes) in
  Bytes.blit t.keys 0 keys 0 (t.size * t.key_bytes);
  t.keys <- keys;
  table t n;
  let mask = Array.length t.slots - 1 in
  for e = 0 to t.size - 1 do
    let i = ref ((t.hashes.(e) * mix) lsr t.shift) in
    while t.slots.(!i) <> 0 do
      i := (!i + 1) land mask
    done;
    t.slots.(!i) <- e + 1
  done

let add t ~source set v =
  if t.size < t.capacity then begin
    let h = key_hash t ~source set in
    let i = position t h ~source set in
    if t.slots.(i) = 0 then begin
      let i =
        if t.size < Array.length t.sources then i
        else begin
          grow t;
          position t h ~source set
        end
      in
      let e = t.size in
      if Array.length t.values < Array.length t.sources then begin
        let values = Array.make (Array.length t.sources) v in
        Array.blit t.values 0 values 0 e;
        t.values <- values
      end;
      t.sources.(e) <- source;
      t.hashes.(e) <- h;
      Bitset.write_slice set t.keys (e * t.key_bytes);
      t.values.(e) <- v;
      t.slots.(i) <- e + 1;
      t.size <- e + 1
    end
  end
