let is_power_of_two n = n > 0 && n land (n - 1) = 0

let ilog2 n =
  if n <= 0 then invalid_arg "Bits.ilog2";
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let ceil_log2 n =
  if n <= 0 then invalid_arg "Bits.ceil_log2";
  let f = ilog2 n in
  if is_power_of_two n then f else f + 1

let pow2 n =
  if n < 0 || n >= 62 then invalid_arg "Bits.pow2";
  1 lsl n

let ceil_div a b =
  if b <= 0 then invalid_arg "Bits.ceil_div";
  (a + b - 1) / b

let bit x i = (x lsr i) land 1 = 1

(* ------------------------------------------------------------------ *)
(* Fixed-width bitsets                                                 *)
(* ------------------------------------------------------------------ *)

module Bitset = struct
  (* Bytes-backed so [equal_slice]/[hash] are flat memory scans with no
     per-word boxing; the service's member sets (universe = fabric
     endpoints) stay a few dozen bytes each at million-group scale. *)
  type t = { width : int; bits : Bytes.t }

  let nbytes width = (width + 7) lsr 3

  let create width =
    if width < 0 then invalid_arg "Bits.Bitset.create: width must be >= 0";
    { width; bits = Bytes.make (nbytes width) '\000' }

  let width t = t.width

  let check t i op =
    if i < 0 || i >= t.width then
      invalid_arg (Printf.sprintf "Bits.Bitset.%s: %d outside [0, %d)" op i t.width)

  let add t i =
    check t i "add";
    let b = i lsr 3 in
    Bytes.unsafe_set t.bits b
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.bits b) lor (1 lsl (i land 7))))

  let remove t i =
    check t i "remove";
    let b = i lsr 3 in
    Bytes.unsafe_set t.bits b
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get t.bits b) land lnot (1 lsl (i land 7))))

  let clear t = Bytes.fill t.bits 0 (Bytes.length t.bits) '\000'

  (* FNV-1a over the backing bytes: the memoization cache's bucket
     hash.  Collisions are survivable (callers compare with
     [equal_slice]);
     the width folds in so same-pattern different-width sets split. *)
  let[@inline] fnv h c =
    Int64.mul (Int64.logxor h (Int64.of_int c)) 0x100000001b3L

  let hash t =
    (* The state stays in a local ref the loop never lets escape, so it
       is an unboxed register; a closure over it would box per byte. *)
    let h = fnv 0xcbf29ce484222325L (t.width land 0xff) in
    let h = ref (fnv h ((t.width lsr 8) land 0xff)) in
    for i = 0 to Bytes.length t.bits - 1 do
      h := fnv !h (Char.code (Bytes.unsafe_get t.bits i))
    done;
    Int64.to_int !h land max_int

  let check_slice t b off op =
    if off < 0 || off > Bytes.length b - Bytes.length t.bits then
      invalid_arg
        (Printf.sprintf "Bits.Bitset.%s: %d bytes at %d outside %d" op
           (Bytes.length t.bits) off (Bytes.length b))

  let write_slice t b off =
    check_slice t b off "write_slice";
    Bytes.blit t.bits 0 b off (Bytes.length t.bits)

  let equal_slice t b off =
    check_slice t b off "equal_slice";
    let n = Bytes.length t.bits in
    let i = ref 0 in
    while !i < n && Bytes.unsafe_get t.bits !i = Bytes.unsafe_get b (off + !i) do
      incr i
    done;
    !i = n

  let iter f t =
    for b = 0 to Bytes.length t.bits - 1 do
      let c = Char.code (Bytes.unsafe_get t.bits b) in
      if c <> 0 then
        for o = 0 to 7 do
          if c land (1 lsl o) <> 0 then f ((b lsl 3) lor o)
        done
    done

  let to_list t =
    let acc = ref [] in
    iter (fun i -> acc := i :: !acc) t;
    List.rev !acc

  let of_list ~width l =
    let t = create width in
    List.iter (fun i -> add t i) l;
    t
end
