(* Open-addressing hash tables specialized to the packed integer state
   keys of the exact solvers.

   Layout: a [slots] probe array (linear probing, power-of-two size)
   maps hashes to dense indices; the keys and the stored value live in
   flat [int array] columns indexed densely in insertion order.  No
   key is ever boxed, no polymorphic hashing or comparison runs, and
   the dense index returned by [add] is stable for the lifetime of the
   table — callers use it as a handle into their own parallel arrays
   (parent pointers, move tags) and as a compact queue token.

   [slots] stores [dense index + 1]; 0 means empty.  Load factor is
   kept below 3/4. *)

let initial_cap = 1 lsl 12

(* Two rounds of a splitmix-style finalizer; constants fit OCaml's
   63-bit ints (multiplication wraps, which is fine for mixing). *)
let mix h =
  let h = h lxor (h lsr 30) in
  let h = h * 0x1f58d5e3bf119d25 in
  let h = h lxor (h lsr 27) in
  let h = h * 0x2545f4914f6cdd1d in
  h lxor (h lsr 31)

(* Width-dispatched key hash shared by {!Flat} (probe placement) and
   {!Sharded} (owner-shard routing).  The dominant w <= 3 cases mix
   the key words directly, with no loop. *)
let[@inline] hash_width width (k : int array) =
  match width with
  | 1 -> mix (Array.unsafe_get k 0)
  | 2 ->
      mix
        (Array.unsafe_get k 0 lxor (Array.unsafe_get k 1 * 0x9e3779b97f4a7c1))
  | 3 ->
      mix
        (Array.unsafe_get k 0
        lxor (Array.unsafe_get k 1 * 0x9e3779b97f4a7c1)
        lxor (Array.unsafe_get k 2 * 0x3c79ac492ba7b65))
  | w ->
      let h = ref (Array.unsafe_get k 0) in
      for i = 1 to w - 1 do
        h := mix (!h lxor Array.unsafe_get k i)
      done;
      mix !h

(* Keys are [width] consecutive ints in one flat column array.  This
   is what the functorized {!Engine} uses — the per-game packing width
   is only known at instance-construction time (RBP packs 3 ints, PRBP
   2, the multiprocessor games p + 2 / 2p + 2).

   The hash dispatches on the (per-table constant) width, so the
   dominant w <= 3 cases run with no loop. *)
module Flat = struct
  (* The probe array and the dense columns may be longer than the
     table uses: [recycle] keeps them from an earlier search.  Every
     size the search can observe — the probe mask, the growth points,
     [words], [load], [capacity], [resizes] — follows the logical sizes
     [nslots] and [cap], which replay those of a fresh table. *)
  type t = {
    mutable width : int;
    base_cap : int;  (* creation-time dense capacity; growth baseline *)
    mutable slots : int array;  (* >= nslots long *)
    mutable nslots : int;  (* logical probe-array size, a power of two *)
    mutable keys : int array;  (* row-major, >= width * cap long *)
    mutable v : int array;  (* >= cap long *)
    mutable cap : int;  (* logical dense capacity *)
    mutable n : int;
  }

  (* smallest power of two >= max(64, hint) — tiny tables would churn
     through resizes; shard-of-32 callers pass initial_cap / 32 = 128 *)
  let round_cap hint =
    let c = ref 64 in
    while !c < hint do
      c := 2 * !c
    done;
    !c

  let check_width what width =
    if width < 1 then invalid_arg ("State_table.Flat." ^ what ^ ": width >= 1")

  let create ?capacity ~width () =
    check_width "create" width;
    let base_cap =
      match capacity with None -> initial_cap | Some c -> round_cap c
    in
    {
      width;
      base_cap;
      slots = Array.make (2 * base_cap) 0;
      nslots = 2 * base_cap;
      keys = Array.make (width * base_cap) 0;
      v = Array.make base_cap 0;
      cap = base_cap;
      n = 0;
    }

  let width t = t.width

  let length t = t.n

  let[@inline] hash_key t (k : int array) = hash_width t.width k

  let[@inline] key_eq t j (k : int array) =
    let w = t.width in
    let base = j * w in
    let i = ref 0 in
    while
      !i < w
      && Array.unsafe_get t.keys (base + !i) = Array.unsafe_get k !i
    do
      incr i
    done;
    !i = w

  (* [find] keeps the key words in registers for the dominant widths:
     it is called once per *emitted* successor (several per explored
     state), so re-reading the caller's buffer inside the probe loop
     is measurable. *)
  let find_2 t a b =
    let keys = t.keys in
    let mask = t.nslots - 1 in
    let i = ref (mix (a lxor (b * 0x9e3779b97f4a7c1)) land mask) in
    let res = ref (-2) in
    while !res = -2 do
      let s = Array.unsafe_get t.slots !i in
      if s = 0 then res := -1
      else begin
        let base = (s - 1) * 2 in
        if
          Array.unsafe_get keys base = a
          && Array.unsafe_get keys (base + 1) = b
        then res := s - 1
        else i := (!i + 1) land mask
      end
    done;
    !res

  let find_3 t a b c =
    let keys = t.keys in
    let mask = t.nslots - 1 in
    let i =
      ref
        (mix (a lxor (b * 0x9e3779b97f4a7c1) lxor (c * 0x3c79ac492ba7b65))
        land mask)
    in
    let res = ref (-2) in
    while !res = -2 do
      let s = Array.unsafe_get t.slots !i in
      if s = 0 then res := -1
      else begin
        let base = (s - 1) * 3 in
        if
          Array.unsafe_get keys base = a
          && Array.unsafe_get keys (base + 1) = b
          && Array.unsafe_get keys (base + 2) = c
        then res := s - 1
        else i := (!i + 1) land mask
      end
    done;
    !res

  let find t k =
    match t.width with
    | 2 -> find_2 t (Array.unsafe_get k 0) (Array.unsafe_get k 1)
    | 3 ->
        find_3 t (Array.unsafe_get k 0) (Array.unsafe_get k 1)
          (Array.unsafe_get k 2)
    | _ ->
        let mask = t.nslots - 1 in
        let i = ref (hash_key t k land mask) in
        let res = ref (-2) in
        while !res = -2 do
          let s = Array.unsafe_get t.slots !i in
          if s = 0 then res := -1
          else if key_eq t (s - 1) k then res := s - 1
          else i := (!i + 1) land mask
        done;
        !res

  let place t j =
    let slots = t.slots in
    let mask = t.nslots - 1 in
    let base = j * t.width in
    let h =
      (* hash straight out of the key column *)
      match t.width with
      | 1 -> mix t.keys.(base)
      | 2 -> mix (t.keys.(base) lxor (t.keys.(base + 1) * 0x9e3779b97f4a7c1))
      | 3 ->
          mix
            (t.keys.(base)
            lxor (t.keys.(base + 1) * 0x9e3779b97f4a7c1)
            lxor (t.keys.(base + 2) * 0x3c79ac492ba7b65))
      | w ->
          let h = ref t.keys.(base) in
          for i = 1 to w - 1 do
            h := mix (!h lxor t.keys.(base + i))
          done;
          mix !h
    in
    let i = ref (h land mask) in
    while Array.unsafe_get slots !i <> 0 do
      i := (!i + 1) land mask
    done;
    slots.(!i) <- j + 1

  (* Double the probe array: zero the prefix it now spans (allocating
     only when the kept array is too short) and re-place every entry
     from the dense key column, in index order — the probe layout a
     fresh table reaches. *)
  let grow_slots t =
    let ns = 2 * t.nslots in
    if Array.length t.slots < ns then t.slots <- Array.make ns 0
    else Array.fill t.slots 0 ns 0;
    t.nslots <- ns;
    for j = 0 to t.n - 1 do
      place t j
    done

  let grow_dense t =
    let c = 2 * t.cap in
    if Array.length t.keys < t.width * c then begin
      let keys = Array.make (t.width * c) 0 in
      Array.blit t.keys 0 keys 0 (t.width * t.n);
      t.keys <- keys
    end;
    if Array.length t.v < c then begin
      let v = Array.make c 0 in
      Array.blit t.v 0 v 0 t.n;
      t.v <- v
    end;
    t.cap <- c

  let add t k value =
    if 4 * (t.n + 1) > 3 * t.nslots then grow_slots t;
    if t.n = t.cap then grow_dense t;
    let j = t.n in
    (* scalar stores for the dominant widths: [Array.blit] is a C call
       and [add] runs once per unique state *)
    (match t.width with
    | 2 ->
        let base = j * 2 in
        t.keys.(base) <- Array.unsafe_get k 0;
        t.keys.(base + 1) <- Array.unsafe_get k 1
    | 3 ->
        let base = j * 3 in
        t.keys.(base) <- Array.unsafe_get k 0;
        t.keys.(base + 1) <- Array.unsafe_get k 1;
        t.keys.(base + 2) <- Array.unsafe_get k 2
    | w -> Array.blit k 0 t.keys (j * w) w);
    t.v.(j) <- value;
    place t j;
    t.n <- j + 1;
    j

  let read_key t j (buf : int array) =
    match t.width with
    | 2 ->
        let base = j * 2 in
        buf.(0) <- Array.unsafe_get t.keys base;
        buf.(1) <- Array.unsafe_get t.keys (base + 1)
    | 3 ->
        let base = j * 3 in
        buf.(0) <- Array.unsafe_get t.keys base;
        buf.(1) <- Array.unsafe_get t.keys (base + 1);
        buf.(2) <- Array.unsafe_get t.keys (base + 2)
    | w -> Array.blit t.keys (j * w) buf 0 w

  let key t j i = t.keys.((j * t.width) + i)

  let value t j = Array.unsafe_get t.v j

  let set_value t j x = Array.unsafe_set t.v j x

  let words t = t.nslots + (t.width * t.cap) + t.cap

  let load t = float_of_int t.n /. float_of_int t.nslots

  let capacity t = t.cap

  (* dense columns double from the creation-time capacity, so the
     growth count is the exponent gap — what the table-resize metric
     reports *)
  let resizes t =
    let r = ref 0 and c = ref t.base_cap in
    while !c < t.cap do
      incr r;
      c := 2 * !c
    done;
    !r

  (* Empty the table for a new search of [width]-int keys, keeping its
     arrays: only the probe prefix a fresh table spans is zeroed (the
     dense columns are never read past [n]), and only a key column too
     short for the creation-time capacity at the new width is
     replaced. *)
  let recycle t ~width =
    check_width "recycle" width;
    t.width <- width;
    t.nslots <- 2 * t.base_cap;
    Array.fill t.slots 0 t.nslots 0;
    if Array.length t.keys < width * t.base_cap then
      t.keys <- Array.make (width * t.base_cap) 0;
    t.cap <- t.base_cap;
    t.n <- 0
end

(* Hash-partitioned collection of {!Flat} tables for multicore
   searches.

   Ownership model: the owner shard of a key is a pure function of the
   key ({!Sharded.owner}), taken from the *top* bits of the same
   splitmix hash whose low bits drive the probe sequence inside a
   shard — partitioning by low bits would leave every shard probing a
   sublattice of its slot array and lengthen linear-probe runs.

   Access is owner-routed: each domain of the parallel engine touches
   only [shard t k] for its own [k], with cross-domain hand-off through
   message buffers and barriers, so no shard needs a lock.  Handles
   pack (dense index, shard) into one int. *)
module Sharded = struct
  type t = {
    width : int;
    bits : int;  (* log2 of the shard count *)
    tables : Flat.t array;
  }

  let max_bits = 12

  let create ?(shards = 1) ~width () =
    if width < 1 then invalid_arg "State_table.Sharded.create: width >= 1";
    if shards < 1 || shards > 1 lsl max_bits then
      invalid_arg "State_table.Sharded.create: 1 <= shards <= 4096";
    (* round up to a power of two so owner routing is a mask *)
    let bits = ref 0 in
    while 1 lsl !bits < shards do
      incr bits
    done;
    let n = 1 lsl !bits in
    (* aggregate baseline ~= one sequential table: each shard starts at
       1/n of the default capacity (floored at Flat's 64 minimum) *)
    let capacity = max 64 (initial_cap / n) in
    {
      width;
      bits = !bits;
      tables = Array.init n (fun _ -> Flat.create ~capacity ~width ());
    }

  let shards t = Array.length t.tables

  let[@inline] owner t (k : int array) =
    (hash_width t.width k lsr (62 - max_bits)) land (Array.length t.tables - 1)

  let shard t i = t.tables.(i)

  (* spill compaction: the owner rebuilds a shard around its surviving
     frontier and swaps the new table in.  Owner-only, between
     barriers, like [shard]. *)
  let replace_shard t i f =
    if Flat.width f <> t.width then
      invalid_arg "State_table.Sharded.replace_shard: width mismatch";
    t.tables.(i) <- f

  let words t = Array.fold_left (fun acc f -> acc + Flat.words f) 0 t.tables

  (* -- packed handles: (dense index lsl bits) lor shard ------------- *)

  let[@inline] handle t ~shard idx = (idx lsl t.bits) lor shard

  let[@inline] shard_of_handle t h = h land (Array.length t.tables - 1)

  let[@inline] index_of_handle t h = h lsr t.bits
end
