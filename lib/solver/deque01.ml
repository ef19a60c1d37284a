(* Double-ended queue for 0-1 BFS: 0-cost relaxations go to the front,
   1-cost ones to the back.

   Growable circular buffer over a flat int array (power-of-two
   capacity): no per-push cons cell, no boxed element and no List.rev
   spike when the direction flips, unlike the earlier two-list
   implementation.  [pop_front] returns -1 on empty rather than an
   option, so the engine's pop loop allocates nothing.

   [recycle] keeps the buffer across searches.  The memory estimate
   must not depend on what an earlier search left behind, so [lcap]
   tracks the capacity a fresh deque would have reached (0, then 16,
   doubling) and [words] reports that; the physical buffer only ever
   grows past it. *)

type t = {
  mutable buf : int array;
  mutable head : int;
  mutable len : int;
  mutable lcap : int;
}

let create () = { buf = [||]; head = 0; len = 0; lcap = 0 }

let is_empty d = d.len = 0

let length d = d.len

let grow d =
  let cap = Array.length d.buf in
  let b = Array.make (max 16 (2 * cap)) 0 in
  let first = min d.len (cap - d.head) in
  Array.blit d.buf d.head b 0 first;
  Array.blit d.buf 0 b first (d.len - first);
  d.buf <- b;
  d.head <- 0

let[@inline] reserve d =
  if d.len = d.lcap then d.lcap <- max 16 (2 * d.lcap);
  if d.len = Array.length d.buf then grow d

let push_front d x =
  reserve d;
  let mask = Array.length d.buf - 1 in
  d.head <- (d.head - 1) land mask;
  Array.unsafe_set d.buf d.head x;
  d.len <- d.len + 1

let push_back d x =
  reserve d;
  let mask = Array.length d.buf - 1 in
  Array.unsafe_set d.buf ((d.head + d.len) land mask) x;
  d.len <- d.len + 1

let pop_front d =
  if d.len = 0 then -1
  else begin
    let x = Array.unsafe_get d.buf d.head in
    d.head <- (d.head + 1) land (Array.length d.buf - 1);
    d.len <- d.len - 1;
    x
  end

let iter f d =
  let mask = Array.length d.buf - 1 in
  for i = 0 to d.len - 1 do
    f (Array.unsafe_get d.buf ((d.head + i) land mask))
  done

let words d = d.lcap

let recycle d =
  d.head <- 0;
  d.len <- 0;
  d.lcap <- 0

let clear d =
  d.buf <- [||];
  recycle d
