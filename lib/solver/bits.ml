(* Bit-twiddling shared by the exact solvers.  These run in the
   innermost loops of the state search, so no allocation and no
   recursion. *)

(* SWAR popcount on OCaml's 63-bit ints: the classic parallel bit
   count; the 64th (sign) bit is never set in our masks. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x5555555555555555) in
  let x =
    (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333)
  in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f0f0f0f0f in
  (x * 0x0101010101010101) lsr 56

(* Index of the lowest set bit by binary descent on the isolated bit:
   six well-predicted tests, no division, no recursion.  Undefined on
   [0]. *)
let lowest_set_index x =
  let b = x land -x in
  let i = if b land 0xffffffff = 0 then 32 else 0 in
  let b = b lsr i in
  let j = if b land 0xffff = 0 then 16 else 0 in
  let b = b lsr j in
  let k = if b land 0xff = 0 then 8 else 0 in
  let b = b lsr k in
  let l = if b land 0xf = 0 then 4 else 0 in
  let b = b lsr l in
  let m = if b land 0x3 = 0 then 2 else 0 in
  let b = b lsr m in
  i + j + k + l + m + (1 - (b land 1))
