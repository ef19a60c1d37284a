(* Multicore primitives shared by the parallel engine: a reusable
   sense-style barrier and growable flat buffers.

   The parallel engine is bulk-synchronous: domains alternate between
   a private work phase and a barrier, and every cross-domain read
   targets data written at least one barrier earlier.  These
   primitives are deliberately dumb — all cleverness (ownership,
   phase-stable snapshots, deterministic integration order) lives in
   the engine where it can be argued about in one place. *)

module Barrier = struct
  type t = {
    m : Mutex.t;
    c : Condition.t;
    parties : int;
    mutable arrived : int;
    mutable epoch : int;
  }

  let create parties =
    if parties < 1 then invalid_arg "Par.Barrier.create: parties >= 1";
    {
      m = Mutex.create ();
      c = Condition.create ();
      parties;
      arrived = 0;
      epoch = 0;
    }

  (* The epoch counter (not a flipped sense flag) distinguishes
     consecutive barrier generations: a domain woken spuriously keeps
     waiting until the epoch it entered under has passed. *)
  let await t =
    if t.parties > 1 then begin
      Mutex.lock t.m;
      let epoch = t.epoch in
      t.arrived <- t.arrived + 1;
      if t.arrived = t.parties then begin
        t.arrived <- 0;
        t.epoch <- t.epoch + 1;
        Condition.broadcast t.c
      end
      else
        while t.epoch = epoch do
          Condition.wait t.c t.m
        done;
      Mutex.unlock t.m
    end
end

module Ibuf = struct
  type t = { mutable a : int array; mutable len : int }

  let create () = { a = [||]; len = 0 }

  let length b = b.len

  let is_empty b = b.len = 0

  let push b x =
    let cap = Array.length b.a in
    if b.len = cap then begin
      let a = Array.make (max 64 (2 * cap)) 0 in
      Array.blit b.a 0 a 0 cap;
      b.a <- a
    end;
    Array.unsafe_set b.a b.len x;
    b.len <- b.len + 1

  let get b i = Array.unsafe_get b.a i

  let set b i x = Array.unsafe_set b.a i x

  let clear b = b.len <- 0

  let truncate b n = if n < b.len then b.len <- n

  let words b = Array.length b.a

  let swap x y =
    let a = x.a and len = x.len in
    x.a <- y.a;
    x.len <- y.len;
    y.a <- a;
    y.len <- len
end
