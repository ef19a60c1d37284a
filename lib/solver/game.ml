module type S = sig
  type inst

  val name : string

  type move

  val width : inst -> int

  val write_init : inst -> int array -> unit

  val is_goal : inst -> int array -> bool

  val residual_lb : inst -> int array -> int

  val incumbent : inst -> (int * move list) option

  val expand : inst -> int array -> scratch:int array ->
    emit:(int -> int -> unit) -> unit

  val decode : inst -> int -> move
end
