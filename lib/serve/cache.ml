(* Classic Hashtbl + doubly-linked recency list: O(1) find / add /
   remove / evict.  The list head is most recent, the tail the
   eviction candidate. *)

type 'a node = {
  key : string;
  mutable value : 'a;
  mutable prev : 'a node option;
  mutable next : 'a node option;
}

type 'a t = {
  mutex : Mutex.t;
  table : (string, 'a node) Hashtbl.t;
  capacity : int;
  mutable head : 'a node option;
  mutable tail : 'a node option;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Cache.create: capacity >= 1";
  {
    mutex = Mutex.create ();
    table = Hashtbl.create (2 * capacity);
    capacity;
    head = None;
    tail = None;
  }

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.head <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let find t key =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.table key with
  | Some node ->
      unlink t node;
      push_front t node;
      Some node.value
  | None -> None

let add t key value =
  locked t @@ fun () ->
  (match Hashtbl.find_opt t.table key with
  | Some node ->
      node.value <- value;
      unlink t node;
      push_front t node
  | None ->
      let node = { key; value; prev = None; next = None } in
      Hashtbl.replace t.table key node;
      push_front t node);
  if Hashtbl.length t.table > t.capacity then
    match t.tail with
    | Some lru ->
        unlink t lru;
        Hashtbl.remove t.table lru.key
    | None -> ()

let remove t key =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.table key with
  | Some node ->
      unlink t node;
      Hashtbl.remove t.table key
  | None -> ()

let length t = locked t @@ fun () -> Hashtbl.length t.table
