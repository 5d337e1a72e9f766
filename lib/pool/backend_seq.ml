(* Sequential fallback backend (OCaml < 5, no domains).

   Same interface as the domains backend; a streaming session is a plain
   FIFO that the caller drains itself. *)

type t = unit

let backend = "sequential"
let default_jobs () = 1
let create ~jobs:_ = ()

(* Effective parallelism — always 1 here, whatever was requested; callers
   use this to decide whether fan-out bookkeeping is worth doing. *)
let jobs () = 1
let shutdown () = ()

exception Stream_finished

(* Streaming sessions on the sequential backend: a plain FIFO the caller
   drains itself.  [wait]'s predicate must be satisfiable from already
   submitted jobs, exactly as on the domains backend. *)
module Stream = struct
  type session = { q : (unit -> unit) Queue.t; mutable closed : bool }

  let start _ = { q = Queue.create (); closed = false }

  let submit s job =
    if s.closed then raise Stream_finished;
    Queue.add job s.q

  let help s =
    match Queue.take_opt s.q with
    | None -> false
    | Some job ->
        (try job () with _ -> ());
        true

  let wait s ready =
    let progress = ref true in
    while (not (ready ())) && !progress do
      progress := help s
    done;
    if not (ready ()) then
      invalid_arg "Pool.Stream.wait: predicate needs jobs never submitted"

  let stolen _ = 0

  let finish s =
    s.closed <- true;
    while help s do () done
end

(* Shared memo table, sequential flavour: one plain hash table, no
   striping needed — there is only ever one domain. *)
module Smemo = struct
  type 'a t = (string, 'a) Hashtbl.t

  let create () = Hashtbl.create 256
  let find t key = Hashtbl.find_opt t key

  let publish t key v =
    let fresh = not (Hashtbl.mem t key) in
    if fresh then Hashtbl.add t key v;
    fresh
end

(* "Domain-local" storage on the sequential backend: there is only one
   domain, so a lazily created single instance has the same semantics. *)
module Dls = struct
  type 'a key = 'a Lazy.t

  let new_key f = lazy (f ())
  let get k = Lazy.force k
end
