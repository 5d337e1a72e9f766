(* Domain-based work pool (OCaml >= 5).

   Every worker domain drains one FIFO job queue: it parks on the
   condition variable while the queue is empty and the pool open, and
   exits once the pool is shut down and the queue is empty.  [shutdown]
   closes the queue, drains it on the caller too, and joins the workers.

   Memory model: a job sees everything the caller wrote before submitting
   it (the queue's mutex orders the two); a job's own writes are visible
   to the caller once [shutdown] returns ([Domain.join] orders them). *)

type t = {
  mutable workers : int;  (** spawned domains; parallelism is workers+1 *)
  m : Mutex.t;
  cv : Condition.t;  (** signalled on submission and on shutdown *)
  q : (unit -> unit) Queue.t;
  mutable closed : bool;
  mutable domains : unit Domain.t list;
}

let backend = "domains"
let default_jobs () = Domain.recommended_domain_count ()

(* Run queued jobs until the pool is closed and the queue empty.  Jobs
   trap their own exceptions; the handler is a backstop so a worker can
   never die and leave jobs unrun. *)
let drain t =
  let continue = ref true in
  while !continue do
    Mutex.lock t.m;
    while (not t.closed) && Queue.is_empty t.q do
      Condition.wait t.cv t.m
    done;
    match Queue.take_opt t.q with
    | Some job ->
        Mutex.unlock t.m;
        (try job () with _ -> ())
    | None ->
        Mutex.unlock t.m;
        continue := false
  done

let create ~jobs =
  let t =
    {
      workers = 0;
      m = Mutex.create ();
      cv = Condition.create ();
      q = Queue.create ();
      closed = false;
      domains = [];
    }
  in
  (* The runtime caps the number of live domains; past the cap
     [Domain.spawn] fails, and the pool runs with the workers it got.  No
     result depends on the pool's width. *)
  (try
     for _ = 2 to jobs do
       t.domains <- Domain.spawn (fun () -> drain t) :: t.domains;
       t.workers <- t.workers + 1
     done
   with Failure _ -> ());
  t

let jobs t = t.workers + 1

let submit t job =
  Mutex.lock t.m;
  if t.closed then begin
    Mutex.unlock t.m;
    invalid_arg "Pool.submit: the pool is shut down"
  end;
  Queue.add job t.q;
  Condition.signal t.cv;
  Mutex.unlock t.m

let shutdown t =
  Mutex.lock t.m;
  t.closed <- true;
  Condition.broadcast t.cv;
  Mutex.unlock t.m;
  drain t;
  List.iter Domain.join t.domains;
  t.domains <- []

(* Domain-local storage: each domain (the caller and every worker) gets its
   own instance, created on first access.  Memo tables stored this way are
   filled independently per domain, so no locking is needed and — provided
   the memoized function is deterministic — every domain computes the same
   values. *)
module Dls = struct
  type 'a key = 'a Domain.DLS.key

  let new_key f = Domain.DLS.new_key f
  let get k = Domain.DLS.get k
end
