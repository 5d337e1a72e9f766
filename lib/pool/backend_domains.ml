(* Domain-based work pool (OCaml >= 5).

   Workers park on a condition variable until a streaming session starts:
   [Stream.start] installs one draining task and broadcasts it to every
   worker domain (a new epoch), and [Stream.finish] waits for every worker
   to leave it.  A pool thereby amortizes domain spawn cost across every
   session it serves.

   Memory model: everything the caller wrote before [Stream.start] is
   visible to workers via the broadcast under the pool mutex; see
   [Stream] for jobs. *)

type t = {
  mutable workers : int;  (** spawned domains; parallelism is workers+1 *)
  m : Mutex.t;
  work_cv : Condition.t;
  done_cv : Condition.t;
  mutable task : (unit -> unit) option;
  mutable epoch : int;  (** bumped once per session *)
  mutable running : int;  (** workers still inside the current session *)
  mutable quit : bool;
  mutable domains : unit Domain.t list;
}

let backend = "domains"
let default_jobs () = Domain.recommended_domain_count ()

exception Stream_finished

let worker_loop t =
  let my_epoch = ref 0 in
  let continue = ref true in
  while !continue do
    Mutex.lock t.m;
    while (not t.quit) && t.epoch = !my_epoch do
      Condition.wait t.work_cv t.m
    done;
    if t.quit then begin
      Mutex.unlock t.m;
      continue := false
    end
    else begin
      my_epoch := t.epoch;
      let task = match t.task with Some f -> f | None -> ignore in
      Mutex.unlock t.m;
      (* Tasks trap their own exceptions; this is a backstop so a worker
         can never die and deadlock the pool. *)
      (try task () with _ -> ());
      Mutex.lock t.m;
      t.running <- t.running - 1;
      if t.running = 0 then Condition.broadcast t.done_cv;
      Mutex.unlock t.m
    end
  done

let create ~jobs =
  let t =
    {
      workers = 0;
      m = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      task = None;
      epoch = 0;
      running = 0;
      quit = false;
      domains = [];
    }
  in
  (* The runtime caps the number of live domains; past the cap
     [Domain.spawn] fails, and the pool runs with the workers it got.  No
     result depends on the pool's width. *)
  (try
     for _ = 2 to jobs do
       t.domains <- Domain.spawn (fun () -> worker_loop t) :: t.domains;
       t.workers <- t.workers + 1
     done
   with Failure _ -> ());
  t

let jobs t = t.workers + 1

let shutdown t =
  Mutex.lock t.m;
  t.quit <- true;
  Condition.broadcast t.work_cv;
  Mutex.unlock t.m;
  List.iter Domain.join t.domains;
  t.domains <- []

(* Streaming work sessions: one long-lived draining task per worker.  The
   caller submits jobs at any time; [finish] closes the queue, helps run
   what is left and waits for every worker to leave the session.

   Memory model: a job sees everything the caller wrote before submitting
   it (the queue's mutex orders the two); a job's own writes are visible
   to the caller once [finish] returns (the workers' exits are published
   under the pool mutex). *)
module Stream = struct
  type session = {
    st : t;
    sm : Mutex.t;
    cv : Condition.t;  (** signalled on submission and on close *)
    jobs_q : (unit -> unit) Queue.t;
    mutable closed : bool;
  }

  (* Jobs are expected to trap their own exceptions; the backstop mirrors
     [worker_loop]'s. *)
  let run_one job = try job () with _ -> ()

  let start t =
    let s =
      {
        st = t;
        sm = Mutex.create ();
        cv = Condition.create ();
        jobs_q = Queue.create ();
        closed = false;
      }
    in
    if t.workers > 0 then begin
      let drain () =
        let continue = ref true in
        while !continue do
          Mutex.lock s.sm;
          while (not s.closed) && Queue.is_empty s.jobs_q do
            Condition.wait s.cv s.sm
          done;
          match Queue.take_opt s.jobs_q with
          | Some job ->
              Mutex.unlock s.sm;
              run_one job
          | None ->
              (* closed and drained *)
              Mutex.unlock s.sm;
              continue := false
        done
      in
      (* Install the drain as the pool's task via the epoch broadcast; the
         pool must not start a second session until [finish]. *)
      Mutex.lock t.m;
      t.task <- Some drain;
      t.epoch <- t.epoch + 1;
      t.running <- t.workers;
      Condition.broadcast t.work_cv;
      Mutex.unlock t.m
    end;
    s

  let submit s job =
    Mutex.lock s.sm;
    if s.closed then begin
      Mutex.unlock s.sm;
      raise Stream_finished
    end;
    Queue.add job s.jobs_q;
    Condition.broadcast s.cv;
    Mutex.unlock s.sm

  let help s =
    Mutex.lock s.sm;
    match Queue.take_opt s.jobs_q with
    | None ->
        Mutex.unlock s.sm;
        false
    | Some job ->
        Mutex.unlock s.sm;
        run_one job;
        true

  let finish s =
    Mutex.lock s.sm;
    s.closed <- true;
    Condition.broadcast s.cv;
    Mutex.unlock s.sm;
    (* Help drain whatever is still queued, then wait for the workers'
       drain loops to exit so the pool is free for the next session. *)
    while help s do () done;
    if s.st.workers > 0 then begin
      Mutex.lock s.st.m;
      while s.st.running > 0 do
        Condition.wait s.st.done_cv s.st.m
      done;
      s.st.task <- None;
      Mutex.unlock s.st.m
    end
end

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
