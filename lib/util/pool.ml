let default_jobs () = Domain.recommended_domain_count ()

(* Shared task queue. All tasks (indices into the input array) are
   enqueued and the queue closed before workers start; the condition
   variable lets workers sleep in the (here: impossible-by-construction,
   but cheap to handle) window where the queue is empty but not closed,
   and wakes everyone on failure so the pool drains promptly. *)
type state = {
  mutex : Mutex.t;
  nonempty : Condition.t;
  tasks : int Queue.t;
  mutable closed : bool;
  mutable error : (exn * Printexc.raw_backtrace) option;
}

let take st =
  Mutex.lock st.mutex;
  let rec next () =
    if st.error <> None then None
    else if not (Queue.is_empty st.tasks) then Some (Queue.pop st.tasks)
    else if st.closed then None
    else begin
      Condition.wait st.nonempty st.mutex;
      next ()
    end
  in
  let r = next () in
  Mutex.unlock st.mutex;
  r

let fail st exn bt =
  Mutex.lock st.mutex;
  if st.error = None then st.error <- Some (exn, bt);
  Queue.clear st.tasks;
  Condition.broadcast st.nonempty;
  Mutex.unlock st.mutex

module Service = struct
  (* A long-lived variant of the same queue discipline: worker domains
     are spawned once and keep pulling thunks until [shutdown]. Unlike
     [parallel_map], jobs are fire-and-forget — a job communicates its
     result through its own closure (the server stores it under a mutex
     and broadcasts a condvar), so the service needs no result array. *)
  type t = {
    mutex : Mutex.t;
    nonempty : Condition.t;
    jobs : (unit -> unit) Queue.t;
    mutable stopped : bool;
    mutable workers : unit Domain.t array;
    mutable dropped : int;
    on_drop : (exn -> unit) option;
  }

  let worker t =
    let rec loop () =
      Mutex.lock t.mutex;
      let rec next () =
        if not (Queue.is_empty t.jobs) then Some (Queue.pop t.jobs)
        else if t.stopped then None
        else begin
          Condition.wait t.nonempty t.mutex;
          next ()
        end
      in
      let job = next () in
      Mutex.unlock t.mutex;
      match job with
      | None -> ()
      | Some f ->
          (* A job that raises must not kill the worker: jobs are expected
             to catch their own errors (the server turns them into error
             frames). Anything that still escapes is counted, and the
             owner's [on_drop] hook is told — except fatal runtime
             exhaustion, which must propagate (the domain dies and
             [shutdown]'s join re-raises it) rather than be retried into
             a crash loop. *)
          (match f () with
          | () -> ()
          | exception ((Out_of_memory | Stack_overflow) as fatal) -> raise fatal
          | exception e ->
              Mutex.lock t.mutex;
              t.dropped <- t.dropped + 1;
              Mutex.unlock t.mutex;
              (match t.on_drop with
              | None -> ()
              | Some g -> (
                  (* The hook must not raise; fatal exhaustion inside it
                     still propagates. *)
                  try g e
                  with
                  | (Out_of_memory | Stack_overflow) as fatal -> raise fatal
                  | _ -> ())));
          loop ()
    in
    loop ()

  let create ?workers:(n = default_jobs ()) ?on_drop () =
    if n < 1 then invalid_arg "Pool.Service.create: workers";
    let t =
      {
        mutex = Mutex.create ();
        nonempty = Condition.create ();
        jobs = Queue.create ();
        stopped = false;
        workers = [||];
        dropped = 0;
        on_drop;
      }
    in
    t.workers <- Array.init n (fun _ -> Domain.spawn (fun () -> worker t));
    t

  let dropped t =
    Mutex.lock t.mutex;
    let n = t.dropped in
    Mutex.unlock t.mutex;
    n

  let workers t = Array.length t.workers

  let submit t f =
    Mutex.lock t.mutex;
    if t.stopped then begin
      Mutex.unlock t.mutex;
      invalid_arg "Pool.Service.submit: service is shut down"
    end;
    Queue.push f t.jobs;
    Condition.signal t.nonempty;
    Mutex.unlock t.mutex

  let queue_depth t =
    Mutex.lock t.mutex;
    let n = Queue.length t.jobs in
    Mutex.unlock t.mutex;
    n

  let shutdown t =
    Mutex.lock t.mutex;
    let was_stopped = t.stopped in
    t.stopped <- true;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.mutex;
    if not was_stopped then Array.iter Domain.join t.workers
end

let parallel_map ?jobs f a =
  let n = Array.length a in
  let jobs =
    match jobs with
    | None -> default_jobs ()
    | Some j -> if j < 1 then invalid_arg "Pool.parallel_map: jobs" else j
  in
  let jobs = min jobs n in
  if jobs <= 1 then Array.map f a
  else begin
    let st =
      {
        mutex = Mutex.create ();
        nonempty = Condition.create ();
        tasks = Queue.create ();
        closed = false;
        error = None;
      }
    in
    (* Each worker returns the (index, value) pairs it computed; every
       index is popped by exactly one worker, so on success the pairs,
       sorted by index, are the results. *)
    let rec worker acc =
      match take st with
      | None -> acc
      | Some i -> (
          match f a.(i) with
          | v -> worker ((i, v) :: acc)
          | exception exn ->
              fail st exn (Printexc.get_raw_backtrace ());
              acc)
    in
    Mutex.lock st.mutex;
    for i = 0 to n - 1 do
      Queue.push i st.tasks
    done;
    st.closed <- true;
    Mutex.unlock st.mutex;
    let domains = Array.init jobs (fun _ -> Domain.spawn (fun () -> worker [])) in
    let parts = Array.map Domain.join domains in
    match st.error with
    | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
    | None ->
        let results = Array.of_list (List.concat (Array.to_list parts)) in
        Array.sort (fun (i, _) (j, _) -> Int.compare i j) results;
        Array.map snd results
  end
