type batch = {
  tasks : (unit -> unit) array;
  next : int Atomic.t;  (* next unclaimed task index *)
  completed : int Atomic.t;
  id : int;  (* distinguishes successive batches for idle workers *)
}

type t = {
  jobs : int;
  mutex : Mutex.t;
  work : Condition.t;  (* a batch was published, or the pool closed *)
  finished : Condition.t;  (* the current batch completed *)
  mutable batch : batch option;
  mutable epoch : int;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
}

let jobs t = t.jobs
let default_jobs () = Domain.recommended_domain_count ()

(* Claim tasks until the batch is exhausted; whoever completes the
   last task wakes the owner.  Runs outside the pool mutex. *)
let run_tasks t b =
  let len = Array.length b.tasks in
  let rec pull () =
    let i = Atomic.fetch_and_add b.next 1 in
    if i < len then begin
      b.tasks.(i) ();
      let c = 1 + Atomic.fetch_and_add b.completed 1 in
      if c = len then begin
        Mutex.lock t.mutex;
        Condition.broadcast t.finished;
        Mutex.unlock t.mutex
      end;
      pull ()
    end
  in
  pull ()

let worker_loop t =
  let last_seen = ref 0 in
  let rec loop () =
    Mutex.lock t.mutex;
    let rec await () =
      match t.batch with
      | Some b when b.id <> !last_seen -> Some b
      | _ -> if t.closed then None else (Condition.wait t.work t.mutex; await ())
    in
    match await () with
    | None -> Mutex.unlock t.mutex
    | Some b ->
      Mutex.unlock t.mutex;
      last_seen := b.id;
      run_tasks t b;
      loop ()
  in
  loop ()

(* more workers than the runtime has cores only contend for them: on
   a 2-core box, [check fig3-chain -n 3 --max-failures 2] took 599 ms
   at 8 workers against 218 ms at 2 *)
let create ~jobs =
  let jobs = max 1 (min jobs (default_jobs ())) in
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      batch = None;
      epoch = 0;
      closed = false;
      workers = [];
    }
  in
  (* Empty the minor heap before spawning.  Measured, not explained:
     in a process that creates and joins a two-worker pool per
     operation, the major heap grew by about 64 KB per pool unless the
     minor heap was empty at the spawn (emptying it after the join did
     not help); see EXPERIMENTS.md, "across roots". *)
  if jobs > 1 then Gc.minor ();
  (* the calling domain is worker number [jobs]; spawn the rest *)
  t.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.closed <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  let ws = t.workers in
  t.workers <- [];
  List.iter Domain.join ws

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let map t f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ when t.jobs = 1 -> List.map f xs
  | _ ->
    let input = Array.of_list xs in
    let len = Array.length input in
    let results = Array.make len None in
    let errors = Array.make len None in
    let tasks =
      Array.init len (fun i () ->
          match f input.(i) with
          | r -> results.(i) <- Some r
          | exception e -> errors.(i) <- Some (e, Printexc.get_raw_backtrace ()))
    in
    let b =
      { tasks; next = Atomic.make 0; completed = Atomic.make 0; id = t.epoch + 1 }
    in
    Mutex.lock t.mutex;
    if t.closed then begin
      Mutex.unlock t.mutex;
      invalid_arg "Domain_pool.map: pool is shut down"
    end;
    t.epoch <- b.id;
    t.batch <- Some b;
    Condition.broadcast t.work;
    Mutex.unlock t.mutex;
    (* the owner is a worker too *)
    run_tasks t b;
    Mutex.lock t.mutex;
    while Atomic.get b.completed < len do
      Condition.wait t.finished t.mutex
    done;
    t.batch <- None;
    Mutex.unlock t.mutex;
    (* deterministic error propagation: first failing index wins, with
       the worker's backtrace reattached *)
    Array.iter
      (function Some (e, bt) -> Printexc.raise_with_backtrace e bt | None -> ())
      errors;
    Array.to_list (Array.map Option.get results)

let fold t ~f ~merge ~init xs = List.fold_left merge init (map t f xs)
