open Patterns_sim
open Patterns_protocols

type verdict = (unit, string) result

let proc_count trace =
  List.fold_left (fun acc e -> max acc (Trace.proc_of e + 1)) 0 trace

(* Every checker below reports the first [Error] of a scan over the
   trace or over the processors, in position order. *)
let rec first_error xs check =
  match xs with
  | [] -> Ok ()
  | x :: rest -> ( match check x with Ok () -> first_error rest check | e -> e)

let total_consistency trace =
  let first = ref None in
  first_error trace (function
    | Trace.Decided { proc; decision; step } -> (
      match !first with
      | None ->
        first := Some (proc, decision);
        Ok ()
      | Some (p0, d0) ->
        if Decision.equal d0 decision then Ok ()
        else
          Error
            (Format.asprintf
               "total consistency violated: %a decided %a but %a decided %a (step %d)" Proc_id.pp
               p0 Decision.pp d0 Proc_id.pp proc Decision.pp decision step))
    | _ -> Ok ())

let interactive_consistency trace =
  let n = proc_count trace in
  let decisions = Array.make (max n 1) None in
  let failed = Array.make (max n 1) false in
  let check step =
    let conflict = ref (Ok ()) in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        match (decisions.(i), decisions.(j)) with
        | Some di, Some dj when (not failed.(i)) && (not failed.(j)) && not (Decision.equal di dj)
          ->
          conflict :=
            Error
              (Format.asprintf
                 "interactive consistency violated at step %d: operational %a in %a vs %a in %a"
                 step Proc_id.pp i Decision.pp di Proc_id.pp j Decision.pp dj)
        | _ -> ()
      done
    done;
    !conflict
  in
  first_error trace (fun e ->
      (match e with
      | Trace.Decided { proc; decision; _ } -> decisions.(proc) <- Some decision
      | Trace.Became_amnesic { proc; _ } -> decisions.(proc) <- None
      | Trace.Failed_proc { proc; _ } -> failed.(proc) <- true
      | Trace.Sent _ | Trace.Null_step _ | Trace.Delivered_msg _ | Trace.Delivered_note _
      | Trace.Dropped_msg _ | Trace.Halted _ -> ());
      check (Trace.step_of e))

let nonfaulty_agreement trace =
  let failed = Trace.failures trace in
  match List.filter (fun (p, _) -> not (List.mem p failed)) (Trace.decisions trace) with
  | [] -> Ok ()
  | (p0, d0) :: rest ->
    first_error rest (fun (p, d) ->
        if Decision.equal d d0 then Ok ()
        else
          Error
            (Format.asprintf "nonfaulty processors disagree: %a decided %a but %a decided %a"
               Proc_id.pp p0 Decision.pp d0 Proc_id.pp p Decision.pp d))

let decision_rule rule ~inputs trace =
  let inputs = Array.of_list inputs in
  let failure_occurred = ref false in
  first_error trace (function
    | Trace.Failed_proc _ ->
      failure_occurred := true;
      Ok ()
    | Trace.Decided { proc; decision; step } ->
      if Decision_rule.permits rule ~inputs ~failure_occurred:!failure_occurred decision then
        Ok ()
      else
        Error
          (Format.asprintf "decision rule %a forbids %a's %a at step %d" Decision_rule.pp rule
             Proc_id.pp proc Decision.pp decision step)
    | _ -> Ok ())

let validity rule ~inputs trace =
  if Trace.failures trace <> [] then
    Error "validity check applies to failure-free runs only"
  else begin
    let expected = Decision_rule.natural_decision rule (Array.of_list inputs) in
    first_error (Trace.decisions trace) (fun (p, d) ->
        if Decision.equal d expected then Ok ()
        else
          Error
            (Format.asprintf
               "validity violated: failure-free run should decide %a but %a decided %a"
               Decision.pp expected Proc_id.pp p Decision.pp d))
  end

let ever_decided ~n trace =
  let first = Array.make n None in
  List.iter
    (function
      | Trace.Decided { proc; decision; _ } ->
        if first.(proc) = None then first.(proc) <- Some decision
      | _ -> ())
    trace;
  first

let for_each_nonfaulty ~failed f =
  first_error (List.init (Array.length failed) Fun.id) (fun p -> if failed.(p) then Ok () else f p)

let weak_termination ~quiescent ~statuses:_ ~ever_decided ~failed =
  if not quiescent then Error "run did not reach quiescence"
  else
    for_each_nonfaulty ~failed (fun p ->
        if ever_decided.(p) = None then
          Error (Format.asprintf "weak termination violated: nonfaulty %a never decided" Proc_id.pp p)
        else Ok ())

let strong_termination ~quiescent ~statuses ~ever_decided ~failed =
  match weak_termination ~quiescent ~statuses ~ever_decided ~failed with
  | Error _ as e -> e
  | Ok () ->
    for_each_nonfaulty ~failed (fun p ->
        let st = statuses.(p) in
        if st.Status.amnesic || st.Status.halted then Ok ()
        else
          Error
            (Format.asprintf "strong termination violated: nonfaulty %a never reached an amnesic state"
               Proc_id.pp p))

let halting_termination ~quiescent ~statuses ~ever_decided ~failed =
  match weak_termination ~quiescent ~statuses ~ever_decided ~failed with
  | Error _ as e -> e
  | Ok () ->
    for_each_nonfaulty ~failed (fun p ->
        if statuses.(p).Status.halted then Ok ()
        else
          Error (Format.asprintf "halting termination violated: nonfaulty %a never halted" Proc_id.pp p))
