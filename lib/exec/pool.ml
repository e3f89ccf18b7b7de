module Tm = Ptrng_telemetry.Registry

let sections_total =
  Tm.Counter.v ~help:"Fork-join sections executed by the domain pool."
    "ptrng_exec_sections_total"

let tasks_total =
  Tm.Counter.v ~help:"Tasks executed by the domain pool (all domains)."
    "ptrng_exec_tasks_total"

let domains_gauge =
  Tm.Gauge.v ~help:"Domain count of the most recent fork-join section."
    "ptrng_exec_domains"

let default_chunk = 8192

let max_domains = 64

(* Cumulative tasks started per worker slot (spawned workers are slots
   0 .. workers-2, the calling domain is the last slot), for the
   runtime profiler's per-domain counter tracks.  Only bumped while
   telemetry is on. *)
let slot_tasks = Array.init max_domains (fun _ -> Atomic.make 0)

let worker_tasks () =
  let hi = ref 0 in
  Array.iteri (fun i c -> if Atomic.get c > 0 then hi := i + 1) slot_tasks;
  Array.init !hi (fun i -> Atomic.get slot_tasks.(i))

let () = Ptrng_telemetry.Runtime_profile.set_pool_source worker_tasks

(* CLI override (repro --domains / bench --domains), set once on the
   main domain before any parallel work starts. *)
let cli_default : int option ref = ref None

let set_default d =
  (match d with
  | Some d when d < 1 -> invalid_arg "Pool.set_default: domains < 1"
  | _ -> ());
  cli_default := d

let env_domains () =
  match Sys.getenv_opt "PTRNG_DOMAINS" with
  | None | Some "" -> None
  | Some v -> (
    match int_of_string_opt (String.trim v) with
    | Some d when d >= 1 -> Some (min d max_domains)
    | Some _ | None -> None)

let available () =
  match !cli_default with
  | Some d -> min d max_domains
  | None -> (
    match env_domains () with
    | Some d -> d
    | None -> max 1 (min max_domains (Domain.recommended_domain_count ())))

(* Worker domains must not fork nested pools: a parallel map inside a
   parallel map would oversubscribe the machine and buys nothing.  The
   flag is domain-local, so independent domains are unaffected. *)
let inside_pool : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let resolve ?domains () =
  if Domain.DLS.get inside_pool then 1
  else
    match domains with
    | Some d when d < 1 -> invalid_arg "Pool: domains < 1"
    | Some d -> min d max_domains
    | None -> available ()

(* ------------------------------------------------------------------ *)
(* Core fork-join runner                                               *)
(* ------------------------------------------------------------------ *)

(* Runs [task 0 .. task (n_tasks-1)] on [min domains n_tasks] domains;
   [task] must only write to disjoint state per index.  A failing task
   aborts the section, and the first exception is re-raised on the
   calling domain with its backtrace, so callers match on what the task
   raised. *)
let run_tasks ~domains ~n_tasks task =
  if n_tasks > 0 then begin
    if !Tm.on then begin
      Tm.Counter.incr sections_total;
      Tm.Counter.add tasks_total n_tasks
    end;
    let workers = max 1 (min domains n_tasks) in
    Tm.Gauge.set domains_gauge (float_of_int workers);
    if workers = 1 then
      for i = 0 to n_tasks - 1 do
        if !Tm.on then ignore (Atomic.fetch_and_add slot_tasks.(0) 1);
        task i
      done
    else begin
      let next = Atomic.make 0 in
      let failure : (exn * Printexc.raw_backtrace) option Atomic.t =
        Atomic.make None
      in
      let worker slot () =
        Domain.DLS.set inside_pool true;
        let rec loop () =
          if Atomic.get failure = None then begin
            let i = Atomic.fetch_and_add next 1 in
            if i < n_tasks then begin
              if !Tm.on then ignore (Atomic.fetch_and_add slot_tasks.(slot) 1);
              (try task i
               with e ->
                 let bt = Printexc.get_raw_backtrace () in
                 ignore (Atomic.compare_and_set failure None (Some (e, bt))));
              loop ()
            end
          end
        in
        loop ()
      in
      let spawned = Array.init (workers - 1) (fun s -> Domain.spawn (worker s)) in
      (* The calling domain is worker number [workers]. *)
      let was_inside = Domain.DLS.get inside_pool in
      worker (workers - 1) ();
      Domain.DLS.set inside_pool was_inside;
      Array.iter Domain.join spawned;
      match Atomic.get failure with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    end
  end

(* ------------------------------------------------------------------ *)
(* Derived combinators                                                 *)
(* ------------------------------------------------------------------ *)

let parallel_mapi ?domains f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let domains = resolve ?domains () in
    let out = Array.make n None in
    run_tasks ~domains ~n_tasks:n (fun i -> out.(i) <- Some (f i xs.(i)));
    Array.map
      (function Some v -> v | None -> assert false (* every task ran *))
      out
  end

let parallel_map ?domains f xs = parallel_mapi ?domains (fun _ x -> f x) xs

let parallel_filter_map ?domains f xs =
  let mapped = parallel_map ?domains f xs in
  let out = ref [] in
  for i = Array.length mapped - 1 downto 0 do
    match mapped.(i) with Some v -> out := v :: !out | None -> ()
  done;
  Array.of_list !out

(* ------------------------------------------------------------------ *)
(* Chunked float generation with deterministic RNG streams             *)
(* ------------------------------------------------------------------ *)

module Rng = Ptrng_prng.Rng

let chunk_count ~chunk n =
  if chunk <= 0 then invalid_arg "Pool: chunk <= 0";
  (n + chunk - 1) / chunk

let parallel_init_floats ?domains ?(chunk = default_chunk) ~rng ~fill n =
  if n < 0 then invalid_arg "Pool.parallel_init_floats: n < 0";
  if n = 0 then [||]
  else begin
    let nchunks = chunk_count ~chunk n in
    (* One root draw, regardless of chunk or domain count: the caller's
       generator advances identically whether or not the pool runs. *)
    let root = Rng.bits64 rng in
    let out = Array.make n 0.0 in
    let domains = resolve ?domains () in
    run_tasks ~domains ~n_tasks:nchunks (fun i ->
        let offset = i * chunk in
        let len = min chunk (n - offset) in
        let child = Rng.child ~root ~index:i () in
        fill child ~offset ~len out);
    out
  end

let parallel_map_streams ?domains ~rng f n =
  if n < 0 then invalid_arg "Pool.parallel_map_streams: n < 0";
  if n = 0 then [||]
  else begin
    let root = Rng.bits64 rng in
    parallel_mapi ?domains
      (fun i () -> f i (Rng.child ~root ~index:i ()))
      (Array.make n ())
  end
