let on = ref false
let enable () = on := true
let disable () = on := false

(* Counters are atomics and histograms carry their own lock, so metric
   updates from worker domains (Ptrng_exec pools) are safe and no
   increment is lost.  Gauges stay plain word-sized stores: concurrent
   [set] is last-write-wins, which is the right semantic for a gauge. *)

type counter_cell = { c_name : string; c_help : string; c_value : int Atomic.t }
type gauge_cell = { g_name : string; g_help : string; mutable g_value : float }

type hist_cell = {
  h_name : string;
  h_help : string;
  h_hist : Histogram.t;
  h_mu : Mutex.t;
}

type cell =
  | C of counter_cell
  | G of gauge_cell
  | H of hist_cell

(* Registration order is preserved for the sinks; the table only
   guarantees one cell per name. *)
let table : (string, cell) Hashtbl.t = Hashtbl.create 64
let order : cell list ref = ref []
let table_mu = Mutex.create ()

let register name cell =
  Mutex.protect table_mu (fun () ->
      match Hashtbl.find_opt table name with
      | Some existing -> existing
      | None ->
        Hashtbl.add table name cell;
        order := cell :: !order;
        cell)

let reset () =
  List.iter
    (function
      | C c -> Atomic.set c.c_value 0
      | G g -> g.g_value <- 0.0
      | H h -> Mutex.protect h.h_mu (fun () -> Histogram.reset h.h_hist))
    !order

let clear () =
  Mutex.protect table_mu (fun () ->
      Hashtbl.reset table;
      order := [])

module Counter = struct
  type t = counter_cell

  let v ?(help = "") name =
    match register name (C { c_name = name; c_help = help; c_value = Atomic.make 0 }) with
    | C c -> c
    | _ -> invalid_arg (Printf.sprintf "Registry: %s is not a counter" name)

  (* [add] is the hot-path spelling: no option to build at the call
     site.  [incr ?by] keeps no default value, because a default
     optional argument splits the currying chain — [fun ?by ->
     let by = ... in fun c -> ...] — and the inner lambda is a fresh
     closure on every call (R7 found exactly that here). *)
  let add c n =
    if n < 0 then invalid_arg "Counter.add: negative increment";
    if !on then ignore (Atomic.fetch_and_add c.c_value n)

  let incr ?by c = add c (match by with None -> 1 | Some n -> n)

  let value c = Atomic.get c.c_value
end

module Gauge = struct
  type t = gauge_cell

  let v ?(help = "") name =
    match register name (G { g_name = name; g_help = help; g_value = 0.0 }) with
    | G g -> g
    | _ -> invalid_arg (Printf.sprintf "Registry: %s is not a gauge" name)

  let set g value = if !on then g.g_value <- value
end

module Hist = struct
  type t = hist_cell

  let v ?(help = "") ?lo ?hi ?buckets_per_decade name =
    let cell =
      H
        {
          h_name = name;
          h_help = help;
          h_hist = Histogram.create ?lo ?hi ?buckets_per_decade ();
          h_mu = Mutex.create ();
        }
    in
    match register name cell with
    | H h -> h
    | _ -> invalid_arg (Printf.sprintf "Registry: %s is not a histogram" name)

  (* Lock by hand: [Mutex.protect] would close over [h] and [value]
     per call, and observe sits on the per-block synthesis path. *)
  let observe h value =
    if !on then begin
      Mutex.lock h.h_mu;
      (try Histogram.observe h.h_hist value
       with e ->
         Mutex.unlock h.h_mu;
         raise e);
      Mutex.unlock h.h_mu
    end

  let time h f =
    if !on then begin
      let t0 = Clock.now () in
      let finally () = observe h (Clock.now () -. t0) in
      Fun.protect ~finally f
    end
    else f ()

  let histogram h = h.h_hist
end

type metric =
  | Counter of string * string * int
  | Gauge of string * string * float
  | Histogram of string * string * Histogram.t

let all () =
  if not !on then []
  else
    List.rev_map
      (function
        | C c -> Counter (c.c_name, c.c_help, Atomic.get c.c_value)
        | G g -> Gauge (g.g_name, g.g_help, g.g_value)
        | H h -> Histogram (h.h_name, h.h_help, h.h_hist))
      !order
