(* R7: static proof of the zero-allocation streaming hot path.

   The bench gate measures words/sample empirically; this rule proves
   the same property at compile time.  It builds the whole-repo call
   graph, walks everything reachable from a manifest of hot entry
   points, and infers each reached function's *direct* allocation
   effects under the classic (non-flambda) ocamlopt model:

     - closure   : a lambda capturing locals of the enclosing function
                   (a capture-free lambda is a static closure — free);
     - heap      : tuple/record/array/constructor-with-payload/variant
                   payload/lazy construction, plus the stores where
                   boxing survives local unboxing — a float into a
                   non-flat record field, a boxed number into a
                   mutable field or boxed-element array;
     - boxed-ret : a non-[@inline] function returning float/int64/
                   int32/nativeint — the result is boxed at every call
                   boundary the inliner does not erase;
     - poly      : polymorphic compare/hash at a non-immediate type
                   (and min/max at float, whose result is re-boxed);
     - partial   : an application whose result is still an arrow —
                   a fresh closure per execution;
     - extern    : a call to a function outside the graph that is not
                   on the known-allocation-free list.

   Two classic-mode facts keep the model honest rather than merely
   conservative: boxed-number arithmetic chains (Int64 and friends)
   are unboxed by cmmgen inside one function body, so the operators
   themselves are safe and only the escape points above allocate; and
   a [let r = ref e] used only through [!]/[:=]/[incr]/[decr] at its
   own lambda depth is erased by [Simplif.eliminate_ref] into an
   unboxed mutable local, so such cells are not flagged
   ({!Tast_util.eliminable_refs}).

   Any reached function with a non-empty effect set is a finding, with
   the call path from the manifest entry in the message (the
   fingerprint stays line-free, so the baseline machinery works
   unchanged).  Error paths are excluded: [assert] bodies and the
   arguments of raise/failwith/invalid_arg never run on the steady
   path.  Traversal stops at registered *amortized cuts* — functions
   like a window close that run once per N samples by design; each cut
   emits an [Info] finding so the exemption is visible and baselined
   with a note, never silent. *)

type manifest = {
  entries : string list;
  cuts : (string * string) list;  (* node name, why the cut is sound *)
}

(* The hot-entry manifest.  [Pair.stream] from the ISSUE list is
   deliberately absent: it is the creation-time constructor of the
   stream pair (allocates its state records once, by design); the
   steady-state entry is [Pair.fill].  [Source.create] likewise. *)
let default_manifest =
  {
    entries =
      [
        "Ptrng_noise.Source.fill";
        "Ptrng_osc.Pair.fill";
        "Ptrng_prng.Gaussian.fill_fa";
        "Ptrng_monitor.Rn_estimator.feed_many";
        "Ptrng_monitor.Monitor.feed_jitter_chunk";
        "Ptrng_monitor.Monitor.feed_bit";
        "Ptrng_monitor.Flight_recorder.record_jitter";
        "Ptrng_monitor.Flight_recorder.record_jitter_chunk";
        "Ptrng_monitor.Flight_recorder.record_bit";
        "Ptrng_monitor.Flight_recorder.record_window";
        "Ptrng_monitor.Flight_recorder.record_transition";
        "Ptrng_monitor.Flight_recorder.tick_window";
      ];
    cuts =
      [
        ( "Ptrng_monitor.Monitor.refresh_fit",
          "runs once per fit_stride samples (default thousands): refits \
           the r_N regression, updates gauges/series and emits one event" );
        ( "Ptrng_monitor.Monitor.close_window",
          "runs once per window (8192 bits), not per sample; builds the \
           chart point and health snapshot" );
        ( "Ptrng_monitor.Flight_recorder.freeze",
          "runs once per incident; serializes the rings into a bundle" );
        ( "Ptrng_monitor.Flight_recorder.note_trigger",
          "runs once per incident trigger, records the reason string" );
        ( "Ptrng_prng.Gaussian.draw",
          "the boxed scalar sampler: fill_fa's fallback for non-xoshiro \
           backends and the per-sample API; the default backend takes \
           the unboxed fill_fa_xoshiro path, which is what the proof \
           covers" );
        ( "Ptrng_prng.Rng.child",
          "constructs one child generator per chunk boundary (a few \
           records); amortized over the chunk's samples by design" );
        ( "Ptrng_prng.Gaussian.create",
          "constructs the per-chunk sampler state next to Rng.child; \
           same chunk-boundary amortization" );
        ( "Ptrng_noise.Source.spectral_sync",
          "per-block spectral synthesis: the first block's buffer, the \
           amplitude spectrum built once at the first resynthesis, and \
           each block's scratch spectrum, FFT and child streams run once \
           per block (thousands of samples), bounded by the bench \
           words/sample gate" );
      ];
  }

(* ---------------------------------------------------------------- *)
(* Extern classification                                             *)
(* ---------------------------------------------------------------- *)

(* Calls known not to allocate per call in classic ocamlopt: compiler
   primitives, unboxed-external math, in-place array/bytes access,
   atomics and locks.  Matched by dotted suffix against the normalized
   resolved path. *)
let safe_externs =
  [
    (* int/float arithmetic and logic: all compiler primitives *)
    "Stdlib.+"; "Stdlib.-"; "Stdlib.*"; "Stdlib./"; "Stdlib.mod";
    "Stdlib.abs"; "Stdlib.succ"; "Stdlib.pred";
    "Stdlib.+."; "Stdlib.-."; "Stdlib.*."; "Stdlib./."; "Stdlib.~-.";
    "Stdlib.~-"; "Stdlib.~+"; "Stdlib.land"; "Stdlib.lor"; "Stdlib.lxor";
    "Stdlib.lnot"; "Stdlib.lsl"; "Stdlib.lsr"; "Stdlib.asr";
    "Stdlib.&&"; "Stdlib.||"; "Stdlib.not"; "Stdlib.=="; "Stdlib.!=";
    (* unboxed/noalloc external math *)
    "Stdlib.sqrt"; "Stdlib.exp"; "Stdlib.log"; "Stdlib.log10";
    "Stdlib.log1p"; "Stdlib.sin"; "Stdlib.cos"; "Stdlib.tan";
    "Stdlib.atan"; "Stdlib.atan2"; "Stdlib.floor"; "Stdlib.ceil";
    "Stdlib.mod_float"; "Stdlib.float_of_int"; "Stdlib.int_of_float";
    "Stdlib.truncate";
    "Float.of_int"; "Float.to_int"; "Float.abs"; "Float.is_nan";
    "Float.is_finite"; "Float.floor"; "Float.ceil"; "Float.trunc";
    (* ref cell access (creation is Stdlib.ref, which allocates) *)
    "Stdlib.!"; "Stdlib.:="; "Stdlib.incr"; "Stdlib.decr";
    "Stdlib.ignore"; "Stdlib.fst"; "Stdlib.snd";
    (* in-place array / bytes / string access *)
    "Array.length"; "Array.get"; "Array.set"; "Array.unsafe_get";
    "Array.unsafe_set"; "Array.fill"; "Array.blit";
    "Float.Array.length"; "Float.Array.get"; "Float.Array.set";
    "Float.Array.unsafe_get"; "Float.Array.unsafe_set";
    "Float.Array.fill"; "Float.Array.blit";
    "Bytes.length"; "Bytes.get"; "Bytes.set"; "Bytes.unsafe_get";
    "Bytes.unsafe_set"; "Bytes.get_uint8"; "Bytes.set_uint8";
    "Bytes.blit"; "Bytes.unsafe_blit"; "Bytes.fill";
    "String.length"; "String.get"; "String.unsafe_get";
    "Char.code"; "Char.chr"; "Char.unsafe_chr";
    (* conversions that stay immediate *)
    "Int64.to_int"; "Int32.to_int"; "Nativeint.to_int";
    (* Boxed-number arithmetic: classic cmmgen unboxes int64/int32/
       nativeint/float locals whose producers and consumers are both
       numeric primitives, so chains of these inside one function body
       never touch the heap.  The places where boxing survives are
       modelled separately: results crossing a non-inlined call
       boundary (the boxed-return check), stores into record fields
       (the setfield check) and stores into boxed-element arrays. *)
    "Int64.add"; "Int64.sub"; "Int64.mul"; "Int64.div"; "Int64.rem";
    "Int64.neg"; "Int64.logand"; "Int64.logor"; "Int64.logxor";
    "Int64.lognot"; "Int64.shift_left"; "Int64.shift_right";
    "Int64.shift_right_logical"; "Int64.of_int"; "Int64.of_int32";
    "Int64.to_int32"; "Int64.of_nativeint"; "Int64.to_nativeint";
    "Int64.of_float"; "Int64.to_float"; "Int64.bits_of_float";
    "Int64.float_of_bits";
    "Int32.add"; "Int32.sub"; "Int32.mul"; "Int32.logand"; "Int32.logor";
    "Int32.logxor"; "Int32.shift_left"; "Int32.shift_right";
    "Int32.shift_right_logical"; "Int32.of_int";
    "Nativeint.add"; "Nativeint.sub"; "Nativeint.mul"; "Nativeint.logand";
    "Nativeint.logor"; "Nativeint.logxor"; "Nativeint.shift_left";
    "Nativeint.shift_right"; "Nativeint.shift_right_logical";
    "Nativeint.of_int";
    (* allocation-free traversals and predicates *)
    "List.length"; "List.exists"; "List.iter"; "List.iteri";
    "List.mem"; "List.mem_assoc"; "String.iter";
    "Option.is_some"; "Option.is_none";
    (* concurrency primitives *)
    "Atomic.get"; "Atomic.set"; "Atomic.incr"; "Atomic.decr";
    "Atomic.fetch_and_add"; "Atomic.compare_and_set"; "Atomic.exchange";
    "Mutex.lock"; "Mutex.unlock"; "Mutex.try_lock"; "Mutex.protect";
    "Condition.signal"; "Condition.broadcast"; "Condition.wait";
    "Domain.cpu_relax"; "Domain.self"; "Domain.DLS.get";
    "Domain.recommended_domain_count";
  ]

(* Known allocators, with the reason (better message than "unknown"). *)
let alloc_externs =
  [
    ("Stdlib.ref", "allocates the heap cell");
    ("Stdlib.^", "allocates the concatenated string");
    ("Stdlib.@", "copies the left list");
    ("Array.make", "allocates the array");
    ("Array.init", "allocates the array");
    ("Array.copy", "allocates the copy");
    ("Array.sub", "allocates the slice");
    ("Array.append", "allocates the result");
    ("Array.map", "allocates a same-length result");
    ("Array.mapi", "allocates a same-length result");
    ("Array.to_list", "allocates one cons cell per element");
    ("Array.of_list", "allocates the array");
    ("Float.Array.create", "allocates the array");
    ("Float.Array.make", "allocates the array");
    ("List.map", "allocates one cons cell per element");
    ("List.mapi", "allocates one cons cell per element");
    ("List.init", "allocates the list");
    ("List.filter", "allocates the kept spine");
    ("List.rev", "allocates the reversed spine");
    ("List.append", "copies the left list");
    ("List.concat_map", "allocates intermediate lists");
    ("Bytes.create", "allocates the buffer");
    ("Bytes.make", "allocates the buffer");
    ("Bytes.sub", "allocates the slice");
    ("Bytes.to_string", "copies into a fresh string");
    ("Bytes.of_string", "copies into a fresh buffer");
    ("String.sub", "allocates the slice");
    ("String.make", "allocates the string");
    ("String.concat", "allocates the result");
    ("Buffer.create", "allocates the buffer");
    ("Buffer.add_string", "may grow the buffer");
    ("Buffer.add_char", "may grow the buffer");
    ("Buffer.contents", "copies into a fresh string");
    ("Printf.sprintf", "allocates the formatted string");
    ("Printf.printf", "allocates format intermediates");
    ("Printf.eprintf", "allocates format intermediates");
    ("Float.max", "re-boxes the float result; use an if/else");
    ("Float.min", "re-boxes the float result; use an if/else");
    ("Float.is_integer", "calls through non-inlined float helpers");
    ("Hashtbl.add", "allocates a bucket");
    ("Hashtbl.replace", "may allocate a bucket");
    ("Array.fold_left", "boxes a non-immediate accumulator each step");
    ("List.filteri", "allocates the kept spine");
    ("List.rev_append", "copies the left list");
    ("Stdlib.string_of_int", "allocates the string");
    ("Stdlib.string_of_float", "allocates the string");
    ("Stdlib.int_of_string_opt", "allocates the option");
    ("Stdlib.float_of_string", "boxes the parsed float");
    ("String.trim", "may copy the string");
    ("Sys.getenv_opt", "allocates the option");
    ("Unix.gettimeofday", "boxes the float result");
  ]

(* Error-path heads: the whole application subtree is cold (runs at
   most once, on the way out) and excluded from the steady-state
   proof. *)
let cold_heads =
  [
    "Stdlib.raise"; "Stdlib.raise_notrace"; "Stdlib.failwith";
    "Stdlib.invalid_arg"; "Stdlib.exit";
    "Printexc.raise_with_backtrace";
  ]

let poly_compare_heads =
  [
    "Stdlib.compare"; "Stdlib.="; "Stdlib.<>"; "Stdlib.<"; "Stdlib.>";
    "Stdlib.<="; "Stdlib.>="; "Hashtbl.hash";
  ]

let minmax_heads = [ "Stdlib.min"; "Stdlib.max" ]

let suffix_mem name table =
  List.exists (fun suffix -> Tast_util.has_suffix ~suffix name) table

let suffix_assoc name table =
  List.find_opt (fun (suffix, _) -> Tast_util.has_suffix ~suffix name) table

let is_immediate_type ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, [], _) ->
    Path.same p Predef.path_int || Path.same p Predef.path_bool
    || Path.same p Predef.path_char || Path.same p Predef.path_unit
  | _ -> false

(* Types at which translcore specializes comparison operators to
   dedicated primitives (no polymorphic walk, no allocation): the
   immediates above plus float, the boxed integers and string. *)
let is_specialized_compare_type ty =
  is_immediate_type ty
  ||
  match Types.get_desc ty with
  | Types.Tconstr (p, [], _) ->
    Path.same p Predef.path_float || Path.same p Predef.path_int64
    || Path.same p Predef.path_int32
    || Path.same p Predef.path_nativeint
    || Path.same p Predef.path_string
  | _ -> false

let boxed_numeric_name ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, [], _) ->
    if Path.same p Predef.path_float then Some "float"
    else if Path.same p Predef.path_int64 then Some "int64"
    else if Path.same p Predef.path_int32 then Some "int32"
    else if Path.same p Predef.path_nativeint then Some "nativeint"
    else None
  | _ -> None

let rec final_result_type ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, _, r, _) -> final_result_type r
  | Types.Tpoly (t, _) -> final_result_type t
  | _ -> ty

(* ---------------------------------------------------------------- *)
(* Direct effects of one function body                               *)
(* ---------------------------------------------------------------- *)

type effect_ = { tag : string; why : string; eloc : Location.t }

let direct_effects (g : Callgraph.t) (node : Callgraph.node) =
  let effects = ref [] in
  let add tag why eloc = effects := { tag; why; eloc } :: !effects in
  (match node.kind with
   | Callgraph.Value -> ()
   | Callgraph.Func ->
     (match boxed_numeric_name (final_result_type node.expr.exp_type) with
      | Some box when not node.inline ->
        add ("boxed-return:" ^ box)
          (Printf.sprintf
             "returns a boxed %s across every non-inlined call boundary; \
              add [@inline] or write into a caller-owned buffer"
             box)
          node.loc
      | _ -> ());
     let enclosing_bound = Tast_util.expr_bound_idents node.expr in
     let elim = Tast_util.eliminable_refs node.expr in
     let it = ref Tast_iterator.default_iterator in
     let visit sub (e : Typedtree.expression) =
       match e.exp_desc with
       | Typedtree.Texp_assert _ -> () (* cold: dev-build error path *)
       | Typedtree.Texp_function _ when e == node.body ->
         (* A multi-case [function] in final parameter position: the
            peel stops there, but translcore merges the lambda into
            the enclosing arity — it is a parameter, not a closure. *)
         Tast_iterator.default_iterator.expr sub e
       | Typedtree.Texp_function _ ->
         (match Tast_util.lambda_captures ~enclosing_bound e with
          | [] -> ()
          | caps ->
            let names = List.map (fun (n, _, _) -> n) caps in
            add ("closure:" ^ String.concat "," names)
              (Printf.sprintf
                 "lambda captures local%s %s — a heap closure per execution"
                 (if List.length names > 1 then "s" else "")
                 (String.concat ", " names))
              e.exp_loc);
         Tast_iterator.default_iterator.expr sub e
       | Typedtree.Texp_tuple _ -> add "heap:tuple" "allocates a tuple" e.exp_loc;
         Tast_iterator.default_iterator.expr sub e
       | Typedtree.Texp_record _ ->
         add "heap:record" "allocates a record" e.exp_loc;
         Tast_iterator.default_iterator.expr sub e
       | Typedtree.Texp_array (_ :: _) ->
         add "heap:array" "allocates an array literal" e.exp_loc;
         Tast_iterator.default_iterator.expr sub e
       | Typedtree.Texp_construct (_, cd, _ :: _) ->
         add ("heap:" ^ cd.cstr_name)
           (Printf.sprintf "allocates a %s block" cd.cstr_name)
           e.exp_loc;
         Tast_iterator.default_iterator.expr sub e
       | Typedtree.Texp_variant (_, Some _) ->
         add "heap:variant" "allocates a variant payload" e.exp_loc;
         Tast_iterator.default_iterator.expr sub e
       | Typedtree.Texp_lazy _ ->
         add "heap:lazy" "allocates a lazy thunk" e.exp_loc;
         Tast_iterator.default_iterator.expr sub e
       | Typedtree.Texp_setfield (_, _, lbl, v) ->
         (* Where boxing actually survives cmmgen's local unboxing:
            storing a float into a non-flat record, or any boxed
            number into a (pointer-holding) mutable field, re-boxes
            the value at every store. *)
         (match boxed_numeric_name v.Typedtree.exp_type with
          | Some "float" when lbl.Types.lbl_repres = Types.Record_float -> ()
          | Some box ->
            add ("heap:setfield:" ^ box)
              (Printf.sprintf
                 "storing a %s into mutable field %s boxes the value at \
                  every store"
                 box lbl.Types.lbl_name)
              e.exp_loc
          | None -> ());
         Tast_iterator.default_iterator.expr sub e
       | Typedtree.Texp_apply (f, args) -> (
         let resolution = Callgraph.resolve_head g node f in
         let canonical =
           match resolution with
           | Some (Callgraph.Internal n) | Some (Callgraph.External n) ->
             Some n
           | Some Callgraph.Local | None -> None
         in
         match canonical with
         | Some name when suffix_mem name cold_heads -> () (* cold subtree *)
         | _ ->
           (if
              match Types.get_desc e.exp_type with
              | Types.Tarrow _ -> true
              | _ -> false
            then
              add "partial-app"
                "partial application allocates a closure per execution"
                e.exp_loc);
           (match resolution with
            (* Local: a function-local binding — its body is scanned
               inline as part of this node.  None: a computed head —
               whatever builds it is flagged in its own subtree. *)
            | Some Callgraph.Local | None -> ()
            (* Internal: the callee is its own node; its effects are
               its own findings when it is reached. *)
            | Some (Callgraph.Internal _) -> ()
            | Some (Callgraph.External name) ->
              let arg_ty =
                match args with
                | (_, Some a) :: _ -> Some a.Typedtree.exp_type
                | _ -> None
              in
              if
                Tast_util.has_suffix ~suffix:"Stdlib.ref" name
                && List.memq e elim
              then
                (* Simplif.eliminate_ref erases this cell: every use is
                   !/:=/incr/decr at the binding's lambda depth. *)
                ()
              else if
                suffix_mem name [ "Array.set"; "Array.unsafe_set" ]
              then (
                (* Flat for float arrays; for boxed-number elements the
                   stored value is re-boxed on every write. *)
                match List.rev (List.filter_map snd args) with
                | v :: _ -> (
                  match boxed_numeric_name v.Typedtree.exp_type with
                  | Some (("int64" | "int32" | "nativeint") as box) ->
                    add ("heap:array-store:" ^ box)
                      (Printf.sprintf
                         "storing a %s into a boxed-element array boxes \
                          the value at every write"
                         box)
                      e.exp_loc
                  | _ -> ())
                | [] -> ())
              else if suffix_mem name poly_compare_heads then (
                (* translcore specializes comparisons at statically
                   known immediate, float, boxed-integer and string
                   types to primitives; only genuinely polymorphic
                   uses walk the value. *)
                match arg_ty with
                | Some ty when is_specialized_compare_type ty -> ()
                | _ ->
                  add ("poly:" ^ Filename.basename name)
                    (Printf.sprintf
                       "polymorphic %s at a non-immediate type walks the \
                        value and defeats unboxing"
                       name)
                    e.exp_loc)
              else if suffix_mem name minmax_heads then (
                match arg_ty with
                | Some ty when is_immediate_type ty -> ()
                | Some ty when Tast_util.is_float_type ty ->
                  add ("poly:" ^ Filename.basename name)
                    (Printf.sprintf
                       "%s on float re-boxes its result; use an if/else"
                       name)
                    e.exp_loc
                | _ ->
                  add ("poly:" ^ Filename.basename name)
                    (Printf.sprintf "polymorphic %s at a non-immediate type"
                       name)
                    e.exp_loc)
              else if suffix_mem name safe_externs then ()
              else
                match suffix_assoc name alloc_externs with
                | Some (_, why) ->
                  add ("extern:" ^ name)
                    (Printf.sprintf "%s %s" name why)
                    e.exp_loc
                | None ->
                  add ("extern:" ^ name)
                    (Printf.sprintf
                       "%s is outside the call graph and not on the \
                        allocation-free list"
                       name)
                    e.exp_loc);
           Tast_iterator.default_iterator.expr sub e)
       | _ -> Tast_iterator.default_iterator.expr sub e
     in
     it := { Tast_iterator.default_iterator with expr = visit };
     !it.expr !it node.body);
  List.rev !effects

(* ---------------------------------------------------------------- *)
(* The rule                                                          *)
(* ---------------------------------------------------------------- *)

let synthetic_finding ~(rule : Rule.t) ~severity ~detail ~symbol message =
  {
    Finding.rule = rule.id;
    rule_name = rule.name;
    severity;
    file = "<manifest>";
    line = 0;
    col = 0;
    symbol;
    detail;
    message;
  }

let check ~manifest ~rule (loader : Loader.t) =
  let g = Callgraph.build loader in
  let cut_names = List.map fst manifest.cuts in
  let follow (n : Callgraph.node) =
    n.kind = Callgraph.Func && not (List.mem n.name cut_names)
  in
  let parents = Callgraph.reachable g ~roots:manifest.entries ~follow in
  let findings = ref [] in
  (* Manifest drift: an entry or cut naming nothing is a silent hole in
     the proof — refuse it loudly. *)
  List.iter
    (fun entry ->
      if not (Callgraph.mem g entry) then
        findings :=
          synthetic_finding ~rule ~severity:Finding.Error
            ~detail:("missing-entry:" ^ entry) ~symbol:entry
            (Printf.sprintf
               "hot-entry manifest names %s but no such function exists in \
                the call graph; fix the manifest so the zero-alloc proof \
                stays meaningful"
               entry)
          :: !findings)
    manifest.entries;
  List.iter
    (fun (cut, why) ->
      match Callgraph.find g cut with
      | None ->
        findings :=
          synthetic_finding ~rule ~severity:Finding.Error
            ~detail:("missing-cut:" ^ cut) ~symbol:cut
            (Printf.sprintf
               "amortized cut %s no longer exists in the call graph; drop \
                or update the manifest entry"
               cut)
          :: !findings
      | Some n ->
        findings :=
          Rule.make_finding ~rule ~severity:Finding.Info ~unit:n.unit_
            ~loc:n.loc ~symbol:n.symbol ~detail:("amortized-cut:" ^ cut)
            (Printf.sprintf
               "traversal cut at %s: %s (accepted amortized work, baselined \
                with this note)"
               cut why)
          :: !findings)
    manifest.cuts;
  (* Every reached function with direct effects is a finding, with the
     call path from its manifest entry in the message. *)
  List.iter
    (fun name ->
      if Hashtbl.mem parents name then
        match Callgraph.find g name with
        | None -> ()
        | Some node ->
          let path = Callgraph.witness parents name in
          let via =
            match path with
            | [] | [ _ ] -> "hot entry"
            | root :: _ ->
              Printf.sprintf "reachable from %s via %s" root
                (String.concat " -> " path)
          in
          List.iter
            (fun { tag; why; eloc } ->
              findings :=
                Rule.make_finding ~rule ~unit:node.unit_ ~loc:eloc
                  ~symbol:node.symbol ~detail:tag
                  (Printf.sprintf "%s: %s (%s)" node.name why via)
                :: !findings)
            (direct_effects g node))
    g.order;
  List.rev !findings

let make ?(manifest = default_manifest) () =
  let rec rule =
    {
      Rule.id = "R7";
      name = "hot-path-proof";
      severity = Finding.Warning;
      doc =
        "interprocedural allocation-effect inference: every function \
         reachable from the hot-entry manifest must be allocation-free \
         (closure capture, heap construction, boxed returns, polymorphic \
         compare, partial application, unknown externs)";
      check = (fun loader -> check ~manifest ~rule loader);
    }
  in
  rule

let rule = make ()
