(* R8: RNG-stream discipline, interprocedurally.

   The repo's reproducibility story (PR 2) rests on one discipline:
   derive child streams with [Rng.split]/[derive_seed]/[child] *before*
   handing work out, never draw from a parent stream after splitting
   it, never park an [Rng.t] in module state, and never let a parallel
   section capture a parent stream.  R1 greps for [Random]/[Sys.time];
   this rule tracks the [Rng.t] values themselves:

     (a) module-state   : a module-level binding whose type contains
                          [Rng.t] — stream state outliving its owner;
     (b) draw-after-split : a local [Rng.t] passed to a split and later
                          drawn from in the same body, directly or via
                          a callee that may draw (a bottom-up
                          [Dataflow] fixpoint computes "may draw");
     (c) pool-capture   : a lambda handed to a [Pool] combinator
                          capturing an [Rng.t] — every task would
                          mutate the same stream, with domain-count-
                          dependent interleaving ([Rng.t array] is the
                          blessed pre-split pattern and stays allowed);
     (d) iterator-split : [Rng.split] inside a sequential iterator
                          lambda ([Array.map] and friends) — the
                          stream assignment silently depends on the
                          iterator's evaluation order.

   (a)-(c) are errors; (d) is a warning, because a fixed evaluation
   order can be an accepted, documented choice (then it belongs in the
   baseline with a note saying exactly that). *)

let split_heads = [ "Rng.split"; "Rng.derive_seed"; "Rng.child" ]

let draw_heads =
  [
    "Rng.bits64"; "Rng.float"; "Rng.float_pos"; "Rng.float_range";
    "Rng.int_below"; "Rng.bool";
  ]

let sequential_iterators =
  [
    "Array.map"; "Array.mapi"; "Array.iter"; "Array.iteri"; "Array.init";
    "List.map"; "List.mapi"; "List.iter"; "List.iteri"; "List.init";
  ]

let suffix_mem name table =
  List.exists (fun suffix -> Tast_util.has_suffix ~suffix name) table

(* Canonical name of an application head: stamp- and alias-resolved
   when possible ([Internal]/[External]), the raw normalized path for
   function-local heads. *)
let head_name g (node : Callgraph.node) (f : Typedtree.expression) =
  match Callgraph.resolve_head g node f with
  | Some (Callgraph.Internal n) | Some (Callgraph.External n) -> Some n
  | Some Callgraph.Local | None ->
    Option.map Tast_util.normalize_path (Tast_util.ident_name f)

let is_rng_constr p =
  Tast_util.has_suffix ~suffix:"Rng.t"
    (Tast_util.normalize_path (Path.name p))

let is_rng_type ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> is_rng_constr p
  | _ -> false

(* [Rng.t] anywhere inside the type (under ref/option/tuple/array...).
   Arrows are opaque — a stored closure is (c)'s business, not (a)'s.
   Depth-bounded: type graphs can be cyclic. *)
let rec type_contains_rng depth ty =
  depth > 0
  &&
  match Types.get_desc ty with
  | Types.Tconstr (p, args, _) ->
    is_rng_constr p || List.exists (type_contains_rng (depth - 1)) args
  | Types.Ttuple ts -> List.exists (type_contains_rng (depth - 1)) ts
  | Types.Tpoly (t, _) -> type_contains_rng (depth - 1) t
  | _ -> false

let local_ident (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_ident (Path.Pident id, _, _) ->
    Some (Ident.unique_name id, Ident.name id)
  | _ -> None

let first_arg_ident args =
  match
    List.filter_map (fun (_, a) -> Option.map (fun a -> a) a) args
  with
  | a :: _ -> local_ident a
  | [] -> None

(* "May this function draw from an Rng.t it is given?"  Direct draws
   join with the callees' answers over the SCC DAG. *)
module Bool_domain = struct
  type fact = bool

  let bottom = false
  let join = ( || )
  let equal = Bool.equal
end

module Bool_flow = Dataflow.Make (Bool_domain)

let draws_directly g (node : Callgraph.node) =
  let found = ref false in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
          (match e.Typedtree.exp_desc with
           | Typedtree.Texp_apply (f, _) -> (
             match head_name g node f with
             | Some name when suffix_mem name draw_heads -> found := true
             | _ -> ())
           | _ -> ());
          Tast_iterator.default_iterator.expr sub e);
    }
  in
  it.expr it node.expr;
  !found

(* ---------------------------------------------------------------- *)

let check ~rule (loader : Loader.t) =
  let g = Callgraph.build loader in
  let may_draw = Bool_flow.solve g ~direct:(draws_directly g) () in
  let findings = ref [] in
  let flag ?severity (node : Callgraph.node) ~loc ~detail msg =
    findings :=
      Rule.make_finding ~rule ?severity ~unit:node.unit_ ~loc
        ~symbol:node.symbol ~detail msg
      :: !findings
  in
  List.iter
    (fun name ->
      match Callgraph.find g name with
      | None -> ()
      | Some node ->
        (* (a) module-level stream state *)
        (if node.kind = Callgraph.Value
            && type_contains_rng 8 node.expr.exp_type
         then
           flag node ~loc:node.loc ~detail:"module-state"
             (Printf.sprintf
                "%s holds an Rng.t in module-level state; streams must be \
                 owned by their call chain (derive children with \
                 Rng.child/derive_seed instead)"
                node.name));
        (* one syntactic pass collects (b)(c)(d) events in source order *)
        let split_seen = ref [] in
        let it =
          {
            Tast_iterator.default_iterator with
            expr =
              (fun sub e ->
                (match e.Typedtree.exp_desc with
                 | Typedtree.Texp_apply (f, args) -> (
                   match head_name g node f with
                   | Some head when suffix_mem head split_heads -> (
                     match first_arg_ident args with
                     | Some (uid, disp) ->
                       if not (List.mem_assoc uid !split_seen) then
                         split_seen := (uid, disp) :: !split_seen
                     | None -> ())
                   | Some head when suffix_mem head draw_heads -> (
                     (* (b) direct draw after a split of the same stream *)
                     match first_arg_ident args with
                     | Some (uid, disp)
                       when List.mem_assoc uid !split_seen ->
                       flag node ~loc:e.exp_loc
                         ~detail:("draw-after-split:" ^ disp)
                         (Printf.sprintf
                            "%s draws from %s after splitting it; the \
                             parent stream is no longer independent of \
                             its children — draw first or derive another \
                             child"
                            node.name disp)
                     | _ -> ())
                   | Some head when suffix_mem head Rule_state.pool_entry_points ->
                     (* (c) parallel section capturing a stream *)
                     List.iter
                       (fun (_, arg) ->
                         match arg with
                         | Some (a : Typedtree.expression)
                           when (match a.exp_desc with
                                | Typedtree.Texp_function _ -> true
                                | _ -> false) ->
                           let enclosing_bound =
                             Tast_util.expr_bound_idents node.expr
                           in
                           List.iter
                             (fun (cap_name, cap_ty, cap_loc) ->
                               if is_rng_type cap_ty then
                                 flag node ~loc:cap_loc
                                   ~detail:("pool-capture:" ^ cap_name)
                                   (Printf.sprintf
                                      "%s: task closure passed to %s \
                                       captures the stream %s; every task \
                                       would advance the same Rng.t in \
                                       domain-dependent order — pre-split \
                                       into an array of child streams"
                                      node.name head cap_name))
                             (Tast_util.lambda_captures ~enclosing_bound a)
                         | _ -> ())
                       args
                   | Some head when suffix_mem head sequential_iterators ->
                     (* (d) split under an iterator lambda *)
                     List.iter
                       (fun (_, arg) ->
                         match arg with
                         | Some (a : Typedtree.expression)
                           when (match a.exp_desc with
                                | Typedtree.Texp_function _ -> true
                                | _ -> false) ->
                           let splits = ref false in
                           let inner =
                             {
                               Tast_iterator.default_iterator with
                               expr =
                                 (fun sub2 e2 ->
                                   (match e2.Typedtree.exp_desc with
                                    | Typedtree.Texp_apply (f2, _) -> (
                                      match head_name g node f2 with
                                      | Some h2
                                        when suffix_mem h2 split_heads ->
                                        splits := true
                                      | _ -> ())
                                    | _ -> ());
                                   Tast_iterator.default_iterator.expr sub2
                                     e2);
                             }
                           in
                           inner.expr inner a;
                           if !splits then
                             flag node ~severity:Finding.Warning
                               ~loc:a.exp_loc
                               ~detail:("iterator-split:"
                                        ^ Filename.basename head)
                               (Printf.sprintf
                                  "%s splits a stream inside a %s lambda; \
                                   the child-stream assignment depends on \
                                   the iterator's evaluation order — \
                                   pre-split outside the iterator, or \
                                   baseline with a note if the order is a \
                                   frozen, documented choice"
                                  node.name head)
                         | _ -> ())
                       args
                   | Some head when Callgraph.mem g head -> (
                     (* (b) interprocedural: stream handed to a callee
                        that may draw, after a split of that stream *)
                     if Bool_flow.get may_draw head then
                       match first_arg_ident args with
                       | Some (uid, disp)
                         when List.mem_assoc uid !split_seen -> (
                         match
                           List.filter_map (fun (_, a) -> a) args
                         with
                         | a :: _ when is_rng_type a.Typedtree.exp_type ->
                           flag node ~loc:e.exp_loc
                             ~detail:("draw-after-split-via:" ^ disp)
                             (Printf.sprintf
                                "%s passes %s to %s, which may draw from \
                                 it, after splitting %s; the parent \
                                 stream is no longer independent of its \
                                 children"
                                node.name disp head disp)
                         | _ -> ())
                       | _ -> ())
                   | _ -> ())
                 | _ -> ());
                Tast_iterator.default_iterator.expr sub e);
          }
        in
        it.expr it node.expr)
    g.order;
  List.rev !findings

let rec rule =
  {
    Rule.id = "R8";
    name = "rng-discipline";
    severity = Finding.Error;
    doc =
      "taint-track Rng.t: no module-level stream state, no draws from a \
       parent after splitting it (interprocedural), no Rng.t captured by \
       Pool task closures, no splits inside sequential iterator lambdas";
    check = (fun loader -> check ~rule loader);
  }
