(* Whole-repo call graph from the typedtrees the Loader already has.

   Nodes are the value bindings of every structure (top level and
   nested [module M = struct .. end]), named by their normalized
   fully-qualified path ("Ptrng_noise.Source.fill").  Edges are the
   resolved references between them: a [Path.Pident] use resolves
   through the per-unit stamp table (same-unit binding), a [Path.Pdot]
   through module-alias expansion plus path normalization (so the
   mangled [Lib__Mod.f], the alias [Lib.Mod.f] and a local
   [module FA = Float.Array] or [let module FA = Float.Array in] all
   land on one canonical name).
   Unresolved references — stdlib, externals, function-local lets — are
   classified so effect rules can tell them apart.

   Everything is deterministic: units arrive in Loader's sorted order,
   [order] is the sorted node-name list, and every adjacency list is
   sorted.  Hashtbl is used only through [find_opt]/[replace] keyed by
   those lists (the repo's own R1 rule forbids order-dependent
   [Hashtbl.iter]/[fold] here). *)

open Ptrng_telemetry

type kind = Func | Value

type node = {
  name : string;
  unit_ : Loader.unit_info;
  symbol : string;
  loc : Location.t;
  expr : Typedtree.expression;
  params : Typedtree.pattern list;
  body : Typedtree.expression;
  kind : kind;
  inline : bool;
  mutable callees : string list;
  mutable externals : string list;
}

(* Per-unit name resolution: [stamps] maps the [Ident.unique_name] of
   every binding that became a node to the node name; [aliases] maps
   the unique name of every module binding to its canonical path —
   both structure modules ([module M = struct]) and plain aliases
   ([module FA = Float.Array], [let module FA = Float.Array in]). *)
type resolver = {
  stamps : (string * string) list;
  aliases : (string * string) list;
}

type resolution =
  | Internal of string  (** A node of the graph. *)
  | External of string  (** Canonical path with no node (stdlib, ...). *)
  | Local  (** A function-local binding — its body is inline. *)

type t = {
  nodes : (string, node) Hashtbl.t;
  order : string list;
  sccs : string list list;
  scc_of : (string, int) Hashtbl.t;
  resolvers : (string, resolver) Hashtbl.t;  (* keyed by unit modname *)
}

let find t name = Hashtbl.find_opt t.nodes name
let mem t name = Hashtbl.mem t.nodes name

(* --------------------------------------------------------------- *)
(* Node collection                                                  *)
(* --------------------------------------------------------------- *)

(* Peel the curried [fun a -> fun b -> ...] chain down to the body.
   Multi-case [function] and guarded lambdas stop the peel: their body
   is the dispatch itself. *)
let rec peel acc (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_function
      { cases = [ { c_lhs; c_guard = None; c_rhs; _ } ]; _ } ->
    peel (c_lhs :: acc) c_rhs
  | _ -> (List.rev acc, e)

let rec is_arrow_type ty =
  match Types.get_desc ty with
  | Types.Tarrow _ -> true
  | Types.Tpoly (t, _) -> is_arrow_type t
  | _ -> false

let sort_uniq = List.sort_uniq String.compare

let rec path_root (p : Path.t) =
  match p with
  | Path.Pident id -> id
  | Path.Pdot (p, _) -> path_root p
  | Path.Papply (p, _) -> path_root p
  | Path.Pextra_ty (p, _) -> path_root p

(* Canonical dotted name of [p] in the context of [r]: local module
   aliases expand to their target, everything gets "__" normalized. *)
let canonical_name (r : resolver) (p : Path.t) =
  let full = Tast_util.normalize_path (Path.name p) in
  match p with
  | Path.Pident _ -> full
  | _ -> (
    let root = path_root p in
    match List.assoc_opt (Ident.unique_name root) r.aliases with
    | Some target -> (
      let root_name = Tast_util.normalize_path (Ident.name root) in
      match String.index_opt full '.' with
      | Some i when String.sub full 0 i = root_name ->
        target ^ String.sub full i (String.length full - i)
      | _ -> full)
    | None -> full)

(* A name bound more than once at one level (say a wrapper shadowing the
   function it wraps) keeps a node per binding: the last binding owns
   the plain name, which is what references from other units resolve
   to, and the earlier ones are suffixed "#1", "#2", ... in definition
   order.  Same-unit references reach each binding through its stamp.
   [bindings] is (stamp, node) in definition order. *)
let disambiguate bindings =
  let count = Hashtbl.create 64 and seen = Hashtbl.create 8 in
  let bump tbl name =
    let k = 1 + Option.value ~default:0 (Hashtbl.find_opt tbl name) in
    Hashtbl.replace tbl name k;
    k
  in
  List.iter (fun (_, n) -> ignore (bump count n.name)) bindings;
  List.map
    (fun (stamp, n) ->
      let k = bump seen n.name in
      if k < Hashtbl.find count n.name then
        (stamp, { n with name = Printf.sprintf "%s#%d" n.name k })
      else (stamp, n))
    bindings

let collect_unit (u : Loader.unit_info) =
  let bindings = ref [] in
  let aliases = ref [] in
  let add_binding ~prefix (vb : Typedtree.value_binding) =
    List.iter
      (fun id ->
        let name = prefix ^ "." ^ Ident.name id in
        let params, body = peel [] vb.vb_expr in
        let kind =
          if params <> [] || is_arrow_type vb.vb_expr.exp_type then Func
          else Value
        in
        let node =
          {
            name;
            unit_ = u;
            symbol = Ident.name id;
            loc = vb.vb_pat.pat_loc;
            expr = vb.vb_expr;
            params;
            body;
            kind;
            inline = Tast_util.has_inline_attr vb.vb_attributes;
            callees = [];
            externals = [];
          }
        in
        bindings := (Ident.unique_name id, node) :: !bindings)
      (Typedtree.pat_bound_idents vb.vb_pat)
  in
  let rec walk_structure ~prefix (str : Typedtree.structure) =
    List.iter
      (fun (item : Typedtree.structure_item) ->
        match item.str_desc with
        | Typedtree.Tstr_value (_, vbs) -> List.iter (add_binding ~prefix) vbs
        | Typedtree.Tstr_module mb -> walk_module ~prefix mb
        | Typedtree.Tstr_recmodule mbs -> List.iter (walk_module ~prefix) mbs
        | _ -> ())
      str.str_items
  and walk_module ~prefix (mb : Typedtree.module_binding) =
    match mb.mb_id with
    | None -> ()
    | Some id ->
      let here = prefix ^ "." ^ Ident.name id in
      (match alias_target mb.mb_expr with
       | Some target ->
         aliases := (Ident.unique_name id, target) :: !aliases
       | None ->
         aliases := (Ident.unique_name id, here) :: !aliases;
         walk_module_expr ~prefix:here mb.mb_expr)
  and alias_target (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Typedtree.Tmod_ident (p, _) ->
      Some (canonical_name { stamps = []; aliases = !aliases } p)
    | Typedtree.Tmod_constraint (inner, _, _, _) -> alias_target inner
    | _ -> None
  and walk_module_expr ~prefix (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Typedtree.Tmod_structure str -> walk_structure ~prefix str
    | Typedtree.Tmod_constraint (inner, _, _, _) ->
      walk_module_expr ~prefix inner
    | _ -> ()
  in
  (* [let module X = P in] aliases inside expressions, after the
     structure walk so [P] may itself go through a top-level alias. *)
  let let_module_aliases =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
          (match e.Typedtree.exp_desc with
           | Typedtree.Texp_letmodule (Some id, _, _, me, _) -> (
             match alias_target me with
             | Some target ->
               aliases := (Ident.unique_name id, target) :: !aliases
             | None -> ())
           | _ -> ());
          Tast_iterator.default_iterator.expr sub e);
    }
  in
  (match u.impl with
   | Some str ->
     walk_structure ~prefix:(Tast_util.normalize_path u.modname) str;
     let_module_aliases.structure let_module_aliases str
   | None -> ());
  let bindings = disambiguate (List.rev !bindings) in
  ( List.map snd bindings,
    {
      stamps = List.map (fun (stamp, n) -> (stamp, n.name)) bindings;
      aliases = !aliases;
    } )

(* --------------------------------------------------------------- *)
(* Reference resolution                                             *)
(* --------------------------------------------------------------- *)

let empty_resolver = { stamps = []; aliases = [] }

let resolver_of t (u : Loader.unit_info) =
  match Hashtbl.find_opt t.resolvers u.modname with
  | Some r -> r
  | None -> empty_resolver

let resolve_with nodes_tbl (r : resolver) (p : Path.t) =
  match p with
  | Path.Pident id -> (
    match List.assoc_opt (Ident.unique_name id) r.stamps with
    | Some name -> Internal name
    | None -> Local)
  | _ ->
    let name = canonical_name r p in
    if Hashtbl.mem nodes_tbl name then Internal name else External name

let resolve t (u : Loader.unit_info) p =
  resolve_with t.nodes (resolver_of t u) p

(* Resolution of an application head (or any expression that is an
   identifier), in the defining unit of [node]. *)
let resolve_head t (node : node) (f : Typedtree.expression) =
  match f.exp_desc with
  | Typedtree.Texp_ident (p, _, _) -> Some (resolve t node.unit_ p)
  | _ -> None

(* --------------------------------------------------------------- *)
(* Edge resolution                                                  *)
(* --------------------------------------------------------------- *)

let resolve_edges nodes_tbl (node : node) ~resolver =
  let callees = ref [] and externals = ref [] in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
          (match e.Typedtree.exp_desc with
           | Typedtree.Texp_ident (p, _, _) -> (
             match resolve_with nodes_tbl resolver p with
             | Internal target when target <> node.name ->
               callees := target :: !callees
             | Internal _ | Local -> ()
             | External name -> externals := name :: !externals)
           | _ -> ());
          Tast_iterator.default_iterator.expr sub e);
    }
  in
  it.expr it node.expr;
  node.callees <- sort_uniq !callees;
  node.externals <- sort_uniq !externals

(* --------------------------------------------------------------- *)
(* Tarjan SCC (iterating the sorted order, so output is stable).    *)
(* Emits each SCC only after everything it reaches — the resulting   *)
(* list is callees-first, exactly what a bottom-up fixpoint wants.   *)
(* --------------------------------------------------------------- *)

let compute_sccs nodes_tbl order =
  let index = Hashtbl.create 64 in
  let lowlink = Hashtbl.create 64 in
  let on_stack = Hashtbl.create 64 in
  let stack = ref [] in
  let counter = ref 0 in
  let sccs = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v true;
    let node = Hashtbl.find nodes_tbl v in
    List.iter
      (fun w ->
        match Hashtbl.find_opt index w with
        | None ->
          strongconnect w;
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        | Some wi ->
          if Hashtbl.find_opt on_stack w = Some true then
            Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) wi))
      node.callees;
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          Hashtbl.replace on_stack w false;
          if w = v then w :: acc else pop (w :: acc)
      in
      sccs := pop [] :: !sccs
    end
  in
  List.iter
    (fun v -> if not (Hashtbl.mem index v) then strongconnect v)
    order;
  List.rev !sccs

let build (loader : Loader.t) =
  let per_unit =
    List.map (fun u -> (u, collect_unit u)) loader.units
  in
  let all_nodes = List.concat_map (fun (_, (ns, _)) -> ns) per_unit in
  let nodes = Hashtbl.create (List.length all_nodes * 2 + 1) in
  List.iter (fun n -> Hashtbl.replace nodes n.name n) all_nodes;
  let resolvers = Hashtbl.create 64 in
  List.iter
    (fun ((u : Loader.unit_info), (unit_nodes, resolver)) ->
      Hashtbl.replace resolvers u.modname resolver;
      List.iter (fun n -> resolve_edges nodes n ~resolver) unit_nodes)
    per_unit;
  let order = sort_uniq (List.map (fun n -> n.name) all_nodes) in
  let sccs = compute_sccs nodes order in
  let scc_of = Hashtbl.create (List.length order * 2 + 1) in
  List.iteri
    (fun i members -> List.iter (fun m -> Hashtbl.replace scc_of m i) members)
    sccs;
  { nodes; order; sccs; scc_of; resolvers }

let scc_index t name = Hashtbl.find_opt t.scc_of name

let scc_members t name =
  match scc_index t name with
  | None -> []
  | Some i -> List.nth t.sccs i

(* --------------------------------------------------------------- *)
(* Reachability                                                     *)
(* --------------------------------------------------------------- *)

let reachable t ~roots ~follow =
  let parents = Hashtbl.create 64 in
  let queue = Queue.create () in
  List.iter
    (fun r ->
      match find t r with
      | Some n when follow n && not (Hashtbl.mem parents r) ->
        Hashtbl.replace parents r None;
        Queue.add r queue
      | _ -> ())
    (sort_uniq roots);
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    match find t v with
    | None -> ()
    | Some n ->
      List.iter
        (fun w ->
          if not (Hashtbl.mem parents w) then
            match find t w with
            | Some wn when follow wn ->
              Hashtbl.replace parents w (Some v);
              Queue.add w queue
            | _ -> ())
        n.callees
  done;
  parents

let witness parents name =
  let rec go acc n =
    match Hashtbl.find_opt parents n with
    | None -> acc (* not reached: return what we have *)
    | Some None -> n :: acc
    | Some (Some p) -> go (n :: acc) p
  in
  go [] name

(* --------------------------------------------------------------- *)
(* Debug dump (--graph-out)                                         *)
(* --------------------------------------------------------------- *)

let to_json t =
  let node_json name =
    match find t name with
    | None -> Json.Null
    | Some n ->
      let line, _ = Tast_util.line_col n.loc in
      Json.Obj
        [
          ("name", Json.String n.name);
          ("unit", Json.String (Tast_util.normalize_path n.unit_.modname));
          ("source", Json.String n.unit_.source);
          ("line", Json.Int line);
          ("kind", Json.String (match n.kind with Func -> "func" | Value -> "value"));
          ("inline", Json.Bool n.inline);
          ("params", Json.Int (List.length n.params));
          ("callees", Json.List (List.map (fun c -> Json.String c) n.callees));
          ("externals", Json.List (List.map (fun c -> Json.String c) n.externals));
          ("scc", Json.Int (match scc_index t name with Some i -> i | None -> -1));
        ]
  in
  Json.Obj
    [
      ("schema", Json.String (Schema.id "callgraph"));
      ("nodes", Json.Int (List.length t.order));
      ("sccs", Json.Int (List.length t.sccs));
      ( "scc_sizes",
        Json.List
          (List.filter_map
             (fun members ->
               let n = List.length members in
               if n > 1 then
                 Some (Json.Obj
                   [ ("size", Json.Int n);
                     ("members", Json.List (List.map (fun m -> Json.String m) members)) ])
               else None)
             t.sccs) );
      ("graph", Json.List (List.map node_json t.order));
    ]
