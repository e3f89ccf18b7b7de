(** Whole-repo call graph over the loaded typedtrees.

    Nodes are value bindings (top level and nested [module M = struct])
    named by normalized fully-qualified path, e.g.
    ["Ptrng_noise.Source.fill"].  A name bound twice at one level keeps
    a node per binding: the last owns the plain name (other units'
    references resolve to it), earlier ones are suffixed ["#1"],
    ["#2"], ... in definition order.  Edges are resolved references:
    same-unit [Pident] uses resolve through a stamp table, cross-unit
    [Pdot] paths through {!Tast_util.normalize_path} (so dune's
    [Lib__Mod] mangling and the [Lib.Mod] alias meet at one node).
    Construction, SCC condensation and every adjacency list are
    deterministic. *)

type kind =
  | Func  (** Has syntactic parameters or an arrow type: runs per call. *)
  | Value
      (** Plain value binding: its right-hand side runs once at module
          initialization, so referencing it costs nothing per call. *)

type node = {
  name : string;       (** Normalized fully-qualified name. *)
  unit_ : Loader.unit_info;
  symbol : string;     (** Unqualified binding name. *)
  loc : Location.t;
  expr : Typedtree.expression;  (** Whole right-hand side. *)
  params : Typedtree.pattern list;  (** Peeled curried parameters. *)
  body : Typedtree.expression;      (** [expr] after peeling. *)
  kind : kind;
  inline : bool;       (** Binding carries [[@inline]]. *)
  mutable callees : string list;    (** Resolved in-graph names, sorted. *)
  mutable externals : string list;
      (** Normalized referenced paths with no node (stdlib, externals),
          sorted. *)
}

type resolver
(** Per-unit name resolution state (stamp table + module aliases). *)

type resolution =
  | Internal of string  (** A node of the graph, by canonical name. *)
  | External of string
      (** Canonical dotted path with no node (stdlib, C stubs, units
          outside the loaded set). *)
  | Local
      (** A function-local binding — its body is part of the enclosing
          node and needs no edge. *)

type t = {
  nodes : (string, node) Hashtbl.t;
  order : string list;  (** All node names, sorted. *)
  sccs : string list list;
      (** Strongly connected components, callees-first (reverse
          topological), members in discovery order. *)
  scc_of : (string, int) Hashtbl.t;  (** Node name to index in [sccs]. *)
  resolvers : (string, resolver) Hashtbl.t;
      (** Per-unit resolution state, keyed by unit modname. *)
}

val build : Loader.t -> t
(** Construct the graph of every loaded unit; pure, deterministic. *)

val find : t -> string -> node option
(** The node with the given canonical name, if any. *)

val mem : t -> string -> bool
(** Whether a canonical name has a node. *)

val resolve : t -> Loader.unit_info -> Path.t -> resolution
(** Resolve a referenced path in the context of the given unit:
    same-unit bindings through the stamp table, everything else
    through module-alias expansion and path normalization. *)

val resolve_head : t -> node -> Typedtree.expression -> resolution option
(** {!resolve} applied to an identifier expression (an application
    head), in the node's defining unit; [None] when the expression is
    not an identifier. *)

val scc_index : t -> string -> int option
(** Position of the node's SCC in the callees-first [sccs] order. *)

val scc_members : t -> string -> string list
(** Members of the SCC containing the named node ([[]] if unknown). *)

val reachable :
  t -> roots:string list -> follow:(node -> bool) ->
  (string, string option) Hashtbl.t
(** Breadth-first reachability from [roots] along callee edges,
    entering only nodes for which [follow] holds (roots included).
    The result maps each reached name to its BFS parent ([None] for a
    root) — feed it to {!witness} for a call-path explanation. *)

val witness : (string, string option) Hashtbl.t -> string -> string list
(** Call path from a root to the named node, root first, as recorded by
    {!reachable}. *)

val to_json : t -> Ptrng_telemetry.Json.t
(** The [--graph-out] dump (schema ["ptrng-callgraph/1"]). *)
