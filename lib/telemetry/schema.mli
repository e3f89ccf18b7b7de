(** Central registry of the repo's JSON wire-format schema tags.

    Every document the repo emits carries a ["schema"] field of the
    form ["ptrng-<name>/<version>"].  This module is the single source
    of truth for those tags: emitters call {!id} instead of spelling
    the literal, and the R9 lint rule flags any remaining literal that
    is unregistered or version-skewed.  See docs/STATIC_ANALYSIS.md. *)

type entry = {
  name : string;     (** Registry key, e.g. ["bench"]. *)
  version : int;     (** Current wire version. *)
  doc : string;      (** One-line description of the document. *)
}
(** One registered wire format. *)

val all : entry list
(** Every registered schema, sorted by name. *)

val find : string -> entry option
(** [find name] is the registry entry for [name], if registered. *)


val tag : string -> int -> string
(** [tag name v] is ["ptrng-<name>/<v>"] — no registry check; prefer
    {!id} in emitters. *)

val id : string -> string
(** [id name] is the registered tag ["ptrng-<name>/<version>"].
    @raise Invalid_argument if [name] is not registered. *)

val scan : string -> (string * int) list
(** [scan s] is every [(name, version)] occurrence of a
    ["ptrng-<name>/<version>"] tag inside [s], left to right — the
    scanner the R9 rule runs over string literals. *)
