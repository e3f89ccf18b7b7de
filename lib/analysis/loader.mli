(** Discovery and loading of dune's [.cmt]/[.cmti] artifacts.

    A {e unit} pairs one compilation unit's typed implementation with
    its typed interface (when an [.mli] exists).  [load_dirs] scans a
    build root — [_build/default] from the repo root, or ["."] from
    inside a dune action — recursively, so both library ([.objs]) and
    executable ([.eobjs]) artifact directories are found.  Generated
    wrapper modules (dune's [*.ml-gen] alias files) are skipped: they
    have no source to lint. *)

type unit_info = {
  modname : string;   (** Compilation unit name, e.g. ["Ptrng_measure__Fit"]. *)
  source : string;    (** Source path recorded in the cmt, e.g. ["lib/measure/fit.ml"]. *)
  impl : Typedtree.structure option;  (** From the [.cmt]. *)
  intf : Typedtree.signature option;  (** From the [.cmti], when present. *)
  has_mli : bool;
  imports : string list;  (** Compilation units this one depends on. *)
  cmt_path : string;
}

type t = {
  units : unit_info list;
  scope_all : bool;
      (** [true] in fixture mode: rules skip their path-based scoping
          and apply to every unit (used by test/test_lint.ml). *)
}

val load_dirs : ?scope_all:bool -> root:string -> string list -> t
(** [load_dirs ~root dirs] loads every annotation file found under
    [root/dir] for each existing [dir].  Unreadable or foreign files
    are skipped silently — a partial build must not crash the linter,
    the gate relies on dune having built [@check] first. *)

val load_files : ?scope_all:bool -> string list -> t
(** Load explicit [.cmt]/[.cmti] paths (test fixtures). *)


val in_dirs : dirs:string list -> unit_info -> bool
(** The unit's source lives under one of [dirs] (path-prefix match). *)
