(* cmt/cmti discovery.  Dune leaves library annotations under
   <dir>/.<lib>.objs/byte/ and executable annotations under
   <dir>/.<exe>.eobjs/byte/; rather than hard-coding that layout we
   walk the tree and take every annotation file, pairing .cmt with
   .cmti by path-sans-extension. *)

type unit_info = {
  modname : string;
  source : string;
  impl : Typedtree.structure option;
  intf : Typedtree.signature option;
  has_mli : bool;
  imports : string list;
  cmt_path : string;
}

type t = { units : unit_info list; scope_all : bool }

let rec walk dir acc =
  match Sys.readdir dir with
  | exception Sys_error _ -> acc
  | entries ->
    Array.fold_left
      (fun acc entry ->
        let path = Filename.concat dir entry in
        if Sys.is_directory path then walk path acc
        else if
          Filename.check_suffix path ".cmt" || Filename.check_suffix path ".cmti"
        then path :: acc
        else acc)
      acc entries

(* A generated wrapper (module-alias file dune synthesizes for wrapped
   libraries) has a "*.ml-gen" source — nothing a human wrote. *)
let is_generated_source src = Filename.check_suffix src "-gen"

let read_annot path =
  match Cmt_format.read_cmt path with
  | exception _ -> None
  | cmt -> (
    match cmt.cmt_sourcefile with
    | None -> None
    | Some src when is_generated_source src -> None
    | Some src -> Some (cmt, src))

let unit_of_pair ~cmt_path ~cmti_path =
  let impl_info = Option.bind cmt_path read_annot in
  let intf_info = Option.bind cmti_path read_annot in
  let annots = function
    | Some ((cmt : Cmt_format.cmt_infos), _) -> Some cmt.cmt_annots
    | None -> None
  in
  let impl =
    match annots impl_info with
    | Some (Cmt_format.Implementation str) -> Some str
    | _ -> None
  in
  let intf =
    match annots intf_info with
    | Some (Cmt_format.Interface sg) -> Some sg
    | _ -> None
  in
  match (impl_info, intf_info) with
  | None, None -> None
  | _ ->
    (* Prefer the implementation's metadata; an mli-only unit (no .ml,
       e.g. a types-only module) falls back to the interface's. *)
    let cmt, src =
      match (impl_info, intf_info) with
      | Some (cmt, src), _ -> (cmt, src)
      | None, Some (cmt, src) -> (cmt, src)
      | None, None -> assert false
    in
    Some
      {
        modname = cmt.cmt_modname;
        source = src;
        impl;
        intf;
        has_mli = intf_info <> None;
        imports = List.map fst cmt.cmt_imports;
        cmt_path =
          (match (cmt_path, cmti_path) with
          | Some p, _ | None, Some p -> p
          | None, None -> "");
      }

let units_of_paths paths =
  (* Group .cmt/.cmti by path-sans-extension; iterate the sorted key
     list, not the table, so unit order never depends on hashing. *)
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun path ->
      let key = Filename.remove_extension path in
      let cmt, cmti =
        match Hashtbl.find_opt tbl key with
        | Some pair -> pair
        | None -> (None, None)
      in
      if Filename.check_suffix path ".cmti" then
        Hashtbl.replace tbl key (cmt, Some path)
      else Hashtbl.replace tbl key (Some path, cmti))
    paths;
  let keys =
    List.sort_uniq compare (List.map Filename.remove_extension paths)
  in
  let units =
    List.filter_map
      (fun key ->
        match Hashtbl.find_opt tbl key with
        | Some (cmt_path, cmti_path) -> unit_of_pair ~cmt_path ~cmti_path
        | None -> None)
      keys
  in
  List.sort (fun a b -> compare (a.source, a.modname) (b.source, b.modname)) units

let load_dirs ?(scope_all = false) ~root dirs =
  let paths =
    List.concat_map
      (fun dir ->
        let full = Filename.concat root dir in
        if Sys.file_exists full && Sys.is_directory full then walk full []
        else [])
      dirs
  in
  { units = units_of_paths paths; scope_all }

let load_files ?(scope_all = false) paths =
  { units = units_of_paths paths; scope_all }


let in_dirs ~dirs u =
  List.exists
    (fun d ->
      let d = if Filename.check_suffix d "/" then d else d ^ "/" in
      Tast_util.has_prefix ~prefix:d u.source)
    dirs
