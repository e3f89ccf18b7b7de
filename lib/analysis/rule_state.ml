(* R3: no naked module-level mutable state where worker domains can
   reach it.  Reachability is over-approximated by the compilation
   units' import closure seeded at every Pool-combinator caller —
   coarse, but sound for "could a task closure touch this module". *)

let allowlist = [ "lib/exec"; "lib/telemetry" ]

let pool_entry_points =
  [
    "Pool.parallel_map"; "Pool.parallel_filter_map";
    "Pool.parallel_init_floats"; "Pool.parallel_map_streams";
  ]

let uses_pool (unit : Loader.unit_info) =
  match unit.impl with
  | None -> false
  | Some str ->
    let found = ref false in
    Tast_util.iter_structure_expressions str (fun ~symbol:_ e ->
        match Tast_util.ident_name e with
        | Some name ->
          if
            List.exists
              (fun suffix -> Tast_util.has_suffix ~suffix name)
              pool_entry_points
          then found := true
        | None -> ());
    !found

(* Transitive closure of cmt imports, restricted to loaded units. *)
let reachable_modnames (loader : Loader.t) =
  let by_modname = Hashtbl.create 64 in
  List.iter
    (fun (u : Loader.unit_info) -> Hashtbl.replace by_modname u.modname u)
    loader.units;
  let seen = Hashtbl.create 64 in
  let rec visit modname =
    if not (Hashtbl.mem seen modname) then begin
      Hashtbl.add seen modname ();
      match Hashtbl.find_opt by_modname modname with
      | Some u -> List.iter visit u.imports
      | None -> ()
    end
  in
  List.iter
    (fun (u : Loader.unit_info) -> if uses_pool u then visit u.modname)
    loader.units;
  seen

let creates_toplevel_mutex (str : Typedtree.structure) =
  let found = ref false in
  Tast_util.iter_toplevel_bindings str (fun ~symbol:_ vb ->
      match Tast_util.head_ident vb.vb_expr with
      | Some ("Stdlib.Mutex.create" | "Mutex.create") -> found := true
      | _ -> ());
  !found

let toplevel_refs (str : Typedtree.structure) =
  let acc = ref [] in
  Tast_util.iter_toplevel_bindings str (fun ~symbol vb ->
      match Tast_util.head_ident vb.vb_expr with
      | Some ("Stdlib.ref" | "ref") -> acc := (symbol, vb.vb_loc) :: !acc
      | _ -> ());
  List.rev !acc

let check_unit ~rule ~reachable (unit : Loader.unit_info) =
  match unit.impl with
  | None -> []
  | Some str ->
    if creates_toplevel_mutex str then []
    else
      let is_reachable = Hashtbl.mem reachable unit.modname in
      List.map
        (fun (symbol, loc) ->
          let name = if symbol = "" then "_" else symbol in
          if is_reachable then
            Rule.make_finding ~rule ~unit ~loc ~symbol ~detail:("ref-" ^ name)
              (Printf.sprintf
                 "module-level ref %s is reachable from Pool task closures; \
                  use Atomic.t or guard it with a mutex"
                 name)
          else
            Rule.make_finding ~rule ~severity:Finding.Info ~unit ~loc ~symbol
              ~detail:("ref-" ^ name)
              (Printf.sprintf
                 "module-level ref %s (not currently pool-reachable); prefer \
                  Atomic.t before it becomes shared"
                 name))
        (toplevel_refs str)

let rec rule =
  {
    Rule.id = "R3";
    name = "shared-state";
    severity = Finding.Error;
    doc =
      "flag module-level refs in units reachable from Ptrng_exec.Pool task \
       closures that are neither Atomic.t nor mutex-guarded";
    check =
      (fun loader ->
        let reachable = reachable_modnames loader in
        List.concat_map
          (fun unit ->
            if Loader.in_dirs ~dirs:allowlist unit then []
            else check_unit ~rule ~reachable unit)
          loader.Loader.units);
  }
