(* R2: numeric safety in the fit/model layers.  Works on the typed
   tree, so only genuinely float-typed operands of the polymorphic
   comparisons are flagged — `n = 0` on ints passes. *)

let scope = [ "lib/measure"; "lib/model" ]

let comparison_ops = [ "Stdlib.="; "Stdlib.<>"; "Stdlib.compare" ]

let float_of_int_names = [ "Stdlib.float_of_int"; "Stdlib.Float.of_int" ]

let short_op name =
  match String.rindex_opt name '.' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> name

(* `x /. float_of_int n` with n a bare ident: the possibly-zero local. *)
let div_by_local (args : (Asttypes.arg_label * Typedtree.expression option) list)
    =
  match List.filter_map snd args with
  | [ _; divisor ] -> (
    match divisor.exp_desc with
    | Typedtree.Texp_apply (f, inner) -> (
      match (Tast_util.ident_name f, List.filter_map snd inner) with
      | Some conv, [ arg ] when List.mem conv float_of_int_names ->
        Tast_util.ident_name arg
      | _ -> None)
    | _ -> None)
  | _ -> None

let check_item ~rule ~(unit : Loader.unit_info) ~literal_idents item =
  let guarded = Tast_util.guarded_idents item in
  let symbol =
    match item.Typedtree.str_desc with
    | Typedtree.Tstr_value (_, vb :: _) -> (
      match Tast_util.pattern_names vb.vb_pat with n :: _ -> n | [] -> "")
    | _ -> ""
  in
  let acc = ref [] in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
          (match e.Typedtree.exp_desc with
           | Typedtree.Texp_apply (f, args) -> (
             match Tast_util.ident_name f with
             | Some op when List.mem op comparison_ops ->
               let floaty =
                 List.exists
                   (function
                     | _, Some (a : Typedtree.expression) ->
                       Tast_util.is_float_type a.exp_type
                     | _ -> false)
                   args
               in
               if floaty then
                 acc :=
                   Rule.make_finding ~rule ~unit ~loc:e.exp_loc ~symbol
                     ~detail:("float-" ^ short_op op)
                     (Printf.sprintf
                        "exact float comparison (%s); use \
                         Ptrng_stats.Float_cmp.near_zero or an explicit \
                         ordering"
                        (short_op op))
                   :: !acc
             | Some "Stdlib./." -> (
               match div_by_local args with
               | Some local
                 when (not (List.mem local literal_idents))
                      && not (List.mem local guarded) ->
                 acc :=
                   Rule.make_finding ~rule ~unit ~loc:e.exp_loc ~symbol
                     ~detail:("div-by-" ^ local)
                     (Printf.sprintf
                        "division by float_of_int %s with no guard on %s in \
                         this definition — zero gives inf/nan"
                        local local)
                   :: !acc
               | _ -> ())
             | _ -> ())
           | _ -> ());
          Tast_iterator.default_iterator.expr sub e);
    }
  in
  it.structure_item it item;
  !acc

let check_unit ~rule (unit : Loader.unit_info) =
  match unit.impl with
  | None -> []
  | Some str ->
    let literal_idents = Tast_util.int_literal_bound_idents str in
    List.concat_map
      (check_item ~rule ~unit ~literal_idents)
      str.Typedtree.str_items

let rec rule =
  {
    Rule.id = "R2";
    name = "float-safety";
    severity = Finding.Warning;
    doc =
      "flag exact float =/<>/compare and unguarded x /. float_of_int n in \
       lib/measure and lib/model";
    check =
      (fun loader ->
        List.concat_map
          (fun unit ->
            if loader.Loader.scope_all || Loader.in_dirs ~dirs:scope unit then
              check_unit ~rule unit
            else [])
          loader.Loader.units);
  }
