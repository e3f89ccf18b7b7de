let all =
  [
    Rule_determinism.rule;
    Rule_float.rule;
    Rule_state.rule;
    Rule_span.rule;
    Rule_interface.rule;
    Rule_hotpath.rule;
    Rule_rng.rule;
    Rule_schema.rule;
  ]

let find id =
  let id = String.uppercase_ascii id in
  List.find_opt (fun (r : Rule.t) -> r.id = id) all

let select spec =
  match String.lowercase_ascii (String.trim spec) with
  | "" | "all" -> Ok all
  | _ ->
    let ids =
      List.filter
        (fun s -> s <> "")
        (List.map String.trim (String.split_on_char ',' spec))
    in
    let missing = List.filter (fun id -> find id = None) ids in
    if missing <> [] then
      Error
        (Printf.sprintf "unknown rule(s) %s; known: %s"
           (String.concat ", " missing)
           (String.concat ", " (List.map (fun (r : Rule.t) -> r.id) all)))
    else
      Ok
        (List.filter
           (fun (r : Rule.t) ->
             List.exists
               (fun id -> String.uppercase_ascii id = r.id)
               ids)
           all)
