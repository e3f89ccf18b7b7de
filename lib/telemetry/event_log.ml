let channel : out_channel option ref = ref None
let t0 = ref 0.0

(* One lock serializes whole lines, so events emitted from Ptrng_exec
   worker domains never interleave mid-line. *)
let mu = Mutex.create ()

let close () =
  match !channel with
  | None -> ()
  | Some oc ->
    channel := None;
    close_out_noerr oc

let open_ path =
  close ();
  channel := Some (open_out path);
  t0 := Clock.now ()


let emit ?(kind = "event") fields =
  if !Registry.on then
    match !channel with
    | None -> ()
    | Some _ ->
      let line =
        Json.Obj
          (("ev", Json.String kind)
          :: ("t", Json.num (Clock.now () -. !t0))
          :: fields)
      in
      let text = Json.to_string line in
      Mutex.protect mu (fun () ->
          match !channel with
          | None -> ()
          | Some oc ->
            output_string oc text;
            output_char oc '\n';
            flush oc)
