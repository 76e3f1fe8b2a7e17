(* The result protocol: a detail line, then the result object last. *)

module Json = Certdb_obs.Obs.Json

let metric value unit = (Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit) ])

let emit ~correct ~attempted ~failed ~detail metrics =
  print_endline (Json.to_string (Json.Obj [ ("detail", detail) ]));
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", Json.Obj (List.map (fun (n, v, u) -> (n, metric v u)) metrics));
          ]))

