(* The benchmark's output: human-readable lines as it goes, then one
   JSON result line with every metric by name and unit. *)

let metrics : (string * float * string) list ref = ref []

let emit name value unit = metrics := (name, value, unit) :: !metrics
let note fmt = Printf.printf (fmt ^^ "\n%!")

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result ~correct ~attempted ~failed =
  let ms =
    List.rev !metrics
    |> List.map (fun (n, v, u) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_num v) u)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " ms)

