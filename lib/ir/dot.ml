let cluster_colors =
  [| "lightblue"; "lightgreen"; "lightsalmon"; "plum"; "khaki"; "lightcyan";
     "mistyrose"; "honeydew" |]

let emit ppf g ~color =
  Format.fprintf ppf "digraph ddg {@.  rankdir=TB;@.";
  Array.iter
    (fun (o : Operation.t) ->
      let shape = if Operation.is_memory o then "box" else "ellipse" in
      let label =
        match o.Operation.mem with
        | Some m ->
            Format.asprintf "n%d %s\\n%a" o.Operation.id
              (Opcode.to_string o.Operation.opcode)
              Mem_access.pp m
        | None ->
            Printf.sprintf "n%d %s" o.Operation.id
              (Opcode.to_string o.Operation.opcode)
      in
      Format.fprintf ppf
        "  n%d [shape=%s, label=\"%s\", style=filled, fillcolor=%s];@."
        o.Operation.id shape label (color o.Operation.id))
    (Ddg.ops g);
  List.iter
    (fun (e : Edge.t) ->
      let style = if e.Edge.distance > 0 then "dashed" else "solid" in
      let label =
        if e.Edge.distance > 0 then
          Printf.sprintf "%s d=%d" (Edge.kind_to_string e.Edge.kind)
            e.Edge.distance
        else Edge.kind_to_string e.Edge.kind
      in
      Format.fprintf ppf "  n%d -> n%d [style=%s, label=\"%s\"];@." e.Edge.src
        e.Edge.dst style label)
    (Ddg.edges g);
  Format.fprintf ppf "}@."

let ddg ppf g = emit ppf g ~color:(fun _ -> "white")

let scheduled ppf g ~cluster =
  emit ppf g ~color:(fun v ->
      cluster_colors.(cluster v mod Array.length cluster_colors))
