let render ~header rows =
  let ncols = List.length header in
  let pad_row r =
    let len = List.length r in
    if len >= ncols then r else r @ List.init (ncols - len) (fun _ -> "")
  in
  let rows = List.map pad_row rows in
  let all = header :: rows in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell ->
          if i < ncols && String.length cell > widths.(i) then
            widths.(i) <- String.length cell)
        row)
    all;
  let buf = Buffer.create 1024 in
  let emit_row row =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf cell;
        if i < ncols - 1 then
          Buffer.add_string buf (String.make (widths.(i) - String.length cell) ' '))
      row;
    Buffer.add_char buf '\n'
  in
  emit_row header;
  emit_row (List.mapi (fun i _ -> String.make widths.(i) '-') header);
  List.iter emit_row rows;
  Buffer.contents buf

let print ~header rows = print_string (render ~header rows)

let fsec s =
  if s = 0.0 then "0 s"
  else if Float.abs s >= 1.0 then Printf.sprintf "%.3f s" s
  else if Float.abs s >= 1e-3 then Printf.sprintf "%.3f ms" (s *. 1e3)
  else if Float.abs s >= 1e-6 then Printf.sprintf "%.1f us" (s *. 1e6)
  else Printf.sprintf "%.1f ns" (s *. 1e9)

let ffactor r = Printf.sprintf "%.1fx" r
