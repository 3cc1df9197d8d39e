exception Bad_request of string

let max_head_bytes = 64 * 1024

let max_body_bytes = 64 * 1024 * 1024

type request = {
  meth : string;
  path : string;
  headers : (string * string) list;
  body : string;
}

let header r name = List.assoc_opt (String.lowercase_ascii name) r.headers

let wants_close r =
  match header r "connection" with
  | Some v -> String.lowercase_ascii (String.trim v) = "close"
  | None -> false

(* ------------------------------------------------------------------ *)
(* Buffered reading                                                   *)

type conn = {
  fd : Unix.file_descr;
  mutable pending : string;  (** bytes read but not yet consumed *)
}

let conn fd = { fd; pending = "" }

let chunk_size = 8192

(* false on EOF *)
let read_more c =
  let chunk = Bytes.create chunk_size in
  let n = Unix.read c.fd chunk 0 chunk_size in
  if n = 0 then false
  else begin
    c.pending <- c.pending ^ Bytes.sub_string chunk 0 n;
    true
  end

let find_substring hay needle from =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  go (max 0 from)

(* Read until [pending] holds a complete header block; returns the head
   (without the final CRLFCRLF) and leaves the rest in [pending]. [None]
   on EOF before any byte. *)
let read_head c =
  let rec go scanned_upto =
    match find_substring c.pending "\r\n\r\n" (scanned_upto - 3) with
    | Some i ->
        let head = String.sub c.pending 0 i in
        c.pending <-
          String.sub c.pending (i + 4) (String.length c.pending - i - 4);
        Some head
    | None ->
        if String.length c.pending > max_head_bytes then
          raise (Bad_request "request head too large");
        let before = String.length c.pending in
        if read_more c then go before
        else if before = 0 then None
        else raise (Bad_request "connection closed mid-request")
  in
  go 0

let read_body c len =
  if len > max_body_bytes then raise (Bad_request "request body too large");
  let rec fill () =
    if String.length c.pending < len then
      if read_more c then fill ()
      else raise (Bad_request "connection closed mid-body")
  in
  fill ();
  let body = String.sub c.pending 0 len in
  c.pending <- String.sub c.pending len (String.length c.pending - len);
  body

let split_lines head = String.split_on_char '\n' head |> List.map String.trim

let parse_header_line line =
  match String.index_opt line ':' with
  | None -> raise (Bad_request (Printf.sprintf "malformed header %S" line))
  | Some i ->
      ( String.lowercase_ascii (String.trim (String.sub line 0 i)),
        String.trim (String.sub line (i + 1) (String.length line - i - 1)) )

let parse_request_line line =
  match String.split_on_char ' ' line with
  | [ meth; path; version ]
    when version = "HTTP/1.1" || version = "HTTP/1.0" ->
      (String.uppercase_ascii meth, path)
  | _ -> raise (Bad_request (Printf.sprintf "malformed request line %S" line))

let read_request c =
  match read_head c with
  | None -> None
  | Some head ->
      let lines = split_lines head in
      let meth, path =
        match lines with
        | first :: _ -> parse_request_line first
        | [] -> raise (Bad_request "empty request head")
      in
      let headers =
        List.filter_map
          (fun l -> if l = "" then None else Some (parse_header_line l))
          (List.tl lines)
      in
      if List.mem_assoc "transfer-encoding" headers then
        raise (Bad_request "chunked transfer encoding is not supported");
      let body =
        match List.assoc_opt "content-length" headers with
        | Some v -> (
            match int_of_string_opt (String.trim v) with
            | Some len when len >= 0 -> read_body c len
            | Some _ | None -> raise (Bad_request "invalid Content-Length"))
        | None ->
            if meth = "POST" || meth = "PUT" then
              raise (Bad_request "Content-Length required")
            else ""
      in
      Some { meth; path; headers; body }

(* ------------------------------------------------------------------ *)
(* Writing                                                            *)

let reason = function
  | 200 -> "OK"
  | 201 -> "Created"
  | 204 -> "No Content"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 413 -> "Payload Too Large"
  | 422 -> "Unprocessable Entity"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | c -> if c >= 200 && c < 300 then "OK" else "Error"

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

let write_response ?(content_type = "application/json") ?(keep_alive = true)
    ?(headers = []) fd ~status ~body =
  let extra =
    String.concat ""
      (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) headers)
  in
  let head =
    Printf.sprintf
      "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\
       Connection: %s\r\n%s\r\n"
      status (reason status) content_type (String.length body)
      (if keep_alive then "keep-alive" else "close")
      extra
  in
  write_all fd (head ^ body)

(* ------------------------------------------------------------------ *)
(* Client                                                             *)

type client = { c : conn; host : string }

let connect ~host ~port =
  let addrs =
    Unix.getaddrinfo host (string_of_int port)
      [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM; Unix.AI_FAMILY Unix.PF_INET ]
  in
  let addr =
    match addrs with
    | { Unix.ai_addr; _ } :: _ -> ai_addr
    | [] ->
        Unix.ADDR_INET (Unix.inet_addr_of_string host, port)
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd addr
   with e ->
     Unix.close fd;
     raise e);
  { c = conn fd; host }

let close cl = try Unix.close cl.c.fd with Unix.Unix_error _ -> ()

let parse_status_line line =
  match String.split_on_char ' ' line with
  | version :: code :: _ when String.length version >= 5 -> (
      match int_of_string_opt code with
      | Some status -> status
      | None -> raise (Bad_request (Printf.sprintf "bad status line %S" line)))
  | _ -> raise (Bad_request (Printf.sprintf "bad status line %S" line))

let read_response c =
  match read_head c with
  | None -> raise End_of_file
  | Some head ->
      let lines = split_lines head in
      let status = parse_status_line (List.hd lines) in
      let headers =
        List.filter_map
          (fun l -> if l = "" then None else Some (parse_header_line l))
          (List.tl lines)
      in
      let body =
        match List.assoc_opt "content-length" headers with
        | Some v -> (
            match int_of_string_opt (String.trim v) with
            | Some len when len >= 0 -> read_body c len
            | Some _ | None -> raise (Bad_request "invalid Content-Length"))
        | None -> ""
      in
      (status, headers, body)

let call_full ?(close_after = false) ?(headers = []) cl ~meth ~path
    ?(body = "") () =
  let extra =
    String.concat ""
      (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) headers)
  in
  let head =
    Printf.sprintf
      "%s %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\n\
       Content-Length: %d\r\nConnection: %s\r\n%s\r\n"
      meth path cl.host (String.length body)
      (if close_after then "close" else "keep-alive")
      extra
  in
  write_all cl.c.fd (head ^ body);
  read_response cl.c

let call_on ?close_after ?headers cl ~meth ~path ?body () =
  let status, _, body = call_full ?close_after ?headers cl ~meth ~path ?body () in
  (status, body)

let call ?headers cl ~meth ~path ?body () = call_on ?headers cl ~meth ~path ?body ()

let request ?headers ~host ~port ~meth ~path ?body () =
  let cl = connect ~host ~port in
  Fun.protect
    ~finally:(fun () -> close cl)
    (fun () -> call_on ~close_after:true ?headers cl ~meth ~path ?body ())
