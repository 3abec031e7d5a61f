(* Length-prefixed framing: a 4-byte big-endian payload length followed
   by the payload bytes.  One JSON document per frame, both directions. *)

let max_frame_default = 4 * 1024 * 1024

exception Oversized of { length : int; limit : int }
exception Truncated

let really_write fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    match Unix.write_substring fd s !off (len - !off) with
    | 0 -> raise Truncated
    | n -> off := !off + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let really_read fd buf off len =
  let off = ref off and remaining = ref len in
  while !remaining > 0 do
    match Unix.read fd buf !off !remaining with
    | 0 -> raise Truncated
    | n ->
      off := !off + n;
      remaining := !remaining - n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    (* a peer that reset the connection closed it, just impolitely *)
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> raise Truncated
  done

(* Header and payload go out in one write: a peer that answers an
   oversized header and closes cannot do so between the two. *)
let write fd payload =
  let len = String.length payload in
  let frame = Bytes.create (4 + len) in
  Bytes.set_int32_be frame 0 (Int32.of_int len);
  Bytes.blit_string payload 0 frame 4 len;
  really_write fd (Bytes.unsafe_to_string frame)

let read ?(max_frame = max_frame_default) fd =
  let header = Bytes.create 4 in
  (* EOF is clean only at a frame boundary: 0 bytes before the header
     means the peer closed, 0 bytes anywhere later is [Truncated] *)
  let rec first () =
    match Unix.read fd header 0 4 with
    | 0 -> None
    | n -> Some n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> first ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> None
  in
  match first () with
  | None -> None
  | Some n ->
    if n < 4 then really_read fd header n (4 - n);
    let len = Int32.to_int (Bytes.get_int32_be header 0) in
    if len < 0 || len > max_frame then
      raise (Oversized { length = len; limit = max_frame });
    let payload = Bytes.create len in
    really_read fd payload 0 len;
    Some (Bytes.to_string payload)
