let magic = 0xFE
let max_payload = 255

type message =
  | Heartbeat of { vehicle_type : int; autopilot : int; base_mode : int; status : int }
  | Attitude of { time_ms : int; roll_cdeg : int; pitch_cdeg : int; yaw_cdeg : int }
  | Command of { command : int; param1 : int; param2 : int; confirmation : int }
  | Raw of { msgid : int; payload : bytes }

let msgid = function
  | Heartbeat _ -> 0
  | Attitude _ -> 30
  | Command _ -> 76
  | Raw { msgid; _ } -> msgid

type frame = { seq : int; sysid : int; compid : int; message : message }

(* CRC-16/X.25 (the MAVLink accumulator). *)
let crc_x25 ?(init = 0xFFFF) b ~off ~len =
  let crc = ref init in
  for i = off to off + len - 1 do
    let tmp = (Char.code (Bytes.get b i) lxor !crc) land 0xFF in
    let tmp = (tmp lxor (tmp lsl 4)) land 0xFF in
    crc :=
      ((!crc lsr 8) lxor (tmp lsl 8) lxor (tmp lsl 3) lxor (tmp lsr 4))
      land 0xFFFF
  done;
  !crc

let payload_of = function
  | Heartbeat { vehicle_type; autopilot; base_mode; status } ->
    let b = Bytes.create 4 in
    Bytes.set b 0 (Char.chr (vehicle_type land 0xff));
    Bytes.set b 1 (Char.chr (autopilot land 0xff));
    Bytes.set b 2 (Char.chr (base_mode land 0xff));
    Bytes.set b 3 (Char.chr (status land 0xff));
    b
  | Attitude { time_ms; roll_cdeg; pitch_cdeg; yaw_cdeg } ->
    let b = Bytes.create 10 in
    Bytes.set_int32_le b 0 (Int32.of_int time_ms);
    Bytes.set_int16_le b 4 roll_cdeg;
    Bytes.set_int16_le b 6 pitch_cdeg;
    Bytes.set_int16_le b 8 yaw_cdeg;
    b
  | Command { command; param1; param2; confirmation } ->
    let b = Bytes.create 7 in
    Bytes.set_uint16_le b 0 command;
    Bytes.set_int16_le b 2 param1;
    Bytes.set_int16_le b 4 param2;
    Bytes.set b 6 (Char.chr (confirmation land 0xff));
    b
  | Raw { payload; _ } -> payload

let message_of ~msgid payload =
  match msgid with
  | 0 when Bytes.length payload = 4 ->
    Ok
      (Heartbeat
         {
           vehicle_type = Char.code (Bytes.get payload 0);
           autopilot = Char.code (Bytes.get payload 1);
           base_mode = Char.code (Bytes.get payload 2);
           status = Char.code (Bytes.get payload 3);
         })
  | 30 when Bytes.length payload = 10 ->
    Ok
      (Attitude
         {
           time_ms =
             Int32.to_int (Bytes.get_int32_le payload 0) land 0xffff_ffff;
           roll_cdeg = Bytes.get_int16_le payload 4;
           pitch_cdeg = Bytes.get_int16_le payload 6;
           yaw_cdeg = Bytes.get_int16_le payload 8;
         })
  | 76 when Bytes.length payload = 7 ->
    Ok
      (Command
         {
           command = Bytes.get_uint16_le payload 0;
           param1 = Bytes.get_int16_le payload 2;
           param2 = Bytes.get_int16_le payload 4;
           confirmation = Char.code (Bytes.get payload 6);
         })
  | (0 | 30 | 76) -> Error "mavlink: wrong payload length for message id"
  | msgid -> Ok (Raw { msgid; payload })

let header_len = 6
let trailer_len = 2

let encode f =
  let payload = payload_of f.message in
  let plen = Bytes.length payload in
  if plen > max_payload then invalid_arg "Mavlink.encode: payload too long";
  let b = Bytes.create (header_len + plen + trailer_len) in
  Bytes.set b 0 (Char.chr magic);
  Bytes.set b 1 (Char.chr plen);
  Bytes.set b 2 (Char.chr (f.seq land 0xff));
  Bytes.set b 3 (Char.chr (f.sysid land 0xff));
  Bytes.set b 4 (Char.chr (f.compid land 0xff));
  Bytes.set b 5 (Char.chr (msgid f.message land 0xff));
  Bytes.blit payload 0 b header_len plen;
  (* CRC covers everything after the magic. *)
  Bytes.set_uint16_le b (header_len + plen)
    (crc_x25 b ~off:1 ~len:(header_len - 1 + plen));
  b

let decode b =
  let len = Bytes.length b in
  if len < header_len + trailer_len then Error "mavlink: frame too short"
  else if Char.code (Bytes.get b 0) <> magic then Error "mavlink: bad magic"
  else begin
    let plen = Char.code (Bytes.get b 1) in
    if header_len + plen + trailer_len > len then
      Error "mavlink: declared length exceeds the buffer"
    else begin
      let crc = Bytes.get_uint16_le b (header_len + plen) in
      if crc <> crc_x25 b ~off:1 ~len:(header_len - 1 + plen) then
        Error "mavlink: bad checksum"
      else begin
        let payload = Bytes.sub b header_len plen in
        match message_of ~msgid:(Char.code (Bytes.get b 5)) payload with
        | Ok message ->
          Ok
            {
              seq = Char.code (Bytes.get b 2);
              sysid = Char.code (Bytes.get b 3);
              compid = Char.code (Bytes.get b 4);
              message;
            }
        | Error _ as e -> e
      end
    end
  end

(* The CVE-2024-38951 code shape: trust the header's length field and
   copy that many bytes into the receive buffer, validating afterwards.
   The copy goes through [dst]'s capability — on CHERI an oversized
   declaration faults before a single out-of-bounds byte lands. *)
let decode_into mem ~dst b =
  let len = Bytes.length b in
  if len < header_len + trailer_len then Error "mavlink: frame too short"
  else if Char.code (Bytes.get b 0) <> magic then Error "mavlink: bad magic"
  else begin
    let declared = Char.code (Bytes.get b 1) in
    (* Unchecked: [declared] is used for the copy even if it exceeds the
       frame or the destination. Missing source bytes read as zero, as a
       heap over-read would. *)
    let staging = Bytes.make declared '\000' in
    let available = max 0 (min declared (len - header_len)) in
    Bytes.blit b header_len staging 0 available;
    Cheri.Tagged_memory.blit_in mem ~cap:dst
      ~addr:(Cheri.Capability.cursor dst)
      ~src:staging ~src_off:0 ~len:declared;
    match decode b with
    | Ok frame -> Ok (frame, declared)
    | Error _ as e -> e
  end

let forge_oversized ~declared_len =
  let b = Bytes.create (header_len + trailer_len) in
  Bytes.set b 0 (Char.chr magic);
  Bytes.set b 1 (Char.chr (declared_len land 0xff));
  Bytes.set b 2 '\000';
  Bytes.set b 3 (Char.chr 0xBA);
  Bytes.set b 4 (Char.chr 0xD1);
  Bytes.set b 5 '\000';
  Bytes.set_uint16_le b header_len 0xBEEF (* CRC is never reached *);
  b

let pp fmt f =
  let body =
    match f.message with
    | Heartbeat { vehicle_type; status; _ } ->
      Printf.sprintf "HEARTBEAT type=%d status=%d" vehicle_type status
    | Attitude { roll_cdeg; pitch_cdeg; yaw_cdeg; _ } ->
      Printf.sprintf "ATTITUDE roll=%.1f pitch=%.1f yaw=%.1f"
        (float_of_int roll_cdeg /. 100.)
        (float_of_int pitch_cdeg /. 100.)
        (float_of_int yaw_cdeg /. 100.)
    | Command { command; confirmation; _ } ->
      Printf.sprintf "COMMAND %d conf=%d" command confirmation
    | Raw { msgid; payload } ->
      Printf.sprintf "RAW msgid=%d len=%d" msgid (Bytes.length payload)
  in
  Format.fprintf fmt "[sys%d comp%d seq%d] %s" f.sysid f.compid f.seq body
