type t = Zeros | Text | Code | Numeric | Random

let all = [ Zeros; Text; Code; Numeric; Random ]

let name = function
  | Zeros -> "zeros"
  | Text -> "text"
  | Code -> "code"
  | Numeric -> "numeric"
  | Random -> "random"

let words =
  [|
    "the"; "of"; "and"; "a"; "to"; "in"; "is"; "you"; "that"; "it"; "he"; "was"; "for"; "on";
    "are"; "as"; "with"; "his"; "they"; "at"; "be"; "this"; "have"; "from"; "or"; "one"; "had";
    "by"; "word"; "but"; "not"; "what"; "all"; "were"; "we"; "when"; "your"; "can"; "said";
    "there"; "use"; "an"; "each"; "which"; "she"; "do"; "how"; "their"; "if"; "will";
  |]

let opcodes = [| 0x48; 0x89; 0x8b; 0xe8; 0xc3; 0x55; 0x5d; 0x90; 0x0f; 0x83; 0x85; 0x74; 0x75; 0xeb |]

let generate cls ~seed ~len =
  let rng = Util.Rng.create seed in
  match cls with
  | Zeros -> Bytes.make len '\000'
  | Random -> Util.Rng.bytes rng len
  | Text ->
    let buf = Buffer.create (len + 16) in
    while Buffer.length buf < len do
      Buffer.add_string buf (Util.Rng.choose rng words);
      Buffer.add_char buf ' '
    done;
    Bytes.of_string (String.sub (Buffer.contents buf) 0 len)
  | Code ->
    (* Instruction-stream-like: common opcodes, small immediates, repeated
       short sequences (function prologues/epilogues). *)
    let b = Bytes.create len in
    let i = ref 0 in
    while !i < len do
      if Util.Rng.int rng 10 < 3 && !i + 4 <= len then begin
        (* prologue-ish motif *)
        Bytes.set b !i '\x55';
        Bytes.set b (!i + 1) '\x48';
        Bytes.set b (!i + 2) '\x89';
        Bytes.set b (!i + 3) '\xe5';
        i := !i + 4
      end
      else begin
        Bytes.set b !i (Char.chr (Util.Rng.choose rng opcodes));
        incr i;
        if !i < len && Util.Rng.bool rng then begin
          Bytes.set b !i (Char.chr (Util.Rng.int rng 32));
          incr i
        end
      end
    done;
    b
  | Numeric ->
    (* Smoothly varying doubles: high-order bytes repeat between adjacent
       values, which is what makes scientific arrays gzip moderately. *)
    let b = Bytes.create len in
    let x = ref (Util.Rng.float rng 1000.) in
    let i = ref 0 in
    while !i < len do
      x := !x +. Util.Rng.gaussian rng ~mean:0. ~stddev:0.01;
      let bits = Int64.bits_of_float !x in
      let k = min 8 (len - !i) in
      for j = 0 to k - 1 do
        Bytes.set b (!i + j) (Char.chr (Int64.to_int (Int64.shift_right_logical bits (8 * (7 - j))) land 0xff))
      done;
      i := !i + k
    done;
    b

let sample_len = 8 * 4096

let measure algo cls =
  match algo with
  | Compress.Algo.Null -> 1.0
  | _ ->
    let sample = Bytes.unsafe_to_string (generate cls ~seed:0xABCDEFL ~len:sample_len) in
    let packed = Compress.Algo.compress algo sample in
    float_of_int (String.length packed) /. float_of_int sample_len

let table = Hashtbl.create 16

let ratio algo cls =
  match Hashtbl.find_opt table (algo, cls) with
  | Some r -> r
  | None ->
    let r = measure algo cls in
    Hashtbl.add table (algo, cls) r;
    r

let deflate_ratio cls = ratio Compress.Algo.Deflate cls

let to_tag = function
  | Zeros -> 0
  | Text -> 1
  | Code -> 2
  | Numeric -> 3
  | Random -> 4

let encode w t = Util.Codec.Writer.u8 w (to_tag t)

let decode r =
  match Util.Codec.Reader.u8 r with
  | 0 -> Zeros
  | 1 -> Text
  | 2 -> Code
  | 3 -> Numeric
  | 4 -> Random
  | n -> Util.Codec.Reader.corrupt "bad entropy tag %d" n
