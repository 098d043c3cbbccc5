(* Seeded mutation fuzz for the decoders of image, store and wire
   bytes.  Each property mutates one valid input and demands that the
   decoder either decodes it or raises [Util.Codec.Reader.Corrupt]:
   any other exception fails the property. *)

(* The 9-byte uvarint that reads back as -1: a count or length field
   replaced by it must be rejected before it sizes anything. *)
let minus_one = "\xff\xff\xff\xff\xff\xff\xff\xff\x7f"

type mutation =
  | Set of int * char  (** replace one byte *)
  | Overwrite of int  (** replace the bytes at an offset with [minus_one] *)
  | Insert of int  (** insert [minus_one] at an offset *)

let apply s = function
  | Set (i, c) -> String.mapi (fun j x -> if j = i then c else x) s
  | Overwrite i ->
    let rest = i + String.length minus_one in
    String.sub s 0 i ^ minus_one
    ^ if rest < String.length s then String.sub s rest (String.length s - rest) else ""
  | Insert i -> String.sub s 0 i ^ minus_one ^ String.sub s i (String.length s - i)

let print = function
  | Set (i, c) -> Printf.sprintf "byte %d := %02x" i (Char.code c)
  | Overwrite i -> Printf.sprintf "overwrite -1 varint at %d" i
  | Insert i -> Printf.sprintf "insert -1 varint at %d" i

(* offsets are drawn below [window] and folded into the input's length
   once the (lazy) input exists *)
let within len = function
  | Set (i, c) -> Set (i mod len, c)
  | Overwrite i -> Overwrite (i mod len)
  | Insert i -> Insert (i mod len)

(* [property ~name ~seed input decode]: [count] mutations of the first
   [window] bytes of [input], drawn from a fixed seed so every run
   checks the same inputs *)
let property ?(count = 300) ?(window = 2000) ~name ~seed input decode =
  let fold m = within (min window (String.length (Lazy.force input))) m in
  let gen =
    let open QCheck.Gen in
    let pos = int_bound (window - 1) in
    oneof
      [
        map2 (fun i c -> Set (i, c)) pos char;
        map (fun i -> Overwrite i) pos;
        map (fun i -> Insert i) pos;
      ]
  in
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |])
    (QCheck.Test.make ~count ~name (QCheck.make ~print:(fun m -> print (fold m)) gen) (fun m ->
         match decode (apply (Lazy.force input) (fold m)) with
         | _ -> true
         | exception Util.Codec.Reader.Corrupt _ -> true))
