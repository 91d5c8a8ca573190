(* Ballot storage in the style of Molnar et al. — the work the paper's
   Manchester-cell idea comes from (Section 1): each vote is committed
   to write-once cells the moment it is cast, so recorded votes cannot
   be altered, only vandalised detectably.

   Here the PROM is replaced by the patterned medium: one ewb pulse per
   heated dot, reading through the erb protocol.  The example casts
   votes, closes the poll, tallies, and then shows that flipping even
   one stored vote is physically impossible without leaving HH cells.

   Run with: dune exec examples/voting_machine.exe *)

let candidates = [| "Abelmann"; "Hartel"; "Khatib" |]

(* One ballot = one byte (candidate index), Manchester-encoded into 16
   dots of a ballot slot. *)
let dots_per_ballot = 16

let () =
  let medium =
    Pmedia.Medium.create (Pmedia.Medium.default_config ~rows:64 ~cols:64)
  in
  let pdev =
    Probe.Pdevice.create
      ~config:{ Probe.Pdevice.default_config with Probe.Pdevice.n_tips = 16 }
      medium
  in
  let cast slot candidate =
    let pattern = Codec.Manchester.encode (String.make 1 (Char.chr candidate)) in
    Probe.Pdevice.heat_run pdev ~start:(slot * dots_per_ballot) pattern
  in
  let read_ballot slot =
    let heated = Bytes.create (dots_per_ballot / 8) in
    Probe.Pdevice.erb_run pdev ~start:(slot * dots_per_ballot)
      ~len:dots_per_ballot ~dst:heated;
    Codec.Manchester.decode heated ~n_bytes:1
  in
  (* Election day. *)
  let votes = [ 0; 1; 1; 2; 1; 0; 2; 1; 0; 1 ] in
  List.iteri cast votes;
  Printf.printf "%d ballots cast\n" (List.length votes);

  (* Close of poll: tally by reading the write-once cells. *)
  let tally = Array.make (Array.length candidates) 0 in
  let spoiled = ref 0 in
  List.iteri
    (fun slot _ ->
      let d = read_ballot slot in
      if Codec.Manchester.is_clean d then begin
        let c = Char.code d.Codec.Manchester.payload.[0] in
        tally.(c) <- tally.(c) + 1
      end
      else incr spoiled)
    votes;
  Array.iteri
    (fun i c -> Printf.printf "  %-10s %d\n" candidates.(i) c)
    tally;
  Printf.printf "  spoiled: %d\n" !spoiled;

  (* A corrupt official tries to flip ballot 3 (for candidate 2) to
     candidate 1.  Cells can only gain heat: the attempt necessarily
     creates an HH cell. *)
  print_endline "official attempts to rewrite ballot 3...";
  let pattern = Codec.Manchester.encode (String.make 1 (Char.chr 1)) in
  Probe.Pdevice.heat_run pdev ~start:(3 * dots_per_ballot) pattern;
  let d = read_ballot 3 in
  if Codec.Manchester.is_clean d then print_endline "  rewrite went unnoticed (bug!)"
  else
    Printf.printf "  ballot 3 now shows %d invalid HH cell(s): fraud evident\n"
      d.Codec.Manchester.n_tampered;

  (* History independence: the medium stores the same pattern no matter
     the order ballots were cast in; verify by comparing two runs. *)
  let fingerprint m =
    let buf = Buffer.create 256 in
    for slot = 0 to 15 do
      for dot = slot * dots_per_ballot to (slot * dots_per_ballot) + 15 do
        Buffer.add_char buf
          (if Pmedia.Dot.is_heated (Pmedia.Medium.get m dot) then 'H' else 'U')
      done
    done;
    Hash.Sha256.to_hex (Hash.Sha256.digest_string (Buffer.contents buf))
  in
  let run_order votes =
    let m = Pmedia.Medium.create (Pmedia.Medium.default_config ~rows:64 ~cols:64) in
    let p =
      Probe.Pdevice.create
        ~config:{ Probe.Pdevice.default_config with Probe.Pdevice.n_tips = 16 }
        m
    in
    List.iter
      (fun (slot, candidate) ->
        let pat = Codec.Manchester.encode (String.make 1 (Char.chr candidate)) in
        Probe.Pdevice.heat_run p ~start:(slot * dots_per_ballot) pat)
      votes;
    fingerprint m
  in
  let ballots = [ (0, 2); (1, 0); (2, 1) ] in
  let a = run_order ballots and b = run_order (List.rev ballots) in
  Printf.printf "medium state independent of casting order: %b\n"
    (String.equal a b)
