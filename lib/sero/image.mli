(** Device-image persistence for the command-line tools: serialises the
    full physical state of a simulated device (every dot, defect map,
    frame generations) to a file, so that $(b,serotool) invocations
    compose like operations on a real disk.

    The PRNG position and the time/energy ledger are not preserved —
    a reloaded device is "powered on" fresh; its medium is bit-exact. *)

val save : Device.t -> string -> unit
(** [save dev path] writes a [SEROIMG4] image: configuration, the
    endurance lifecycle state (remap table, spare pool, health ledger,
    grown-defect list, device state) and every dot.
    @raise Sys_error on IO failure. *)

val load : string -> (Device.t, string) result
(** Recreate a device from [path]; the configuration (block count, line
    size, tips, material, costs) is restored from the image header.
    Both [SEROIMG4] and legacy [SEROIMG3] images load; a v3 image gets
    {!Device.default_endurance} (lifecycle off). *)
