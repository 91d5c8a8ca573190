type policy = Sero.Queue.arbiter =
  | Tenant_blind
  | Arrival_order
  | Fair_share of (int -> float)

let policy_name = function
  | Tenant_blind -> "blind"
  | Arrival_order -> "fifo"
  | Fair_share _ -> "wfs"

let install = Sero.Queue.set_arbiter
