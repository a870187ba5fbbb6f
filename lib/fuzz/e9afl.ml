(** The AFL edge-map size.  Paper §5 cites E9AFL as the way to boost
    profiling coverage on binaries; {!Campaign} keeps E9AFL's map
    geometry and hashes each pair of consecutive check sites into
    [map_size] buckets ([((prev lsr 1) lxor cur) land (map_size - 1)]),
    so the check instrumentation doubles as the coverage probe. *)
let map_size = 1 lsl 16
