"""Timing calibration for the simulated Accent/Perq testbed.

Every simulated cost in the reproduction comes from this table.  The
constants are calibrated against numbers *stated in the paper*:

* A local disk fault costs **40.8 ms** and a remote imaginary fault
  **≈115 ms** (§4.3.3: "115 milliseconds vs. 40.8 milliseconds").
* Bulk pure-copy shipment moves one 512-byte page end-to-end in
  **≈33 ms** (derived from Table 4-5 ÷ Table 4-1: e.g. Minprog
  142,336 B / 8.5 s ≈ 30.6 ms/page; Lisp-T 2,203,136 B / 157 s ≈
  36.5 ms/page; PM-Start ≈ 35.1; Chess ≈ 30.6).
* The Core context message takes **≈1 s** in all cases (§4.3.2).
* Excision: AMap construction plus RIMAS collapse dominate (Table 4-4);
  RIMAS collapse is memory-mapping work proportional to the number of
  contiguous real-memory runs, at ≈4 ms/run (fits all seven rows), and
  AMap construction is proportional to process-map complexity.
* Insertion ranges 263 ms (Minprog) to 853 ms (Lisp-Del) (§4.3.1), fit
  by ≈4.1 ms per real run + 0.4 ms per process-map entry.
* The resident-set strategy pays ≈3 ms per *owed* (non-resident real)
  page to carve scattered resident pages out of the collapsed RIMAS
  region and build IOUs for the fragmented remainder.  This single
  constant reproduces the whole RS column of Table 4-5, including the
  otherwise-anomalous Lisp rows (≈69 ms/page vs ≈35 for Pasmac): Lisp
  ships 372 resident pages but owes ≈3,930, so carving dominates.

The NetMsgServer cost model is ``fixed + per_byte × wire_bytes`` per
message hop.  Solving the two paper constraints (33 ms/page bulk hop,
115 ms fault round trip) gives fixed ≈ 18 ms and ≈ 0.028 ms/byte; the
resulting fault RTT is ≈121 ms (5% above the paper's 115 ms), which the
calibration tests accept.
"""

from dataclasses import dataclass, field, fields, replace

MS = 1e-3
US = 1e-6


@dataclass(frozen=True)
class Calibration:
    """All tunable costs of the simulated testbed, in seconds/bytes."""

    # ---------------------------------------------------------- kernel/IPC --
    #: Local (same-host) IPC send+receive handling.
    ipc_local_s: float = 0.5 * MS
    #: Messages at or below this size are physically copied between
    #: address spaces; larger ones are remapped copy-on-write (§2.1).
    cow_threshold_bytes: int = 2048
    #: Cost of carrying out one deferred (copy-on-write) page copy.
    cow_break_s: float = 0.4 * MS

    # --------------------------------------------------------------- pager --
    #: FillZero fault: reserve a frame and zero it; no disk involved.
    fill_zero_s: float = 3.0 * MS
    #: Administrative cost of fielding any pager fault.
    pager_overhead_s: float = 6.0 * MS
    #: Entering the final user mapping and resuming the faulter.
    map_in_s: float = 2.0 * MS

    # ---------------------------------------------------------------- disk --
    #: Disk service per page read/write.  pager_overhead + disk_service
    #: + map_in = 40.8 ms, the paper's local-fault cost.
    disk_service_s: float = 32.8 * MS

    # ------------------------------------------------------------- network --
    #: One-way link propagation delay.
    link_latency_s: float = 1.0 * MS
    #: Raw link bandwidth (10 Mbit Ethernet).
    link_bandwidth_bps: float = 10e6
    #: Per-message-hop fixed NetMsgServer cost.
    nms_fixed_s: float = 10.0 * MS
    #: Per-byte NetMsgServer processing cost.
    nms_per_byte_s: float = 42.0 * US
    #: Data bytes per fragment when a message is physically shipped.
    #: Sized so a one-page imaginary read reply (page + descriptors)
    #: fits one fragment — otherwise every fault pays the per-fragment
    #: fixed cost twice, which the real NetMsgServer did not.
    fragment_data_bytes: int = 576
    #: Per-fragment header bytes on the wire.
    fragment_header_bytes: int = 32

    # ------------------------------------------------- reliable transport --
    # These only bite when a FaultInjector is attached; on a perfect
    # network the NetMsgServer keeps the paper-calibrated cost model
    # (acks pipeline behind data and are not charged separately).
    #: Wire bytes of one per-fragment acknowledgement frame.
    ack_wire_bytes: int = 32
    #: Initial ack-wait before a fragment is retransmitted.
    retransmit_timeout_s: float = 0.2
    #: Multiplier applied to the timeout after each retransmission.
    retransmit_backoff_factor: float = 2.0
    #: Ceiling on the backed-off retransmission timeout.
    retransmit_timeout_cap_s: float = 1.6
    #: Transmission attempts per fragment before TransportError.
    retransmit_max_attempts: int = 6
    #: How long the pager waits for an imaginary read reply before
    #: declaring the backing host unreachable (fault-injected worlds
    #: only; must exceed the worst-case reply retransmission time).
    imag_reply_deadline_s: float = 30.0

    # ------------------------------------------------- copy-on-reference --
    #: Backing-server lookup per Imaginary Read Request.
    backer_lookup_s: float = 4.0 * MS
    #: Source NMS cost to cache a whole RIMAS region and become backer.
    iou_cache_base_s: float = 30.0 * MS
    #: ... plus this much per contiguous real run cached.
    iou_cache_per_run_s: float = 0.1 * MS

    # ------------------------------------------------- content-addressed store --
    #: Content-store lookup per request — local cache hits and
    #: StoreServer reads both charge it (hashing itself is treated as
    #: free metadata maintenance, like AMap bookkeeping).
    store_lookup_s: float = 2.0 * MS

    # ------------------------------------------------------------ migration --
    #: Connection setup + Core-message handling overhead per migration
    #: (drives the paper's "approximately one second" Core phase).
    migration_setup_s: float = 0.80
    #: Trap entry / port-right bookkeeping at excision (the gap between
    #: Table 4-4's Overall column and AMap + RIMAS).
    excise_fixed_s: float = 0.09
    #: AMap construction: base + per process-map entry (Table 4-4).
    excise_amap_base_s: float = 0.15
    excise_amap_per_entry_s: float = 4.0 * MS
    #: RIMAS collapse: base + per contiguous real run (Table 4-4).
    excise_rimas_base_s: float = 0.10
    excise_rimas_per_run_s: float = 4.0 * MS
    #: InsertProcess: per real run + per process-map entry (§4.3.1).
    insert_base_s: float = 0.0
    insert_per_run_s: float = 4.1 * MS
    insert_per_entry_s: float = 0.4 * MS
    #: RS strategy: carving scattered resident pages out of the collapsed
    #: RIMAS and building IOUs for the fragmented remainder, per owed page.
    rs_carve_per_owed_page_s: float = 3.0 * MS

    #: Denning working-set window τ: pages referenced within the last
    #: τ seconds form the working set (extension experiment; §4.2.2
    #: treats resident sets as an approximation of this).  Comfortably
    #: larger than the longest excision so the set observed at
    #: excision time is the set in use when migration was requested.
    ws_window_s: float = 10.0

    # ---------------------------------------------------------- physical --
    #: Frames per host.  Generous by default so that migration trials
    #: never thrash at the destination (the paper's evaluation machines
    #: held the working sets of the migrated processes).
    frame_count: int = 65536

    # ------------------------------------------------------- derived costs --
    def nms_hop_s(self, wire_bytes):
        """NetMsgServer processing time for one message/fragment hop."""
        return self.nms_fixed_s + wire_bytes * self.nms_per_byte_s

    def link_time_s(self, wire_bytes):
        """Serialisation + propagation time for one fragment."""
        return self.link_latency_s + (wire_bytes * 8.0) / self.link_bandwidth_bps

    @property
    def local_disk_fault_s(self):
        """End-to-end cost of a fault served from the local disk."""
        return self.pager_overhead_s + self.disk_service_s + self.map_in_s

    def excise_amap_s(self, map_entries):
        """AMap-construction phase of ExciseProcess."""
        return self.excise_amap_base_s + map_entries * self.excise_amap_per_entry_s

    def excise_rimas_s(self, real_runs):
        """Address-space collapse phase of ExciseProcess."""
        return self.excise_rimas_base_s + real_runs * self.excise_rimas_per_run_s

    def insert_s(self, real_runs, map_entries):
        """InsertProcess reconstruction cost."""
        return (
            self.insert_base_s
            + real_runs * self.insert_per_run_s
            + map_entries * self.insert_per_entry_s
        )

    def with_overrides(self, **overrides):
        """A copy with some constants replaced (ablation experiments)."""
        return replace(self, **overrides)

    def describe(self):
        """Mapping of constant name to value, for reports."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


#: The default calibration used throughout the reproduction.
DEFAULT_CALIBRATION = Calibration()
