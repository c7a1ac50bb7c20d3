"""Deterministic discrete-event coexistence simulator.

Binds the propagation model, both MAC state machines, the pseudo-beacon
relay path and the coordination algorithms into runnable scenarios.
One run is strictly single-threaded; every random draw comes from
substreams derived from the scenario seed, and equal-time events are
ordered by a monotone sequence number, so identical (scenario, seed)
pairs produce bit-identical metrics and traces.

Model conventions (see README for the full list):

* Carrier sensing compares the sum of mean received powers (path gain
  plus the per-pair shadowing draw) against the sensing node's current
  ED threshold.  Fast fading applies to frame reception only, redrawn
  per transmission and receiver.
* Each channel is its own medium: frames on the air, carrier sensing,
  overlaps and the NAV are kept per channel, so a frame never reaches
  another channel.  The airtime fractions cover the run over all
  channels, counted at frame edges; a frame still on the air at the end
  counts up to ``duration_s``.
* A frame is lost if its SINR dips below the selected rate's threshold
  at any instant of the reception; overlapped frames additionally need
  to clear the capture threshold.
* SIFS-bound responses (ACK, CTS) are protocol-mandated and sent
  without carrier sensing; the ED-politeness invariant is asserted on
  every contention-based transmission start.
* The relay bus runs one round per beacon interval: every base's cell
  reaches every base ``latency_ms`` later, and no base scans its own.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from . import mac_lte, mac_wifi
from .config import Node, PhyConfig, Scenario
from .coordination import adapt_ed_threshold
from .mac_lte import LbtPhase, LbtState
from .mac_wifi import DcfPhase, DcfState, idle_slots, start_access
from .propagation import fast_fades, sample_link_gains
from .relay import (
    CellInfo,
    MacSpec,
    NodeType,
    ScanEntry,
    decode_pseudo_beacon,
    encode_pseudo_beacon,
    merge_scans,
)


# frames whose fades one ``fast_fades`` call draws; the stream is the same
# for any block size, so outputs do not depend on it
FADE_BLOCK_FRAMES = 256

# what the air carries between two frame edges, over all channels
AIRTIME_KEYS = ("wifi", "lte", "overlap", "idle")


class SimulationError(RuntimeError):
    """An engine invariant was violated; the run is not trustworthy."""


@dataclass
class Metrics:
    file_throughputs_mbps: dict = field(default_factory=dict)
    collision_count: int = 0
    ack_window_collisions: int = 0
    retransmissions: int = 0
    # fraction of the run per AIRTIME_KEYS; a run of no time is all idle
    airtime: dict = field(default_factory=lambda: {**dict.fromkeys(AIRTIME_KEYS, 0.0),
                                                   "idle": 1.0})
    final_ed_thresholds: dict = field(default_factory=dict)


class SimEvent(NamedTuple):
    """A queued call of ``handler(*args)`` at ``time_us``.

    The heap orders events as tuples.  ``seq`` is unique, so the order is
    (time, push order) and ``kind`` and ``handler`` are never compared.
    """

    time_us: float
    seq: int
    kind: str  # tx_end | slot_tick | timer | file_arrival | adapt_tick
    handler: Callable[..., None]
    args: tuple


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _lin(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0)


def _dbm(linear: float) -> float:
    return 10.0 * math.log10(linear) if linear > 0 else -math.inf


def rate_from_sinr(sinr_db: float, technology: str, phy: PhyConfig) -> float:
    """Monotone step map from SINR to PHY rate in Mbps."""
    if math.isnan(sinr_db):
        raise ValueError("sinr must not be NaN")
    table = phy.wifi_rates if technology == "wifi" else phy.lte_rates
    rate = 0.0
    for threshold, mbps in sorted(table):
        if sinr_db >= threshold:
            rate = mbps
    return rate


def median(values) -> float:
    """The middle value of ``values``, or the mean of the middle two."""
    vals = sorted(values)
    if not vals:
        raise ValueError("cannot take the median of an empty list")
    lo, hi = (len(vals) - 1) // 2, len(vals) // 2
    return float(vals[lo] * 0.5 + vals[hi] * 0.5)


def jain_index(values) -> float:
    """Jain's fairness index (sum x)^2 / (n * sum x^2); 1 means equal."""
    vals = list(values)
    if not vals:
        raise ValueError("cannot compute fairness of an empty list")
    total_sq = sum(v * v for v in vals)
    if total_sq == 0:
        return 1.0
    return sum(vals) ** 2 / (len(vals) * total_sq)


# ---------------------------------------------------------------------------
# transmissions and files
# ---------------------------------------------------------------------------

@dataclass
class Transmission:
    tx_id: int
    src: str
    dst: str | None
    kind: str  # data | ack | rts | cts | beacon | burst
    start_us: float
    end_us: float
    req_sinr_db: float
    bits: float
    nav_duration_us: float = 0.0
    frame_key: tuple | None = None
    fades: np.ndarray | None = None  # linear fade factor per node, in sorted id order
    overlaps: list = field(default_factory=list)  # (co-channel Transmission, start, end)


@dataclass
class FileJob:
    file_id: int
    client: str
    size_bits: float
    arrival_us: float
    done_bits: float = 0.0
    complete_us: float | None = None

    @property
    def chunk_key(self) -> tuple:
        """The ``frame_key`` of the file's next chunk: its id and the bits credited."""
        return (self.file_id, self.done_bits)


# ---------------------------------------------------------------------------
# MAC controllers
# ---------------------------------------------------------------------------

class _Controller:
    """One node's MAC; the no-op defaults serve the calls every node gets."""

    def __init__(self, sim: "Simulator", node: Node):
        self.sim = sim
        self.node = node
        self.cfg = sim.scenario.wifi_mac if node.technology == "wifi" else sim.scenario.lte_mac

    def maybe_start(self) -> None:
        pass

    def handle_own_tx_end(self, tx: Transmission) -> None:
        pass


class _BaseController(_Controller):
    """A base: carrier sensing, the backoff countdown DCF and LBT share,
    its downlink file queue and the cell it announces.

    A subclass holds its state machine's state in ``mac``, names its
    ``IDLE`` and ``BACKOFF`` phases and its ``SLOT_EVENT``, sets
    ``slot_us`` and ``wait`` (the delay, event kind and handler of DIFS,
    a timer, or of the LBT defer, the first slot tick), and defines
    ``step`` (replace ``mac`` by the machine's next state) and
    ``end_countdown`` (transmit).  The machines return state only, so
    the controllers read the phase: a slot step that leaves ``BACKOFF``
    transmits.  A slot that decrements and the end of DIFS start the
    engine's joint walk (``Simulator.walk_idle_slots``), which counts
    the idle slots of all contenders up to the next other event or the
    next slot that ends a countdown; that slot is a real tick.
    A busy medium only cancels the pending wait or slot, which freezes
    the counter; it is no machine event.  A node's own
    ``ed_threshold_dbm`` is also its adaptation ceiling
    (``adapt.t_default_dbm``).
    """

    node_type: NodeType
    mac_spec: MacSpec

    def __init__(self, sim: "Simulator", node: Node):
        super().__init__(sim, node)
        threshold = node.ed_threshold_dbm
        self.ed_threshold_dbm = self.cfg.ed_threshold_dbm if threshold is None else threshold
        self.adapt = sim.scenario.adapt_for(node.technology)
        if threshold is not None:
            self.adapt = replace(self.adapt, t_default_dbm=threshold)
        self.rng = sim.node_rng(node.id)
        self.files: deque[FileJob] = deque()
        self.gen = 0          # invalidates stale contention timers
        self.busy_us = 0.0    # own airtime in current beacon interval
        self.busy = False     # the last carrier-sense verdict

    def blocked(self) -> bool:
        return self.busy

    def head(self) -> FileJob | None:
        return self.files[0] if self.files else None

    def handle_own_tx_end(self, tx: Transmission) -> None:
        self.busy_us += tx.end_us - tx.start_us

    def make_cell_info(self) -> CellInfo:
        interval_us = self.sim.scenario.wifi_mac.beacon_interval_ms * 1000.0
        util = min(1.0, self.busy_us / interval_us)
        self.busy_us = 0.0
        return CellInfo(
            operator_cell_id=self.node.id,
            channel=self.node.channel,
            station_count=self.sim.attached_count(self.node.id),
            channel_utilization=util,
            node_type=self.node_type,
            mac_spec=self.mac_spec,
            tx_power_offset_db=0,
        )

    # -- the backoff countdown --------------------------------------------

    def contending(self) -> bool:
        return self.mac.phase == self.BACKOFF

    def wants_medium(self) -> bool:
        return self.contending()

    def maybe_start(self) -> None:
        if self.mac.phase == self.IDLE and self.files:
            self.mac = start_access(self.mac, self.rng)
            # a new attempt, its backoff drawn; pinned traces keep the name
            self.sim.trace(self.node.id, "phase", "defer")
        if self.wants_medium() and not self.blocked():
            self.gen += 1
            self.sim._push(*self.wait, self.gen)

    def cancel_countdown(self) -> None:
        self.gen += 1

    def sense(self) -> None:
        """Carrier-sense the node's channel; act only on a changed verdict."""
        busy = self.sim.sensed_power_dbm(self.node.id) >= self.ed_threshold_dbm
        if busy != self.busy:
            self.busy = busy
            self.on_medium(busy)

    def on_medium(self, busy: bool) -> None:
        if busy:
            self.cancel_countdown()
        elif self.contending() or self.files:
            self.maybe_start()

    def counts_slot(self, gen: int) -> bool:
        """Whether a slot tick pushed under ``gen`` is live: it counts a slot now."""
        return gen == self.gen and not self.blocked() and self.contending()

    def on_slot(self, gen: int) -> None:
        """One slot passed idle: transmit, or decrement and walk the idle slots."""
        if not self.counts_slot(gen):
            return
        self.step(self.SLOT_EVENT)
        if not self.contending():
            self.end_countdown()
            return
        self.sim.trace(self.node.id, "decrement", str(self.mac.backoff_counter))
        self.sim.walk_idle_slots(self)


class _WifiApController(_BaseController):
    """Drives the DCF machine for one AP's downlink queue plus beacons."""

    node_type = NodeType.WIFI
    mac_spec = MacSpec.DCF
    IDLE, BACKOFF, SLOT_EVENT = DcfPhase.IDLE, DcfPhase.BACKOFF, "medium_idle_slot"
    EXCHANGE = (DcfPhase.TX_DATA, DcfPhase.AWAIT_ACK)  # an RTS..ACK chain in flight

    def __init__(self, sim: "Simulator", node: Node):
        super().__init__(sim, node)
        cfg = self.cfg
        self.slot_us, self.wait = cfg.slot_us, (cfg.difs_us, "timer", self.on_wait)
        self.mac = DcfState(cw=cfg.cw_min, cw_min=cfg.cw_min, cw_max=cfg.cw_max,
                            retry_limit=cfg.retry_limit)
        self.resp_gen = 0     # invalidates stale ack/cts timeouts
        self.beacon_pending = False
        self.nav_until_us = 0.0

    def blocked(self) -> bool:
        return super().blocked() or self.nav_until_us > self.sim.now_us

    def step(self, event: str) -> None:
        self.mac = mac_wifi.dcf_step(self.mac, event, self.rng)

    def end_countdown(self) -> None:
        if self.cfg.rts_cts:
            self.start_rts()
        else:
            self.start_data()

    def wants_medium(self) -> bool:
        return self.contending() or self.beacon_pending

    # -- queue / access management ------------------------------------

    def next_chunk(self) -> tuple[float, float, float]:
        """The head file's next data frame: payload bits, required SINR, airtime."""
        job = self.head()
        bits = min(self.cfg.frame_payload_bytes * 8.0, job.size_bits - job.done_bits)
        rate, req_sinr_db = self.sim.link_rate(self.node.id, job.client)
        return bits, req_sinr_db, bits / rate + self.cfg.preamble_us

    def maybe_start(self) -> None:
        if self.mac.phase not in self.EXCHANGE:
            super().maybe_start()

    # -- timers ----------------------------------------------------------

    def on_beacon_due(self) -> None:
        self.beacon_pending = True
        interval_us = self.cfg.beacon_interval_ms * 1000.0
        if self.sim.now_us + interval_us <= self.sim.end_us:
            self.sim._push(interval_us, "timer", self.on_beacon_due)
        self.maybe_start()

    def on_wait(self, gen: int) -> None:
        """DIFS passed idle: send a pending beacon, or walk the idle slots.

        DIFS is no slot, so the first decrement comes a slot later.
        """
        if gen != self.gen or self.blocked():
            return
        if self.beacon_pending:
            self.start_beacon()
        elif self.contending():
            self.sim.walk_idle_slots(self)

    def on_response_timeout(self, gen: int, event: str) -> None:
        """No CTS (``rts_cts_fail``) or ACK (``ack_timeout``) came back."""
        if gen != self.resp_gen:
            return
        self.sim.metrics.retransmissions += 1
        self.step(event)
        if self.mac.phase == self.IDLE:  # the retry limit dropped the frame
            self.sim.trace(self.node.id, "action", "drop_frame")
            # head chunk stays owed; a fresh access attempt follows
        self.maybe_start()

    # -- transmissions -----------------------------------------------------

    def start_beacon(self) -> None:
        self.beacon_pending = False
        self.cancel_countdown()
        self.sim.assert_politeness(self.node.id, self.ed_threshold_dbm)
        self.sim.start_transmission(
            src=self.node.id, dst=None, kind="beacon",
            duration_us=self.cfg.beacon_duration_us,
            req_sinr_db=self.sim.scenario.phy.control_sinr_db, bits=0.0,
        )

    def start_rts(self) -> None:
        self.cancel_countdown()
        self.sim.assert_politeness(self.node.id, self.ed_threshold_dbm)
        job = self.head()
        _, _, data_us = self.next_chunk()
        cfg = self.cfg
        nav = (cfg.sifs_us + cfg.cts_duration_us + cfg.sifs_us + data_us
               + cfg.sifs_us + cfg.ack_duration_us)
        self.sim.start_transmission(
            src=self.node.id, dst=job.client, kind="rts",
            duration_us=cfg.rts_duration_us,
            req_sinr_db=self.sim.scenario.phy.control_sinr_db, bits=0.0,
            nav_duration_us=nav, frame_key=job.chunk_key,
        )

    def start_data(self) -> None:
        self.cancel_countdown()
        self.sim.assert_politeness(self.node.id, self.ed_threshold_dbm)
        self.transmit_data_frame()

    def transmit_data_frame(self) -> None:
        job = self.head()
        bits, req_sinr_db, duration = self.next_chunk()
        self.sim.start_transmission(
            src=self.node.id, dst=job.client, kind="data",
            duration_us=duration, req_sinr_db=req_sinr_db,
            bits=bits, nav_duration_us=self.cfg.sifs_us + self.cfg.ack_duration_us,
            frame_key=job.chunk_key,
        )

    def handle_own_tx_end(self, tx: Transmission) -> None:
        super().handle_own_tx_end(tx)
        cfg = self.cfg
        if tx.kind == "rts":
            # await the CTS
            self.resp_gen += 1
            wait = cfg.sifs_us + cfg.cts_duration_us + cfg.slot_us
            self.sim._push(wait, "timer", self.on_response_timeout,
                           self.resp_gen, "rts_cts_fail")
        elif tx.kind == "data":
            self.step("tx_done")
            self.resp_gen += 1
            wait = cfg.sifs_us + cfg.ack_duration_us + cfg.slot_us
            self.sim._push(wait, "timer", self.on_response_timeout,
                           self.resp_gen, "ack_timeout")

    def handle_rx(self, tx: Transmission, success: bool) -> None:
        if not success:
            return  # timeouts recover the exchange
        if tx.kind == "cts" and self.mac.phase in self.EXCHANGE:
            self.resp_gen += 1
            self.sim._push(self.cfg.sifs_us, "timer", self.transmit_data_frame)
        elif tx.kind == "ack" and self.mac.phase in self.EXCHANGE:
            self.resp_gen += 1
            self.step("ack_received")
            self.sim.credit_frame(self.node.id, tx.frame_key, tx.bits)
            self.maybe_start()

    def overheard(self, tx: Transmission) -> None:
        # a frame addressed elsewhere sets the NAV (max rule); outside an
        # exchange the countdown stops and resumes when the NAV ends
        now = self.sim.now_us
        self.nav_until_us = max(self.nav_until_us, now + tx.nav_duration_us)
        if self.mac.phase not in self.EXCHANGE:
            self.cancel_countdown()
            self.sim._push(self.nav_until_us - now, "timer", self.maybe_start)


class _WifiStaController(_Controller):
    """Responds with CTS/ACK and tracks the NAV."""

    def __init__(self, sim: "Simulator", node: Node):
        super().__init__(sim, node)
        self.nav_until_us = 0.0

    def send_cts(self, dst: str, nav: float) -> None:
        self.sim.start_transmission(
            src=self.node.id, dst=dst, kind="cts",
            duration_us=self.cfg.cts_duration_us,
            req_sinr_db=self.sim.scenario.phy.control_sinr_db, bits=0.0,
            nav_duration_us=nav,
        )

    def send_ack(self, dst: str, frame_key: tuple | None, bits: float) -> None:
        self.sim.start_transmission(
            src=self.node.id, dst=dst, kind="ack",
            duration_us=self.cfg.ack_duration_us,
            req_sinr_db=self.sim.scenario.phy.control_sinr_db, bits=bits,
            frame_key=frame_key,
        )

    def handle_rx(self, tx: Transmission, success: bool) -> None:
        if not success:
            return
        if tx.kind == "rts":
            cfg = self.cfg
            nav = tx.nav_duration_us - cfg.sifs_us - cfg.cts_duration_us
            self.sim._push(cfg.sifs_us, "timer", self.send_cts, tx.src, max(nav, 0.0))
        elif tx.kind == "data":
            self.sim._push(self.cfg.sifs_us, "timer", self.send_ack,
                           tx.src, tx.frame_key, tx.bits)

    def overheard(self, tx: Transmission) -> None:
        # frames addressed elsewhere set the NAV (max rule)
        self.nav_until_us = max(self.nav_until_us, self.sim.now_us + tx.nav_duration_us)
        self.sim.trace(self.node.id, "nav", f"{self.nav_until_us:.1f}")


class _LteEnbController(_BaseController):
    """Cat-4 LBT contention plus fixed-length downlink bursts."""

    node_type = NodeType.REL13_LAA
    mac_spec = MacSpec.LBT_CAT4
    IDLE, BACKOFF, SLOT_EVENT = LbtPhase.IDLE, LbtPhase.BACKOFF, "energy_below_slot"

    def __init__(self, sim: "Simulator", node: Node):
        super().__init__(sim, node)
        cfg = self.cfg
        self.slot_us, self.wait = cfg.slot_us, (cfg.defer_us, "slot_tick", self.on_slot)
        self.mac = LbtState(cw=cfg.cw_min, cw_min=cfg.cw_min, cw_max=cfg.cw_max)

    def step(self, event: str) -> None:
        self.mac = mac_lte.lbt_step(self.mac, event, self.rng)

    def end_countdown(self) -> None:
        self.start_burst()

    def start_burst(self) -> None:
        self.cancel_countdown()
        self.sim.assert_politeness(self.node.id, self.ed_threshold_dbm)
        job = self.head()
        rate, req_sinr_db = self.sim.link_rate(self.node.id, job.client)
        remaining = job.size_bits - job.done_bits
        max_bits = rate * self.cfg.burst_ms * 1000.0
        bits = min(remaining, max_bits)
        duration = bits / rate
        self.sim.start_transmission(
            src=self.node.id, dst=job.client, kind="burst",
            duration_us=duration, req_sinr_db=req_sinr_db,
            bits=bits, frame_key=job.chunk_key,
        )

    def burst_feedback(self, tx: Transmission, success: bool) -> None:
        # HARQ-style outcome known at burst end
        if success:
            self.step("success_feedback")
            self.sim.credit_frame(self.node.id, tx.frame_key, tx.bits)
        else:
            self.sim.metrics.retransmissions += 1
            self.step("collision_feedback")
            self.sim.trace(self.node.id, "action", "burst_retx")


class _LteUeController(_Controller):
    """Pure receiver; HARQ feedback is delivered out of band."""

    def handle_rx(self, tx: Transmission, success: bool) -> None:
        if tx.kind == "burst":
            self.sim.controllers[tx.src].burst_feedback(tx, success)


_CONTROLLERS = {
    "wifi_ap": _WifiApController,
    "wifi_sta": _WifiStaController,
    "lte_enb": _LteEnbController,
    "lte_ue": _LteUeController,
}


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

class Simulator:
    """Single-run engine; construct with a Scenario and call run()."""

    def __init__(self, scenario: Scenario, collect_trace: bool = False):
        scenario.validate()
        self.scenario = scenario
        self.now_us = 0.0
        self.end_us = scenario.duration_s * 1e6
        self.warmup_us = scenario.warmup_s * 1e6
        self._heap: list[SimEvent] = []
        self._seq = 0
        self._tx_counter = 0
        self._file_counter = 0
        self.metrics = Metrics()
        self.trace_lines: list[str] | None = [] if collect_trace else None

        self.nodes: dict[str, Node] = {n.id: n for n in scenario.nodes}
        self._attached = Counter(n.attach_to for n in scenario.nodes if n.attach_to)
        self._sorted_ids = sorted(self.nodes)
        self._node_index = {nid: i for i, nid in enumerate(self._sorted_ids)}
        self._traffic_rngs: dict = {}
        self.rng_links = np.random.default_rng([scenario.seed, 1])
        self.rng_fades = np.random.default_rng([scenario.seed, 2])
        # the current block of frames' fades and the next row to hand out
        self._fade_block = np.empty((0, len(self._sorted_ids)))
        self._fade_row = 0
        self.gains = self._build_gain_matrix()
        # linear mean received power, rx_lin[src][dst], summed by carrier sensing
        self.rx_lin = {src: {dst: _lin(self.nodes[src].tx_power_dbm + g)
                             for dst, g in row.items()}
                       for src, row in self.gains.items()}
        self._rate_cache: dict[tuple, tuple] = {}

        self.controllers: dict[str, _Controller] = {
            node.id: _CONTROLLERS[node.kind](self, node) for node in scenario.nodes
        }

        # one medium per channel: its frames on the air by tx_id in start
        # order, its bases (the only nodes that sense) in id order
        channels = {n.channel for n in scenario.nodes}
        self.active: dict[int, dict[int, Transmission]] = {ch: {} for ch in channels}
        self._base_ids = [nid for nid in self._sorted_ids if self.nodes[nid].is_base]
        self._bases_on = {ch: [self.controllers[nid] for nid in self._base_ids
                               if self.nodes[nid].channel == ch] for ch in channels}
        # the co-channel Wi-Fi nodes that decode each Wi-Fi source's frames
        # (its NAV listeners and, for an AP, its beacon's hearers), in id order
        wifi = [nid for nid in self._sorted_ids if self.nodes[nid].technology == "wifi"]
        floor = scenario.wifi_mac.decode_floor_dbm
        self._decoders = {src: [nid for nid in wifi if nid != src
                                and self.nodes[nid].channel == self.nodes[src].channel
                                and self.mean_rssi(src, nid) >= floor]
                          for src in wifi}
        # airtime so far, credited at frame edges to what was on the air
        self._on_air = {"wifi": 0, "lte": 0}
        self._airtime_us = dict.fromkeys(AIRTIME_KEYS, 0.0)
        self._airtime_mark_us = 0.0
        self.completed_files: list[FileJob] = []
        self.delivered_after_warmup: defaultdict[str, float] = defaultdict(float)
        self.relayed: dict[str, CellInfo] = {}  # every base's cell off the relay bus
        self._air_scans: dict[str, list[ScanEntry]] = {}  # _scan_at's over-the-air half

    # -- randomness ------------------------------------------------------

    def node_rng(self, node_id: str) -> np.random.Generator:
        return np.random.default_rng([self.scenario.seed, 100 + self._node_index[node_id]])

    def traffic_rng(self, node_id: str) -> np.random.Generator:
        # one persistent stream per client; a fresh generator per call
        # would replay the same first draw forever
        if node_id not in self._traffic_rngs:
            self._traffic_rngs[node_id] = np.random.default_rng(
                [self.scenario.seed, 500 + self._node_index[node_id]]
            )
        return self._traffic_rngs[node_id]

    # -- static link model -------------------------------------------------

    def _build_gain_matrix(self) -> dict[str, dict[str, float]]:
        """Symmetric per-source gain tables in dB, read as ``gains[src][dst]``.

        ``links`` entries are taken as given; every other pair is drawn
        in a single ``sample_link_gains`` call, in (i < j, sorted id)
        pair order.
        """
        overrides = {}
        for (a, b), g in self.scenario.link_gains.items():
            overrides[(a, b)] = overrides[(b, a)] = float(g)
        ids = self._sorted_ids
        gains: dict[str, dict[str, float]] = {nid: {} for nid in ids}
        xy = [(self.nodes[nid].position.x, self.nodes[nid].position.y) for nid in ids]
        pairs, dists = [], []
        for i, (a, (xa, ya)) in enumerate(zip(ids, xy)):
            for b, (xb, yb) in zip(ids[i + 1:], xy[i + 1:]):
                g = overrides.get((a, b))
                if g is None:
                    pairs.append((a, b))
                    # Position.distance_to; co-located nodes take the 1 m
                    # value (distance 0 is rejected)
                    d = math.hypot(xa - xb, ya - yb)
                    dists.append(d if d > 1.0 else 1.0)
                else:
                    gains[a][b] = gains[b][a] = g
        drawn = sample_link_gains(np.array(dists), self.scenario.propagation, self.rng_links)
        for (a, b), g in zip(pairs, drawn.tolist()):
            gains[a][b] = gains[b][a] = g
        return gains

    def mean_rssi(self, src: str, dst: str) -> float:
        return self.nodes[src].tx_power_dbm + self.gains[src][dst]

    def link_rate(self, src: str, dst: str) -> tuple[float, float]:
        """The link's PHY rate in Mbps and the SINR in dB that rate requires."""
        key = (src, dst)
        if key not in self._rate_cache:
            tech, phy = self.nodes[src].technology, self.scenario.phy
            snr = self.mean_rssi(src, dst) - phy.noise_floor_dbm
            rate = rate_from_sinr(snr - phy.rate_margin_db, tech, phy)
            if rate <= 0:
                raise SimulationError(
                    f"link {src}->{dst} falls below the minimum rate threshold"
                )
            table = phy.wifi_rates if tech == "wifi" else phy.lte_rates
            # a rate listed twice requires its lower threshold
            self._rate_cache[key] = (rate, min(t for t, mbps in table if mbps == rate))
        return self._rate_cache[key]

    def attached_count(self, base_id: str) -> int:
        return self._attached.get(base_id, 0)

    # -- event plumbing ---------------------------------------------------

    def _push(self, delay_us: float, kind: str, handler: Callable[..., None],
              *args) -> None:
        """Queue ``handler(*args)`` to run ``delay_us`` from now."""
        self._seq += 1
        heapq.heappush(
            self._heap, SimEvent(self.now_us + delay_us, self._seq, kind, handler, args)
        )

    def trace(self, node: str, record: str, detail: str) -> None:
        if self.trace_lines is not None:
            self.trace_lines.append(
                f"{self.now_us:.3f},{node},{self.nodes[node].technology},{record},{detail}"
            )

    def walk_idle_slots(self, first: _BaseController) -> None:
        """Count down the idle slots of every contender at once.

        ``first`` calls it when its countdown goes on a slot after now:
        its slot tick has just decremented the counter, or its DIFS has
        passed.  The walk takes slot boundaries in the (time, seq) order
        that one heap event per slot would give them.  A queued live
        tick (a contending, unblocked base's, on any channel; an LBT
        defer is one) joins the walk when it is reached.  From then on,
        each base's next boundary lies ``slot_us`` on by ``+=`` (the float
        path ``_push`` takes) and ranks after every queued event, in the
        order its previous boundary was taken.  The walk stops at the
        first of: a boundary that would end a countdown, a queued event
        that is not a live tick (a stale tick or a DIFS included) and a
        boundary after ``end_us``.
        Each boundary taken emits its ``decrement`` record at its time.
        A slot changes only its own base's counter, so outputs are those
        of one event per slot.  At the stop, each base's counter drops by
        the slots it took, in one ``idle_slots`` call, and each base
        pushes its next tick, in the order its last boundary was taken.
        The queued ticks the walk takes are the heap's first events, so
        they are popped as they are taken.
        """
        heap = self._heap
        end_us = self.end_us
        tracing = self.trace_lines is not None
        # (next boundary, rank, [base, its counter before that boundary],
        # last boundary taken); ranks are unique, so no list is compared
        walk = [(self.now_us + first.slot_us, 0, [first, first.mac.backoff_counter],
                 self.now_us)]
        rank = 0
        while True:
            t, _, walker, _ = walk[0]
            head = heap[0].time_us if heap else math.inf
            if head <= t:
                # the queued head is older: it joins if it is a live tick
                # that does not end its countdown, else the walk stops
                event = heap[0]
                if event.kind != "slot_tick" or head > end_us:
                    break
                ctrl = event.handler.__self__
                self.now_us = head
                counter = ctrl.mac.backoff_counter
                if not ctrl.counts_slot(*event.args) or counter <= 1:
                    break
                heapq.heappop(heap)
                rank += 1
                heapq.heappush(walk, (head + ctrl.slot_us, rank, [ctrl, counter - 1], head))
                if tracing:
                    self.trace(ctrl.node.id, "decrement", str(counter - 1))
                continue
            ctrl, counter = walker
            if counter <= 1 or t > end_us:
                break
            # the base takes t, then each boundary before the next base's
            # (whose rank is now older) and before the queued head
            limit = min([head] + [entry[0] for entry in walk[1:3]])
            slot_us = ctrl.slot_us
            while True:
                counter -= 1
                if tracing:
                    self.now_us = t
                    self.trace(ctrl.node.id, "decrement", str(counter))
                after = t + slot_us
                if counter <= 1 or after >= limit or after > end_us:
                    break
                t = after
            walker[1] = counter
            rank += 1
            heapq.heapreplace(walk, (after, rank, walker, t))
        for _, _, (ctrl, counter), last in sorted(walk, key=lambda entry: entry[1]):
            taken = ctrl.mac.backoff_counter - counter
            if taken:
                ctrl.mac = idle_slots(ctrl.mac, taken)
            self.now_us = last
            self._push(ctrl.slot_us, "slot_tick", ctrl.on_slot, ctrl.gen)

    # -- sensing ------------------------------------------------------------

    def sensed_power_dbm(self, node_id: str) -> float:
        """Total mean power from other nodes' frames on the node's channel."""
        total = 0.0
        for tx in self.active[self.nodes[node_id].channel].values():
            if tx.src != node_id:
                total += self.rx_lin[tx.src][node_id]
        return _dbm(total)

    def recompute_busy(self, channel: int, rising: bool) -> None:
        """Carrier-sense at the channel's bases whose verdict can flip.

        Clients never contend, so never sense.  A frame start (``rising``)
        appends one non-negative term to the start-order power sum, and
        rounded addition is monotone, so no busy base can turn idle; a
        frame end leaves a same-order subset sum that is never larger,
        so no idle base can turn busy.  Only the other bases are sensed.
        """
        for ctrl in self._bases_on[channel]:
            if ctrl.busy != rising:
                ctrl.sense()

    def assert_politeness(self, node_id: str, threshold_dbm: float) -> None:
        sensed = self.sensed_power_dbm(node_id)
        if sensed >= threshold_dbm:
            raise SimulationError(
                f"ED politeness violated: {node_id} would transmit while sensing "
                f"{sensed:.1f} dBm >= threshold {threshold_dbm:.1f} dBm at "
                f"t={self.now_us:.1f}"
            )

    # -- transmissions -------------------------------------------------------

    def start_transmission(self, src: str, dst: str | None, kind: str,
                           duration_us: float, req_sinr_db: float,
                           bits: float, nav_duration_us: float = 0.0,
                           frame_key: tuple | None = None) -> Transmission:
        self._tx_counter += 1
        # one draw serves a block of frames; a frame takes the next row,
        # entry i for the i-th node in sorted id order
        if self._fade_row == len(self._fade_block):
            self._fade_block = fast_fades(self.rng_fades, FADE_BLOCK_FRAMES,
                                          len(self._sorted_ids),
                                          self.scenario.phy.fading_branches)
            self._fade_row = 0
        fades = self._fade_block[self._fade_row]
        self._fade_row += 1
        tx = Transmission(
            tx_id=self._tx_counter, src=src, dst=dst, kind=kind,
            start_us=self.now_us, end_us=self.now_us + duration_us,
            req_sinr_db=req_sinr_db, bits=bits,
            nav_duration_us=nav_duration_us, frame_key=frame_key, fades=fades,
        )
        node = self.nodes[src]
        active = self.active[node.channel]
        for other in active.values():
            o_start = max(other.start_us, tx.start_us)
            o_end = min(other.end_us, tx.end_us)
            if o_end > o_start:
                other.overlaps.append((tx, o_start, o_end))
                tx.overlaps.append((other, o_start, o_end))
        active[tx.tx_id] = tx
        self._count_airtime()
        self._on_air[node.technology] += 1
        self.trace(src, "tx_start", f"kind={kind};dst={dst};dur={duration_us:.1f}")
        self._push(duration_us, "tx_end", self._finish_transmission, tx)
        self.recompute_busy(node.channel, True)
        return tx

    def _finish_transmission(self, tx: Transmission) -> None:
        node = self.nodes[tx.src]
        del self.active[node.channel][tx.tx_id]
        self._count_airtime()
        self._on_air[node.technology] -= 1
        self.trace(tx.src, "tx_end", f"kind={tx.kind};dst={tx.dst}")
        self.recompute_busy(node.channel, False)
        src_ctrl = self.controllers[tx.src]
        src_ctrl.handle_own_tx_end(tx)
        if tx.dst is not None:
            success = self._evaluate_reception(tx)
            self.controllers[tx.dst].handle_rx(tx, success)
        if tx.nav_duration_us > 0:  # only Wi-Fi frames carry a NAV
            for nid in self._decoders[tx.src]:
                if nid != tx.dst:
                    self.controllers[nid].overheard(tx)
        src_ctrl.maybe_start()

    def _evaluate_reception(self, tx: Transmission) -> bool:
        dst = tx.dst
        phy = self.scenario.phy
        # fades are kept linear and read in dB only here
        row = self._node_index[dst]
        signal_db = self.mean_rssi(tx.src, dst) + 10.0 * math.log10(tx.fades[row])
        if signal_db < self.controllers[dst].cfg.decode_floor_dbm:
            self.trace(dst, "rx_fail", f"below_floor;from={tx.src}")
            return False
        noise_lin = _lin(phy.noise_floor_dbm)
        required = tx.req_sinr_db
        max_interference = 0.0
        if tx.overlaps:
            required = max(required, phy.capture_threshold_db)
            # each overlapping frame's power once, summed per segment in overlap order
            powers = [_lin(self.mean_rssi(other.src, dst) + 10.0 * math.log10(other.fades[row]))
                      for other, _, _ in tx.overlaps]
            bounds = sorted({b for _, s, e in tx.overlaps for b in (s, e)})
            for a, b in zip(bounds, bounds[1:]):
                seg = 0.0
                for (_, s, e), power in zip(tx.overlaps, powers):
                    if s <= a and e >= b:
                        seg += power
                max_interference = max(max_interference, seg)
        sinr_db = signal_db - _dbm(noise_lin + max_interference)
        success = sinr_db >= required
        if not success:
            clean_sinr = signal_db - phy.noise_floor_dbm
            if tx.overlaps and clean_sinr >= tx.req_sinr_db:
                self.metrics.collision_count += 1
                detail = f"from={tx.src};kind={tx.kind}"
                if tx.kind == "ack":
                    for other, _, _ in tx.overlaps:
                        if (other.kind == "burst"
                                and tx.start_us <= other.start_us < tx.end_us):
                            self.metrics.ack_window_collisions += 1
                            detail += ";ack_window"
                            break
                self.trace(dst, "collision", detail)
            else:
                self.trace(dst, "rx_fail", f"fade;from={tx.src}")
        return success

    # -- traffic ---------------------------------------------------------------

    def credit_frame(self, base_id: str, frame_key: tuple, bits: float) -> None:
        """Credit the base's head chunk, the only frame an ACK or HARQ can confirm."""
        ctrl = self.controllers[base_id]
        job = ctrl.head()
        if job is None or frame_key != job.chunk_key:
            raise SimulationError(f"{base_id} credited frame {frame_key}, not its head chunk")
        job.done_bits += bits
        if self.now_us >= self.warmup_us:
            self.delivered_after_warmup[job.client] += bits
        if job.done_bits >= job.size_bits:  # never under full buffer: its size is inf
            job.complete_us = self.now_us
            self.completed_files.append(job)
            ctrl.files.popleft()
            self.trace(base_id, "file_done", f"client={job.client};id={job.file_id}")

    def _schedule_first_traffic(self) -> None:
        traffic = self.scenario.traffic
        clients = [n for n in self.scenario.nodes if n.attach_to is not None]
        for client in clients:
            if traffic.model == "full_buffer":
                self._file_counter += 1
                job = FileJob(self._file_counter, client.id, math.inf, 0.0)
                self.controllers[client.attach_to].files.append(job)
            else:
                self._schedule_arrival(client.id)

    def _schedule_arrival(self, client_id: str) -> None:
        """Queue the client's next file arrival if it falls inside the run."""
        rate = self.scenario.traffic.rate_for(client_id)
        delay_us = self.traffic_rng(client_id).exponential(1.0 / rate) * 1e6
        if self.now_us + delay_us <= self.end_us:
            self._push(delay_us, "file_arrival", self._handle_file_arrival, client_id)

    def _handle_file_arrival(self, client_id: str) -> None:
        self._file_counter += 1
        job = FileJob(self._file_counter, client_id,
                      self.scenario.traffic.size_bits_for(client_id), self.now_us)
        base_ctrl = self.controllers[self.nodes[client_id].attach_to]
        base_ctrl.files.append(job)
        self.trace(client_id, "file_arrival", f"id={job.file_id}")
        self._schedule_arrival(client_id)
        base_ctrl.maybe_start()

    # -- relaying and adaptation ------------------------------------------------

    def _handle_relay_publish(self) -> None:
        """One relay round: every base publishes its cell, encoded and decoded once."""
        cells = {}
        for node in self.scenario.nodes:
            if node.is_base:
                cell = self.controllers[node.id].make_cell_info()
                cells[node.id] = decode_pseudo_beacon(encode_pseudo_beacon(cell))
        # the one delivery: every base holds every cell latency_ms later
        self._push(self.scenario.relay.latency_ms * 1000.0, "timer",
                   self.relayed.update, cells)
        interval_us = self.scenario.wifi_mac.beacon_interval_ms * 1000.0
        if self.now_us + interval_us <= self.end_us:
            self._push(interval_us, "timer", self._handle_relay_publish)

    def _scan_at(self, base_id: str) -> list[ScanEntry]:
        """The APs whose beacons the base decodes, fused with the relayed cells.

        The over-the-air half reads only what a run never changes, so it
        is built once per base.
        """
        ota = self._air_scans.get(base_id)
        if ota is None:
            ota = self._air_scans[base_id] = []
            for ap in self._base_ids:
                if base_id in self._decoders.get(ap, ()):
                    stations = self.attached_count(ap)
                    cell = CellInfo(ap, self.nodes[ap].channel, stations)
                    ota.append(ScanEntry("over_the_air", cell, self.mean_rssi(ap, base_id),
                                         n_attached=stations))
        relayed = []
        for src_base, cell in sorted(self.relayed.items()):
            if src_base == base_id:
                continue
            rssi = self.mean_rssi(src_base, base_id)
            if rssi >= self.scenario.phy.measurement_floor_dbm:
                relayed.append(ScanEntry("relayed", cell, rssi,
                                         n_attached=cell.station_count,
                                         utilization=cell.channel_utilization))
        return merge_scans(ota, relayed)

    def _handle_adapt_tick(self, base_id: str) -> None:
        ctrl = self.controllers[base_id]
        scan = self._scan_at(base_id)
        new_threshold = adapt_ed_threshold(scan, ctrl.adapt, own_channel=ctrl.node.channel)
        if new_threshold != ctrl.ed_threshold_dbm:
            ctrl.ed_threshold_dbm = new_threshold
            self.trace(base_id, "threshold", f"{new_threshold:.2f}")
            ctrl.sense()
        period_us = ctrl.adapt.update_period_s * 1e6
        if self.now_us + period_us <= self.end_us:
            self._push(period_us, "adapt_tick", self._handle_adapt_tick, base_id)

    # -- main loop ------------------------------------------------------------

    def run(self) -> Metrics:
        scenario = self.scenario
        if self.end_us <= 0:
            return self.metrics
        self._schedule_first_traffic()
        bases = [n for n in scenario.nodes if n.is_base]
        aps = [n for n in bases if n.technology == "wifi"]
        interval_us = scenario.wifi_mac.beacon_interval_ms * 1000.0
        for idx, ap in enumerate(aps):
            first = interval_us * (idx + 1) / (len(aps) + 1)
            self._push(first, "timer", self.controllers[ap.id].on_beacon_due)
        if scenario.relay.enabled:
            self._push(0.0, "timer", self._handle_relay_publish)
        for base in bases:
            if scenario.adaptive_ed:
                self._push(self.controllers[base.id].adapt.update_period_s * 1e6,
                           "adapt_tick", self._handle_adapt_tick, base.id)
        for nid in self._sorted_ids:
            self.controllers[nid].maybe_start()

        last_time = 0.0
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.time_us > self.end_us:
                break
            if event.time_us < last_time - 1e-9:
                raise SimulationError("event queue went backwards in time")
            last_time = event.time_us
            self.now_us = event.time_us
            self._dispatch(event)
        self.now_us = self.end_us
        return self._finalize()

    def _dispatch(self, event: SimEvent) -> None:
        event.handler(*event.args)

    # -- metrics ---------------------------------------------------------------

    def _count_airtime(self) -> None:
        """Credit the time since the last frame edge to what was on the air."""
        span = self.now_us - self._airtime_mark_us
        if span > 0:
            w, l = self._on_air["wifi"] > 0, self._on_air["lte"] > 0
            key = "overlap" if (w and l) else "wifi" if w else "lte" if l else "idle"
            self._airtime_us[key] += span
            self._airtime_mark_us = self.now_us

    def _finalize(self) -> Metrics:
        m = self.metrics
        self._count_airtime()  # frames still on the air count up to the end
        m.airtime = {k: v / self.end_us for k, v in self._airtime_us.items()}
        if abs(sum(m.airtime.values()) - 1.0) > 1e-9:
            raise SimulationError("airtime fractions do not sum to 1")
        throughputs: dict[str, list[float]] = {}
        if self.scenario.traffic.model == "full_buffer":
            window_us = self.end_us - self.warmup_us
            for client, bits in sorted(self.delivered_after_warmup.items()):
                if window_us > 0:
                    throughputs[client] = [bits / window_us]
        else:
            for job in self.completed_files:
                if job.arrival_us >= self.warmup_us:
                    elapsed = job.complete_us - job.arrival_us
                    if elapsed > 0:
                        throughputs.setdefault(job.client, []).append(
                            job.size_bits / elapsed
                        )
        max_rate = max(
            max(r for _, r in self.scenario.phy.wifi_rates),
            max(r for _, r in self.scenario.phy.lte_rates),
        )
        for client, tputs in throughputs.items():
            for tput in tputs:
                if tput > max_rate + 1e-9:
                    raise SimulationError(
                        f"throughput {tput:.2f} Mbps exceeds the rate-table maximum"
                    )
        m.file_throughputs_mbps = throughputs
        m.final_ed_thresholds = {
            nid: self.controllers[nid].ed_threshold_dbm
            for nid in self._base_ids
        }
        return m
