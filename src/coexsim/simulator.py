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
from array import array
from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from . import mac_lte, mac_wifi
from .config import Node, PhyConfig, Scenario
from .coordination import adapt_ed_threshold
from .mac_lte import LbtPhase, LbtState
from .mac_wifi import BlockDraws, DcfPhase, DcfState, idle_slots, start_access
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


# one ``fast_fades`` call draws at most FADE_BLOCK_FRAMES frames (little waste in
# a short run) and FADE_BLOCK_FLOATS exponentials (about 256 KB at any N), but one
# frame at least; the stream is the same for any block size, so outputs are too
FADE_BLOCK_FRAMES = 256
FADE_BLOCK_FLOATS = 2 ** 15

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


# ``_new_event(SimEvent, fields)`` builds the event without SimEvent's
# Python-level ``__new__``
_new_event = tuple.__new__


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _lin(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0)


def _dbm(linear: float) -> float:
    return 10.0 * math.log10(linear) if linear > 0 else -math.inf


def peak_interference(overlaps: list, powers: list) -> float:
    """The largest summed power of overlaps on the air together, or 0.0 with none.

    ``overlaps`` holds (frame, start, end) with start < end, ``powers`` each
    one's linear power.  The all-segments formula sums, between each two
    consecutive distinct bounds, the powers of the overlaps covering that
    segment in overlap order from 0.0, and takes the largest.  A segment
    beginning at a start holds every overlap of the segments up to the next
    start, in the same order, and a float sum of non-negative terms only
    grows with more of them, so summing at each distinct start gives that
    value bit for bit; one overlap is its own power.
    """
    if len(overlaps) == 1:
        return powers[0]
    peak = 0.0
    for t in {s for _, s, _ in overlaps}:
        seg = 0.0
        for (_, s, e), power in zip(overlaps, powers):
            if s <= t < e:
                seg += power
        if seg > peak:
            peak = seg
    return peak


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

class Transmission:
    """One frame on the air.

    ``kind`` is data | ack | rts | cts | beacon | burst; ``fades`` holds the
    linear fade factor and ``rx_lin`` the linear mean power each node
    receives, in sorted id order; ``overlaps`` holds (co-channel
    Transmission, start, end) per frame it overlaps.  A frame is made once
    per transmission, so it takes its fields by position into slots.
    """

    __slots__ = ("tx_id", "src", "dst", "kind", "start_us", "end_us", "req_sinr_db", "bits",
                 "nav_duration_us", "frame_key", "fades", "rx_lin", "overlaps",
                 "__weakref__")

    def __init__(self, tx_id: int, src: str, dst: str | None, kind: str, start_us: float,
                 end_us: float, req_sinr_db: float, bits: float,
                 nav_duration_us: float = 0.0, frame_key: tuple | None = None,
                 fades: np.ndarray | None = None, rx_lin: array | None = None):
        self.tx_id = tx_id
        self.src = src
        self.dst = dst
        self.kind = kind
        self.start_us = start_us
        self.end_us = end_us
        self.req_sinr_db = req_sinr_db
        self.bits = bits
        self.nav_duration_us = nav_duration_us
        self.frame_key = frame_key
        self.fades = fades
        self.rx_lin = rx_lin
        self.overlaps: list = []


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
    next slot that ends a countdown; that slot is a real tick.  Bases
    whose boundaries meet on one ``slot_us`` walk as one cohort.
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
            if self.sim.trace_lines is not None:
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
        if self.sim.trace_lines is not None:
            self.sim.trace(self.node.id, "decrement", "%s", self.mac.backoff_counter)
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
    """Responds with CTS/ACK and, in a traced run, tracks the NAV."""

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
        # frames addressed elsewhere set the NAV (max rule); a station never
        # contends, so its NAV feeds only this record, and an untraced run
        # makes no call
        self.nav_until_us = max(self.nav_until_us, self.sim.now_us + tx.nav_duration_us)
        self.sim.trace(self.node.id, "nav", "%.1f", self.nav_until_us)


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

    def __init__(self, scenario: Scenario, trace_lines=None):
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
        # the sink each trace record goes to as it is made (anything with
        # append(line) and len()), or None for no trace; fixed here, as an
        # untraced run skips the work that only feeds the trace
        self.trace_lines = trace_lines

        self.nodes: dict[str, Node] = {n.id: n for n in scenario.nodes}
        # each node's ",id,tech," columns of a trace record
        self._trace_cols = {nid: f",{nid},{n.technology}," for nid, n in self.nodes.items()}
        self._attached = Counter(n.attach_to for n in scenario.nodes if n.attach_to)
        self._sorted_ids = sorted(self.nodes)
        self._node_index = {nid: i for i, nid in enumerate(self._sorted_ids)}
        self._traffic_rngs: dict = {}
        self.rng_links = np.random.default_rng([scenario.seed, 1])
        self.rng_fades = np.random.default_rng([scenario.seed, 2])
        # the current block of frames' fades and the next row to hand out
        n, branches = len(self._sorted_ids), scenario.phy.fading_branches
        self._fade_frames = max(1, min(FADE_BLOCK_FRAMES, FADE_BLOCK_FLOATS // (n * branches)))
        self._fade_block = np.empty((0, n))
        self._fade_row = 0
        # the link tables hold one row of doubles per source, indexed by
        # _node_index like the columns; a node's own entry is NaN
        self.gains = self._build_gain_matrix()
        # mean received power in dB (mean_rssi, read by reception), and
        # linear, summed by carrier sensing
        powers = [self.nodes[nid].tx_power_dbm for nid in self._sorted_ids]
        self.rx_db = [array("d", [p + g for g in row]) for p, row in zip(powers, self.gains)]
        self.rx_lin = [array("d", [_lin(db) for db in row]) for row in self.rx_db]
        self._noise_lin = _lin(scenario.phy.noise_floor_dbm)
        self._tech = {nid: n.technology for nid, n in self.nodes.items()}
        self._rate_cache: dict[tuple, tuple] = {}

        self.controllers: dict[str, _Controller] = {
            node.id: _CONTROLLERS[node.kind](self, node) for node in scenario.nodes
        }
        self._decode_floor = {nid: ctrl.cfg.decode_floor_dbm
                              for nid, ctrl in self.controllers.items()}

        # one medium per channel: its frames on the air by tx_id in start
        # order, its bases (the only nodes that sense) in id order
        channels = {n.channel for n in scenario.nodes}
        self.active: dict[int, dict[int, Transmission]] = {ch: {} for ch in channels}
        # what a node senses: its column of the link tables and its medium
        self._sensing = {nid: (self._node_index[nid], self.active[n.channel])
                         for nid, n in self.nodes.items()}
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
        # those that act on an overheard frame: a station's NAV feeds only
        # its trace record, so an untraced run leaves the stations out
        self._overhearers = {src: [self.controllers[nid] for nid in decoders
                                   if trace_lines is not None or self.nodes[nid].is_base]
                             for src, decoders in self._decoders.items()}
        # airtime so far, credited at frame edges to what was on the air
        self._on_air = {"wifi": 0, "lte": 0}
        self._airtime_us = dict.fromkeys(AIRTIME_KEYS, 0.0)
        self._airtime_mark_us = 0.0
        self.completed_files: list[FileJob] = []
        self.delivered_after_warmup: defaultdict[str, float] = defaultdict(float)
        self.relayed: dict[str, CellInfo] = {}  # every base's cell off the relay bus
        # per base, _scan_at's over-the-air half and its relayed sources
        self._scan_sources: dict[str, tuple] = {}

    # -- randomness ------------------------------------------------------

    def node_rng(self, node_id: str) -> BlockDraws:
        """The node's backoff draws, from its own stream ``[seed, 100 + index]``."""
        stream = np.random.default_rng([self.scenario.seed, 100 + self._node_index[node_id]])
        return BlockDraws(stream.bit_generator)

    def traffic_rng(self, node_id: str) -> np.random.Generator:
        # one persistent stream per client; a fresh generator per call
        # would replay the same first draw forever
        if node_id not in self._traffic_rngs:
            self._traffic_rngs[node_id] = np.random.default_rng(
                [self.scenario.seed, 500 + self._node_index[node_id]]
            )
        return self._traffic_rngs[node_id]

    # -- static link model -------------------------------------------------

    def _build_gain_matrix(self) -> list[array]:
        """The symmetric gain table in dB, one row per source:
        ``gains[i][j]`` links the i-th and j-th node in sorted id order.

        ``links`` entries are taken as given; every other pair is drawn
        in a single ``sample_link_gains`` call, in (i < j, sorted id)
        pair order.
        """
        index = self._node_index
        table = np.full((len(index), len(index)), math.nan)
        for (a, b), g in self.scenario.link_gains.items():
            table[index[a], index[b]] = table[index[b], index[a]] = g
        rows, cols = np.triu_indices(len(index), 1)
        free = np.isnan(table[rows, cols])
        rows, cols = rows[free], cols[free]
        xy = [self.nodes[nid].position for nid in self._sorted_ids]
        # Position.distance_to; co-located nodes take the 1 m value
        # (distance 0 is rejected)
        dists = np.array([math.hypot(xy[i].x - xy[j].x, xy[i].y - xy[j].y)
                          for i, j in zip(rows.tolist(), cols.tolist())])
        gains = sample_link_gains(np.maximum(dists, 1.0), self.scenario.propagation,
                                  self.rng_links)
        table[rows, cols] = table[cols, rows] = gains
        return [array("d", row.tobytes()) for row in table]

    def mean_rssi(self, src: str, dst: str) -> float:
        index = self._node_index
        return self.rx_db[index[src]][index[dst]]

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
        self._seq = seq = self._seq + 1
        heapq.heappush(self._heap,
                       _new_event(SimEvent, (self.now_us + delay_us, seq, kind, handler, args)))

    def trace(self, node: str, record: str, detail: str, *args) -> None:
        """Send a record with last column ``detail % args`` to the sink, if one is
        set.  Node ids are user text: one is always in ``args``, never in ``detail``.

        ``walk_idle_slots`` is the one other writer: it appends the
        ``decrement`` records of the slots it walks to the sink itself."""
        if self.trace_lines is not None:
            self.trace_lines.append(
                f"{self.now_us:.3f}{self._trace_cols[node]}{record},{detail % args}")

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
        order its previous boundary was taken.
        Bases whose next boundaries are one float on one ``slot_us`` stay
        on one path, so they walk as a cohort: its members take each
        boundary in turn, the older rank first, with one ``+=`` per
        boundary, up to the next queued event or walk entry.
        The walk stops at the first of: a boundary that would end a
        countdown (the members ahead of that base still take it), a
        queued event that is not a live tick (a stale tick or a DIFS
        included) and a boundary after ``end_us``.
        Each boundary taken appends its ``decrement`` records to the sink
        at its time; the walk is the one writer of records besides
        ``trace``.  A slot changes only its own base's counter, so outputs
        are those of one event per slot.  At the stop, each base's counter
        drops by the slots it took, in one ``idle_slots`` call, and each
        base pushes its next tick, in the order its last boundary was
        taken.  The queued ticks the walk takes are the heap's first
        events, so they are popped as they are taken.
        """
        heap = self._heap
        end_us = self.end_us
        sink = self.trace_lines
        cols = self._trace_cols
        # (next boundary, rank, members, last boundary taken), a member
        # being [base, its counter before that boundary], in the order the
        # members take each boundary; ranks are unique, so no list is compared
        walk = [(self.now_us + first.slot_us, 0, [[first, first.mac.backoff_counter]],
                 self.now_us)]
        rank = 0
        while True:
            t, old, members, last = walk[0]
            head = heap[0].time_us if heap else math.inf
            if head <= t:
                # the queued head is older: it joins if it is a live tick
                # that does not end its countdown, else the walk stops
                event = heap[0]
                if event.kind != "slot_tick" or head > end_us:
                    break
                ctrl = event.handler.__self__
                self.now_us = head
                counter = ctrl.mac.backoff_counter - 1
                if not ctrl.counts_slot(*event.args) or counter < 1:
                    break
                heapq.heappop(heap)
                if sink is not None:
                    sink.append(f"{head:.3f}{cols[ctrl.node.id]}decrement,{counter}")
                after = head + ctrl.slot_us
                if len(walk) == 1 and after == t and ctrl.slot_us == members[0][0].slot_us:
                    members.append([ctrl, counter])  # after the lone entry's members
                else:
                    rank += 1
                    heapq.heappush(walk, (after, rank, [[ctrl, counter]], head))
                continue
            if t > end_us:
                break
            slot_us = members[0][0].slot_us
            limit = head
            if len(walk) > 1:
                # the cohort takes each boundary before the next entry's
                # (whose rank is now older) and before the queued head
                limit = min([head] + [entry[0] for entry in walk[1:3]])
                if limit == t:
                    # the entries next at t on this slot length join the
                    # cohort, up to the first on another one
                    heapq.heappop(walk)
                    while walk and walk[0][0] == t and walk[0][2][0][0].slot_us == slot_us:
                        members += heapq.heappop(walk)[2]
                    heapq.heappush(walk, (t, old, members, last))
                    limit = min([head] + [entry[0] for entry in walk[1:3]])
            low = members[0][1] if len(members) == 1 else min([m[1] for m in members])
            taken = 0
            while low - taken > 1:
                taken += 1
                if sink is not None:
                    stamp = f"{t:.3f}"
                    for ctrl, counter in members:
                        sink.append(f"{stamp}{cols[ctrl.node.id]}decrement,{counter - taken}")
                last, t = t, t + slot_us
                if t >= limit or t > end_us:
                    break
            else:
                # a countdown would end at t, so the walk stops there; the
                # members ahead of that base take t, and the rest keep the
                # entry's rank (an entry also at t ranks after it)
                ahead = 0
                while members[ahead][1] - taken > 1:
                    ahead += 1
                for k, member in enumerate(members):
                    member[1] -= taken + (k < ahead)
                    if k < ahead and sink is not None:
                        sink.append(f"{t:.3f}{cols[member[0].node.id]}decrement,{member[1]}")
                walk[0] = (t, old, members[ahead:], last)
                if ahead:
                    walk.append((t + slot_us, rank + 1, members[:ahead], t))
                break
            for member in members:
                member[1] -= taken
            rank += 1
            heapq.heapreplace(walk, (t, rank, members, last))
        walk.sort(key=lambda entry: entry[1])  # a stop mid-cohort leaves no heap
        for _, _, members, last in walk:
            self.now_us = last
            for ctrl, counter in members:
                taken = ctrl.mac.backoff_counter - counter
                if taken:
                    ctrl.mac = idle_slots(ctrl.mac, taken)
                self._push(ctrl.slot_us, "slot_tick", ctrl.on_slot, ctrl.gen)

    # -- sensing ------------------------------------------------------------

    def sensed_power_dbm(self, node_id: str) -> float:
        """Total mean power from other nodes' frames on the node's channel."""
        col, medium = self._sensing[node_id]
        total = 0.0
        for tx in medium.values():
            if tx.src != node_id:
                total += tx.rx_lin[col]
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
            self._fade_block = fast_fades(self.rng_fades, self._fade_frames,
                                          len(self._sorted_ids),
                                          self.scenario.phy.fading_branches)
            self._fade_row = 0
        fades = self._fade_block[self._fade_row]
        self._fade_row += 1
        now = self.now_us
        tx = Transmission(self._tx_counter, src, dst, kind, now, now + duration_us,
                          req_sinr_db, bits, nav_duration_us, frame_key, fades,
                          self.rx_lin[self._node_index[src]])
        channel = self.nodes[src].channel
        active = self.active[channel]
        for other in active.values():
            o_start = max(other.start_us, tx.start_us)
            o_end = min(other.end_us, tx.end_us)
            if o_end > o_start:
                other.overlaps.append((tx, o_start, o_end))
                tx.overlaps.append((other, o_start, o_end))
        active[tx.tx_id] = tx
        self._count_airtime()
        self._on_air[self._tech[src]] += 1
        if self.trace_lines is not None:
            self.trace(src, "tx_start", "kind=%s;dst=%s;dur=%.1f", kind, dst, duration_us)
        self._push(duration_us, "tx_end", self._finish_transmission, tx)
        self.recompute_busy(channel, True)
        return tx

    def _finish_transmission(self, tx: Transmission) -> None:
        src = tx.src
        channel = self.nodes[src].channel
        del self.active[channel][tx.tx_id]
        self._count_airtime()
        self._on_air[self._tech[src]] -= 1
        if self.trace_lines is not None:
            self.trace(src, "tx_end", "kind=%s;dst=%s", tx.kind, tx.dst)
        self.recompute_busy(channel, False)
        src_ctrl = self.controllers[src]
        src_ctrl.handle_own_tx_end(tx)
        if tx.dst is not None:
            success = self._evaluate_reception(tx)
            self.controllers[tx.dst].handle_rx(tx, success)
        # drop the frame's side of each overlap pair, so that reference
        # counting frees it (and its fade block) when its partners end
        tx.overlaps.clear()
        if tx.nav_duration_us > 0:  # only Wi-Fi frames carry a NAV
            for ctrl in self._overhearers[tx.src]:
                if ctrl.node.id != tx.dst:
                    ctrl.overheard(tx)
        src_ctrl.maybe_start()

    def _evaluate_reception(self, tx: Transmission) -> bool:
        dst = tx.dst
        index, rx_db = self._node_index, self.rx_db
        # fades are kept linear and read in dB only here
        row = index[dst]
        signal_db = rx_db[index[tx.src]][row] + 10.0 * math.log10(tx.fades[row])
        if signal_db < self._decode_floor[dst]:
            self.trace(dst, "rx_fail", "below_floor;from=%s", tx.src)
            return False
        required = tx.req_sinr_db
        max_interference = 0.0
        if tx.overlaps:
            required = max(required, self.scenario.phy.capture_threshold_db)
            # each overlapping frame's power once
            powers = [_lin(rx_db[index[other.src]][row] + 10.0 * math.log10(other.fades[row]))
                      for other, _, _ in tx.overlaps]
            max_interference = peak_interference(tx.overlaps, powers)
        sinr_db = signal_db - _dbm(self._noise_lin + max_interference)
        success = sinr_db >= required
        if not success:
            clean_sinr = signal_db - self.scenario.phy.noise_floor_dbm
            if tx.overlaps and clean_sinr >= tx.req_sinr_db:
                self.metrics.collision_count += 1
                window = ""
                if tx.kind == "ack":
                    for other, _, _ in tx.overlaps:
                        if (other.kind == "burst"
                                and tx.start_us <= other.start_us < tx.end_us):
                            self.metrics.ack_window_collisions += 1
                            window = ";ack_window"
                            break
                self.trace(dst, "collision", "from=%s;kind=%s%s", tx.src, tx.kind, window)
            else:
                self.trace(dst, "rx_fail", "fade;from=%s", tx.src)
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
            self.trace(base_id, "file_done", "client=%s;id=%s", job.client, job.file_id)

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
        self.trace(client_id, "file_arrival", "id=%s", job.file_id)
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

        The over-the-air half and the bases measured at or above
        ``measurement_floor_dbm`` (and their RSSI) never change in a run, so
        they are found once per base; a scan adds the cells relayed from them.
        """
        sources = self._scan_sources.get(base_id)
        if sources is None:
            ota = []
            for ap in self._base_ids:
                if base_id in self._decoders.get(ap, ()):
                    cell = CellInfo(ap, self.nodes[ap].channel, self.attached_count(ap))
                    ota.append(ScanEntry("over_the_air", cell, self.mean_rssi(ap, base_id)))
            rssis = [(src, self.mean_rssi(src, base_id)) for src in self._base_ids
                     if src != base_id]
            floor = self.scenario.phy.measurement_floor_dbm
            sources = self._scan_sources[base_id] = (ota, [e for e in rssis if e[1] >= floor])
        ota, measured = sources
        relayed = [ScanEntry("relayed", self.relayed[src], rssi)
                   for src, rssi in measured if src in self.relayed]
        return merge_scans(ota, relayed)

    def _handle_adapt_tick(self, base_id: str) -> None:
        ctrl = self.controllers[base_id]
        scan = self._scan_at(base_id)
        new_threshold = adapt_ed_threshold(scan, ctrl.adapt, own_channel=ctrl.node.channel)
        if new_threshold != ctrl.ed_threshold_dbm:
            ctrl.ed_threshold_dbm = new_threshold
            self.trace(base_id, "threshold", "%.2f", new_threshold)
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

        heap, pop, end_us, dispatch = self._heap, heapq.heappop, self.end_us, self._dispatch
        last_time = 0.0
        while heap:
            event = pop(heap)
            time_us = event[0]
            if time_us > end_us:
                break
            if time_us < last_time - 1e-9:
                raise SimulationError("event queue went backwards in time")
            last_time = time_us
            self.now_us = time_us
            dispatch(event)
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
