import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coexsim.config import Node, Scenario, TrafficConfig, WifiMacConfig
from coexsim.mac_wifi import (
    DCF_EVENTS,
    DcfPhase,
    DcfState,
    ProtocolViolation,
    check_window,
    dcf_step,
    idle_slots,
    start_access,
)
from coexsim.propagation import Position
from coexsim.simulator import Simulator, Transmission


def rng():
    return np.random.default_rng(1234)


class TestTiming:
    def test_difs_is_sifs_plus_two_slots(self):
        t = WifiMacConfig(slot_us=9, sifs_us=16)
        assert t.difs_us == 34

    def test_positive_required(self):
        with pytest.raises(ValueError):
            WifiMacConfig(slot_us=0)


class TestDcfStep:
    def test_idle_slot_decrements(self):
        s = DcfState(phase=DcfPhase.BACKOFF, backoff_counter=3)
        s2 = dcf_step(s, "medium_idle_slot", rng())
        assert s2.backoff_counter == 2
        assert s2.phase == DcfPhase.BACKOFF

    def test_ack_timeout_doubles_cw(self):
        s = DcfState(phase=DcfPhase.AWAIT_ACK, cw=15)
        s2 = dcf_step(s, "ack_timeout", rng())
        assert s2.phase == DcfPhase.BACKOFF
        assert s2.cw == 31
        assert 0 <= s2.backoff_counter <= 31
        assert s2.retry_count == 1

    def test_counter_expiry_emits_data(self):
        s = DcfState(phase=DcfPhase.BACKOFF, backoff_counter=1)
        s2 = dcf_step(s, "medium_idle_slot", rng())
        assert s2.phase == DcfPhase.TX_DATA
        assert s2.backoff_counter == 0

    def test_ack_received_back_to_idle(self):
        s = DcfState(phase=DcfPhase.AWAIT_ACK, cw=255, retry_count=3)
        s2 = dcf_step(s, "ack_received", rng())
        assert s2.phase == DcfPhase.IDLE
        assert s2.cw == s.cw_min
        assert s2.retry_count == 0

    def test_cw_caps_at_max(self):
        s = DcfState(phase=DcfPhase.AWAIT_ACK, cw=1023, cw_max=1023, retry_limit=20)
        s2 = dcf_step(s, "ack_timeout", rng())
        assert s2.cw == 1023

    def test_retry_limit_drops_frame(self):
        s = DcfState(phase=DcfPhase.AWAIT_ACK, cw=1023, retry_count=7, retry_limit=7)
        s2 = dcf_step(s, "ack_timeout", rng())
        assert s2.phase == DcfPhase.IDLE
        assert s2.cw == s2.cw_min
        assert s2.retry_count == 0

    def test_rts_cts_fail_doubles(self):
        s = DcfState(phase=DcfPhase.TX_DATA, cw=31)
        s2 = dcf_step(s, "rts_cts_fail", rng())
        assert s2.phase == DcfPhase.BACKOFF
        assert s2.cw == 63


# Expected legality per (phase, event): exactly the pairs the engine
# drives (tests/test_simulator.py::TestSteppedPairs checks that it does)
LEGAL = {
    ("backoff", "medium_idle_slot"),
    ("tx_data", "tx_done"), ("tx_data", "rts_cts_fail"),
    ("await_ack", "ack_received"), ("await_ack", "ack_timeout"),
}


@pytest.mark.parametrize("phase", list(DcfPhase))
@pytest.mark.parametrize("event", DCF_EVENTS)
def test_transition_table_exhaustive(phase, event):
    s = DcfState(phase=phase, backoff_counter=3)
    if (phase.value, event) in LEGAL:
        dcf_step(s, event, rng())
    else:
        with pytest.raises(ProtocolViolation):
            dcf_step(s, event, rng())


@pytest.mark.parametrize("phase", [p for p in DcfPhase if p != DcfPhase.IDLE])
def test_start_access_only_from_idle(phase):
    with pytest.raises(ProtocolViolation, match="cannot start access"):
        start_access(DcfState(phase=phase, backoff_counter=3), rng())


def test_unknown_event_rejected():
    with pytest.raises(ProtocolViolation):
        dcf_step(DcfState(), "solar_flare", rng())


def test_cw_bounds_under_random_legal_streams():
    # fuzz the machine with random legal events; cw must stay a 2^k-1
    # value inside [cw_min, cw_max] throughout
    gen = np.random.default_rng(7)
    for _ in range(200):
        s = DcfState(retry_limit=1000)
        for _ in range(60):
            if s.phase == DcfPhase.IDLE:
                s = start_access(s, gen)
            legal = sorted(e for p, e in LEGAL if p == s.phase.value)
            event = legal[int(gen.integers(0, len(legal)))]
            s = dcf_step(s, event, gen)
            assert s.cw_min <= s.cw <= s.cw_max
            assert (s.cw + 1) & s.cw == 0
            assert 0 <= s.backoff_counter <= s.cw


@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=4),
       st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=2**32 - 1),
       st.lists(st.integers(min_value=0, max_value=10**6), max_size=80))
@settings(derandomize=True, max_examples=200)
def test_every_returned_state_passes_check_window(k_min, k_extra, retry_limit, seed, picks):
    # some steps build their state without __post_init__, so the window
    # check must hold by construction: check it on every state returned
    cw_min, cw_max = 2 ** k_min - 1, 2 ** (k_min + k_extra) - 1
    gen = np.random.default_rng(seed)
    s = DcfState(cw=cw_min, cw_min=cw_min, cw_max=cw_max, retry_limit=retry_limit)
    for pick in picks:
        if s.phase == DcfPhase.IDLE:
            s = start_access(s, gen)
        elif s.phase == DcfPhase.BACKOFF and s.backoff_counter > 1 and pick % 2:
            s = idle_slots(s, pick % s.backoff_counter)
        else:
            legal = sorted(e for p, e in LEGAL if p == s.phase.value)
            s = dcf_step(s, legal[pick % len(legal)], gen)
        check_window(s)


def ap_overhearing(nav_until_us=0.0):
    # the AP of a one-cell network, idle before the run starts, with its
    # NAV already running to ``nav_until_us``
    sim = Simulator(Scenario(
        nodes=[
            Node(id="ap1", kind="wifi_ap", position=Position(25, 30)),
            Node(id="sta1", kind="wifi_sta", position=Position(25, 40), attach_to="ap1"),
        ],
        traffic=TrafficConfig(model="full_buffer"), duration_s=0.1, seed=5,
    ))
    ap = sim.controllers["ap1"]
    ap.nav_until_us = nav_until_us
    return sim, ap


def other_cells_cts(nav_us):
    return Transmission(0, "sta2", "ap2", "cts", 0.0, 50.0, 0.0, 0.0,
                        nav_duration_us=nav_us)


class TestNav:
    """The AP's NAV is a timer on its controller, not a DCF phase."""

    def test_sets_from_zero(self):
        sim, ap = ap_overhearing()
        sim.now_us = 50.0
        ap.overheard(other_cells_cts(100.0))
        assert ap.nav_until_us == 150.0
        assert ap.mac.phase == DcfPhase.IDLE
        assert (150.0, ap.maybe_start) in [(e.time_us, e.handler) for e in sim._heap]

    def test_max_rule_keeps_longer(self):
        sim, ap = ap_overhearing(nav_until_us=200.0)
        sim.now_us = 50.0
        ap.overheard(other_cells_cts(10.0))
        assert ap.nav_until_us == 200.0

    def test_clear_after_expiry(self):
        sim, ap = ap_overhearing()
        ap.overheard(other_cells_cts(100.0))
        sim.now_us = 50.0
        assert ap.blocked()
        sim.now_us = 100.0
        assert not ap.blocked()


class TestStateValidation:
    def test_cw_form_enforced(self):
        with pytest.raises(ValueError):
            DcfState(cw=20)

    def test_counter_bound_enforced(self):
        with pytest.raises(ValueError):
            DcfState(cw=15, backoff_counter=16)


# reachable counting states: any cw of the 2^k - 1 ladder, any counter
# in [1, cw], any retry count
@st.composite
def counting_states(draw):
    cw = draw(st.sampled_from([15, 31, 63, 127, 255, 511, 1023]))
    return DcfState(
        phase=DcfPhase.BACKOFF,
        cw=cw,
        backoff_counter=draw(st.integers(min_value=1, max_value=cw)),
        retry_count=draw(st.integers(min_value=0, max_value=7)),
    )


class TestIdleSlots:
    @given(counting_states(), st.data())
    @settings(derandomize=True, max_examples=200)
    def test_equals_repeated_idle_slot_steps(self, state, data):
        n = data.draw(st.integers(min_value=0, max_value=state.backoff_counter - 1))
        stepped = state
        for _ in range(n):
            stepped = dcf_step(stepped, "medium_idle_slot", rng())
            assert stepped.phase == DcfPhase.BACKOFF
        assert idle_slots(state, n) == stepped

    @given(counting_states(), st.integers(min_value=0, max_value=2048))
    @settings(derandomize=True, max_examples=100)
    def test_reaching_zero_rejected(self, state, extra):
        with pytest.raises(ValueError):
            idle_slots(state, state.backoff_counter + extra)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            idle_slots(DcfState(phase=DcfPhase.BACKOFF, backoff_counter=3), -1)

    @pytest.mark.parametrize("phase", [p for p in DcfPhase if p != DcfPhase.BACKOFF])
    def test_illegal_where_idle_slot_is(self, phase):
        s = DcfState(phase=phase, backoff_counter=5)
        with pytest.raises(ProtocolViolation):
            dcf_step(s, "medium_idle_slot", rng())
        with pytest.raises(ProtocolViolation):
            idle_slots(s, 1)
