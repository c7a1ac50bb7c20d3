import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coexsim.mac_lte import LBT_EVENTS, LbtPhase, LbtState, lbt_step
from coexsim.mac_wifi import ProtocolViolation, check_window, idle_slots, start_access


def rng():
    return np.random.default_rng(77)


class TestLbtStep:
    def test_idle_slot_decrements_after_defer(self):
        s = LbtState(phase=LbtPhase.BACKOFF, backoff_counter=2)
        s2 = lbt_step(s, "energy_below_slot", rng())
        assert s2.backoff_counter == 1
        assert s2.phase == LbtPhase.BACKOFF

    def test_counter_expiry_starts_burst(self):
        s = LbtState(phase=LbtPhase.BACKOFF, backoff_counter=1)
        s2 = lbt_step(s, "energy_below_slot", rng())
        assert s2.phase == LbtPhase.TX_BURST
        assert s2.backoff_counter == 0

    def test_zero_counter_transmits_at_defer_completion(self):
        s = LbtState(phase=LbtPhase.BACKOFF, backoff_counter=0)
        s2 = lbt_step(s, "energy_below_slot", rng())
        assert s2.phase == LbtPhase.TX_BURST
        assert s2.backoff_counter == 0

    def test_success_resets_cw(self):
        s = LbtState(phase=LbtPhase.TX_BURST, cw=63)
        s2 = lbt_step(s, "success_feedback", rng())
        assert s2.phase == LbtPhase.IDLE
        assert s2.cw == s2.cw_min

    def test_collision_doubles_cw(self):
        s = LbtState(phase=LbtPhase.TX_BURST, cw=15)
        s2 = lbt_step(s, "collision_feedback", rng())
        assert s2.cw == 31
        assert s2.phase == LbtPhase.BACKOFF

    def test_illegal_pair_raises(self):
        with pytest.raises(ProtocolViolation):
            lbt_step(LbtState(phase=LbtPhase.BACKOFF), "success_feedback", rng())

    def test_unknown_event_raises(self):
        with pytest.raises(ProtocolViolation):
            lbt_step(LbtState(), "cosmic_ray", rng())


def test_cw_ladder_exact():
    # the ladder from cw_min 15 with cap 63 is exactly {15, 31, 63}
    seen = set()
    s = LbtState(phase=LbtPhase.TX_BURST, cw=15, cw_min=15, cw_max=63)
    for _ in range(10):
        seen.add(s.cw)
        s = lbt_step(s, "collision_feedback", rng())
        s = LbtState(phase=LbtPhase.TX_BURST, cw=s.cw, cw_min=15, cw_max=63)
    assert seen == {15, 31, 63}


# Expected legality per (phase, event): exactly the pairs the engine
# drives (tests/test_simulator.py::TestSteppedPairs checks that it does)
LEGAL = {
    (LbtPhase.BACKOFF, "energy_below_slot"),
    (LbtPhase.TX_BURST, "collision_feedback"), (LbtPhase.TX_BURST, "success_feedback"),
}


@pytest.mark.parametrize("phase", list(LbtPhase))
@pytest.mark.parametrize("event", LBT_EVENTS)
def test_transition_table_exhaustive(phase, event):
    s = LbtState(phase=phase, backoff_counter=3)
    if (phase, event) in LEGAL:
        lbt_step(s, event, rng())
    else:
        with pytest.raises(ProtocolViolation):
            lbt_step(s, event, rng())


def test_cw_bounds_under_random_legal_streams():
    gen = np.random.default_rng(5)
    for _ in range(200):
        s = LbtState()
        for _ in range(60):
            if s.phase == LbtPhase.IDLE:
                s = start_access(s, gen)
            events = sorted(e for p, e in LEGAL if p == s.phase)
            event = events[int(gen.integers(0, len(events)))]
            s = lbt_step(s, event, gen)
            assert s.cw_min <= s.cw <= s.cw_max
            assert (s.cw + 1) & s.cw == 0
            assert 0 <= s.backoff_counter <= s.cw


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=4),
       st.integers(min_value=0, max_value=2**32 - 1),
       st.lists(st.integers(min_value=0, max_value=10**6), max_size=80))
@settings(derandomize=True, max_examples=200)
def test_every_returned_state_passes_check_window(k_min, k_extra, seed, picks):
    # some steps build their state without __post_init__, so the window
    # check must hold by construction: check it on every state returned
    cw_min, cw_max = 2 ** k_min - 1, 2 ** (k_min + k_extra) - 1
    gen = np.random.default_rng(seed)
    s = LbtState(cw=cw_min, cw_min=cw_min, cw_max=cw_max)
    for pick in picks:
        if s.phase == LbtPhase.IDLE:
            s = start_access(s, gen)
        elif s.phase == LbtPhase.BACKOFF and s.backoff_counter > 1 and pick % 2:
            s = idle_slots(s, pick % s.backoff_counter)
        else:
            events = sorted(e for p, e in LEGAL if p == s.phase)
            s = lbt_step(s, events[pick % len(events)], gen)
        check_window(s)


def first_grant_slot(energy_trace, threshold, counter, defer_slots=3):
    """Replay a recorded per-slot energy trace through one access attempt.

    Returns the slot index at which the machine would start its burst,
    or None if the trace ends first.  The defer window is modeled as
    ``defer_slots`` consecutive below-threshold slots before countdown
    slots count.
    """
    s = LbtState(phase=LbtPhase.BACKOFF, backoff_counter=counter)
    gen = rng()
    idle_run = 0
    for i, energy in enumerate(energy_trace):
        if energy >= threshold:
            idle_run = 0  # the busy slot freezes the counter: no step
            continue
        idle_run += 1
        if idle_run >= defer_slots:
            s = lbt_step(s, "energy_below_slot", gen)
            if s.phase == LbtPhase.TX_BURST:
                return i
    return None


def test_politeness_monotone_in_threshold():
    # replaying identical recorded energy traces with identical backoff
    # draws: lowering the threshold never grants channel access earlier,
    # and every slot busy at the high threshold is busy at the low one
    gen = np.random.default_rng(123)
    for _ in range(100):
        trace = gen.uniform(-95.0, -55.0, size=400)
        counter = int(gen.integers(0, 16))
        grant_hi = first_grant_slot(trace, -62.0, counter)
        grant_lo = first_grant_slot(trace, -75.0, counter)
        assert set(np.nonzero(trace >= -62.0)[0]) <= set(np.nonzero(trace >= -75.0)[0])
        if grant_lo is not None:
            assert grant_hi is not None
            assert grant_lo >= grant_hi


class TestStateValidation:
    def test_cw_form(self):
        with pytest.raises(ValueError):
            LbtState(cw=14)


# reachable counting states: any cw of the 15..63 ladder, any counter in
# [1, cw]
@st.composite
def counting_states(draw):
    cw = draw(st.sampled_from([15, 31, 63]))
    return LbtState(
        phase=LbtPhase.BACKOFF,
        cw=cw,
        backoff_counter=draw(st.integers(min_value=1, max_value=cw)),
    )


class TestIdleSlots:
    @given(counting_states(), st.data())
    @settings(derandomize=True, max_examples=200)
    def test_equals_repeated_energy_below_slot_steps(self, state, data):
        n = data.draw(st.integers(min_value=0, max_value=state.backoff_counter - 1))
        stepped = state
        for _ in range(n):
            stepped = lbt_step(stepped, "energy_below_slot", rng())
            assert stepped.phase == LbtPhase.BACKOFF
        assert idle_slots(state, n) == stepped

    @given(counting_states(), st.integers(min_value=0, max_value=128))
    @settings(derandomize=True, max_examples=100)
    def test_reaching_zero_rejected(self, state, extra):
        with pytest.raises(ValueError):
            idle_slots(state, state.backoff_counter + extra)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            idle_slots(LbtState(phase=LbtPhase.BACKOFF, backoff_counter=3), -1)

    @pytest.mark.parametrize("phase", [LbtPhase.IDLE, LbtPhase.TX_BURST])
    def test_illegal_outside_contention(self, phase):
        with pytest.raises(ProtocolViolation):
            idle_slots(LbtState(phase=phase, backoff_counter=5), 1)
