"""Cat-4 style listen-before-talk state machine for the unlicensed-LTE base.

A defer period of at least one SIFS plus one slot, then
exponential-backoff contention.  Like the DCF machine, this is a pure
transition function; the caller owns all clocks, the ED threshold and
the burst length, and must only deliver ``energy_below_slot`` once the
defer window has elapsed idle.  Contention is one ``BACKOFF`` phase:
energy above the threshold is no event, the caller freezes the counter
by delivering no slots until the channel clears.  HARQ feedback ends a
burst.  The backoff draw and idle-slot runs are
``mac_wifi.start_access`` and ``mac_wifi.idle_slots``, which serve
both machines.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .mac_wifi import ProtocolViolation


class LbtPhase(str, Enum):
    IDLE = "idle"
    BACKOFF = "backoff"
    TX_BURST = "tx_burst"


LBT_EVENTS = (
    "energy_below_slot",
    "collision_feedback",
    "success_feedback",
)


@dataclass(frozen=True)
class LbtState:
    phase: LbtPhase = LbtPhase.IDLE
    cw: int = 15
    backoff_counter: int = 0
    cw_min: int = 15
    cw_max: int = 63

    def __post_init__(self) -> None:
        if not (self.cw_min <= self.cw <= self.cw_max):
            raise ValueError(f"cw {self.cw} outside [{self.cw_min}, {self.cw_max}]")
        if (self.cw + 1) & self.cw:
            raise ValueError("cw must have the 2^k - 1 form")


def lbt_step(
    state: LbtState,
    event: str,
    rng: np.random.Generator,
) -> tuple[LbtState, list[str]]:
    """Advance the LBT machine by one event; returns (state, actions).

    ``start_burst`` asks the caller to send its downlink burst.
    """
    if event not in LBT_EVENTS:
        raise ProtocolViolation(f"unknown event {event!r}")
    phase = state.phase

    if event == "energy_below_slot":
        if phase != LbtPhase.BACKOFF:
            raise ProtocolViolation(f"energy_below_slot is illegal in phase {phase.value}")
        if state.backoff_counter > 1:
            return replace(state, backoff_counter=state.backoff_counter - 1), []
        # the last slot of the countdown, or a counter drawn as zero
        return replace(state, phase=LbtPhase.TX_BURST, backoff_counter=0), ["start_burst"]

    # collision_feedback / success_feedback: only a burst gets feedback
    if phase != LbtPhase.TX_BURST:
        raise ProtocolViolation(f"{event} is illegal in phase {phase.value}")
    if event == "collision_feedback":
        cw = min(2 * state.cw + 1, state.cw_max)
        counter = int(rng.integers(0, cw + 1))
        return replace(state, phase=LbtPhase.BACKOFF, cw=cw, backoff_counter=counter), []
    return replace(state, phase=LbtPhase.IDLE, cw=state.cw_min), []
