"""Cat-4 style listen-before-talk state machine for the unlicensed-LTE base.

A defer period of at least one SIFS plus one slot, then
exponential-backoff contention.  Like the DCF machine, this is a pure
transition function that returns the next state; the caller owns all
clocks, the ED threshold and the burst length, and must only deliver
``energy_below_slot`` once the defer window has elapsed idle.
Contention is one ``BACKOFF`` phase: energy above the threshold is no
event, the caller freezes the counter by delivering no slots until the
channel clears.  HARQ feedback ends a burst.  The window check, slot
step and collision redraw are the contention core in ``mac_wifi``,
which serves both machines.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .mac_wifi import ProtocolViolation, _checked, check_window, count_slot, redraw


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
        check_window(self)


def lbt_step(state: LbtState, event: str, rng: np.random.Generator) -> LbtState:
    """Advance the LBT machine by one event; returns the next state.

    Leaving ``BACKOFF`` on ``energy_below_slot`` means the counter
    expired: send the downlink burst.
    """
    if event not in LBT_EVENTS:
        raise ProtocolViolation(f"unknown event {event!r}")
    phase = state.phase

    if event == "energy_below_slot":
        if phase != LbtPhase.BACKOFF:
            raise ProtocolViolation(f"energy_below_slot is illegal in phase {phase.value}")
        return count_slot(state, LbtPhase.TX_BURST)

    # collision_feedback / success_feedback: only a burst gets feedback
    if phase != LbtPhase.TX_BURST:
        raise ProtocolViolation(f"{event} is illegal in phase {phase.value}")
    if event == "collision_feedback":
        return redraw(state, rng)
    return _checked(state, phase=LbtPhase.IDLE, cw=state.cw_min)
