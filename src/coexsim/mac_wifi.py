"""Slotted 802.11 DCF transmitter state machine.

The state machine is a pure transition function over (phase, event)
pairs; all timing (when an idle slot has elapsed, when an ACK timed
out) belongs to the caller, which is either the discrete-event
simulator or a test harness.  Illegal (phase, event) pairs raise
``ProtocolViolation`` rather than being silently ignored.

Contention is one ``BACKOFF`` phase.  A busy medium is no event: the
caller freezes the counter by delivering no idle slots until the
medium clears.  The NAV is not a phase either: the caller keeps it as
a timer and holds the countdown off until it expires.  ``start_access``
and ``idle_slots`` serve this machine and the Cat-4 LBT machine in
``mac_lte`` alike, because both name their phases ``IDLE`` and
``BACKOFF``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import TypeVar

import numpy as np


class ProtocolViolation(Exception):
    """A MAC state machine was fed an event that is illegal in its phase."""


State = TypeVar("State")  # a DcfState or a mac_lte.LbtState


def start_access(state: State, rng: np.random.Generator) -> State:
    """Begin a channel-access attempt: draw a backoff counter.

    Caller invokes this when a frame becomes pending while the machine
    is idle (or after a completed exchange with more frames queued).
    """
    phases = type(state.phase)
    if state.phase != phases.IDLE:
        raise ProtocolViolation(f"cannot start access from phase {state.phase.value}")
    counter = int(rng.integers(0, state.cw + 1))
    return replace(state, phase=phases.BACKOFF, backoff_counter=counter)


def idle_slots(state: State, n: int) -> State:
    """The state after ``n`` idle slots that transmit nothing.

    Equal to ``n`` idle-slot steps of the machine (``medium_idle_slot``
    for DCF, ``energy_below_slot`` for LBT); ``n`` must be below the
    backoff counter, so the slot that ends the countdown is always
    delivered through the machine's step function.
    """
    if state.phase != type(state.phase).BACKOFF:
        raise ProtocolViolation(f"idle slots are illegal in phase {state.phase.value}")
    if not 0 <= n < state.backoff_counter:
        raise ValueError(f"{n} idle slots do not fit a backoff counter of "
                         f"{state.backoff_counter}")
    if n == 0:
        return state
    return replace(state, backoff_counter=state.backoff_counter - n)


class DcfPhase(str, Enum):
    IDLE = "idle"
    BACKOFF = "backoff"
    TX_DATA = "tx_data"
    AWAIT_ACK = "await_ack"


# events accepted by dcf_step
DCF_EVENTS = (
    "medium_idle_slot",
    "tx_done",
    "ack_received",
    "ack_timeout",
    "rts_cts_fail",
)


@dataclass(frozen=True)
class MacTiming:
    """802.11 OFDM interframe timing; difs is derived as sifs + 2 slots."""

    slot_us: float = 9.0
    sifs_us: float = 16.0
    ack_duration_us: float = 44.0
    beacon_interval_ms: float = 100.0

    def __post_init__(self) -> None:
        if min(self.slot_us, self.sifs_us, self.ack_duration_us, self.beacon_interval_ms) <= 0:
            raise ValueError("all timing parameters must be positive")

    @property
    def difs_us(self) -> float:
        return self.sifs_us + 2.0 * self.slot_us


@dataclass(frozen=True)
class DcfState:
    phase: DcfPhase = DcfPhase.IDLE
    cw: int = 15
    backoff_counter: int = 0
    retry_count: int = 0
    cw_min: int = 15
    cw_max: int = 1023
    retry_limit: int = 7
    use_rts: bool = False

    def __post_init__(self) -> None:
        if not (self.cw_min <= self.cw <= self.cw_max):
            raise ValueError(f"cw {self.cw} outside [{self.cw_min}, {self.cw_max}]")
        if (self.cw + 1) & self.cw:
            raise ValueError("cw must have the 2^k - 1 form")
        if self.backoff_counter > self.cw:
            raise ValueError("backoff counter may not exceed cw")


def _double_cw(state: DcfState, rng: np.random.Generator) -> DcfState:
    new_cw = min(2 * state.cw + 1, state.cw_max)
    counter = int(rng.integers(0, new_cw + 1))
    return replace(
        state,
        cw=new_cw,
        backoff_counter=counter,
        retry_count=state.retry_count + 1,
        phase=DcfPhase.BACKOFF,
    )


def dcf_step(
    state: DcfState,
    event: str,
    rng: np.random.Generator,
) -> tuple[DcfState, list[str]]:
    """Advance the DCF machine by one event; returns (state, actions).

    Actions the caller must perform: ``tx_data`` / ``tx_rts`` (counter
    expired), ``access_complete`` (ACK received), ``drop_frame`` (retry
    limit exceeded, contention parameters reset).
    """
    if event not in DCF_EVENTS:
        raise ProtocolViolation(f"unknown event {event!r}")
    phase = state.phase

    if event == "medium_idle_slot":
        if phase != DcfPhase.BACKOFF:
            raise ProtocolViolation(f"medium_idle_slot is illegal in phase {phase.value}")
        if state.backoff_counter > 1:
            return replace(state, backoff_counter=state.backoff_counter - 1), []
        # the last slot of the countdown, or a counter drawn as zero
        action = "tx_rts" if state.use_rts else "tx_data"
        return replace(state, phase=DcfPhase.TX_DATA, backoff_counter=0), [action]

    if event == "tx_done":
        if phase != DcfPhase.TX_DATA:
            raise ProtocolViolation(f"tx_done is illegal in phase {phase.value}")
        return replace(state, phase=DcfPhase.AWAIT_ACK), []

    if event == "ack_received":
        if phase != DcfPhase.AWAIT_ACK:
            raise ProtocolViolation(f"ack_received is illegal in phase {phase.value}")
        return (
            replace(state, phase=DcfPhase.IDLE, cw=state.cw_min, retry_count=0),
            ["access_complete"],
        )

    # ack_timeout / rts_cts_fail: binary exponential backoff
    if event == "ack_timeout" and phase != DcfPhase.AWAIT_ACK:
        raise ProtocolViolation(f"ack_timeout is illegal in phase {phase.value}")
    # an RTS is out only in TX_DATA: the CTS cancels its timeout before
    # the data frame goes out
    if event == "rts_cts_fail" and phase != DcfPhase.TX_DATA:
        raise ProtocolViolation(f"rts_cts_fail is illegal in phase {phase.value}")
    if state.retry_count + 1 > state.retry_limit:
        # give up on this frame; contention parameters reset
        fresh = replace(state, phase=DcfPhase.IDLE, cw=state.cw_min, retry_count=0)
        return fresh, ["drop_frame"]
    return _double_cw(state, rng), []
