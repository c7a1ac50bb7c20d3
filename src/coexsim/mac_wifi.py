"""Slotted 802.11 DCF transmitter state machine and the contention core.

The state machine is a pure transition function over (phase, event)
pairs that returns the next state; the caller reads from its phase
what to do.  All timing (when an idle slot has elapsed, when an ACK
timed out) belongs to the caller, which is either the discrete-event
simulator or a test harness.  Illegal (phase, event) pairs raise
``ProtocolViolation`` rather than being silently ignored.

Contention is one ``BACKOFF`` phase.  A busy medium is no event: the
caller freezes the counter by delivering no idle slots until the
medium clears.  The NAV is not a phase either: the caller keeps it as
a timer and holds the countdown off until it expires.  The contention
core (``check_window``, ``start_access``, ``idle_slots``,
``count_slot`` and ``redraw``) serves this machine and the Cat-4 LBT
machine in ``mac_lte`` alike, because both name their phases ``IDLE``
and ``BACKOFF``.

A backoff counter comes from a draw source: anything with
``integers(low, high)`` as ``np.random.Generator`` has it (``Draws``).
The simulator gives each base a ``BlockDraws``, which returns
Generator's values bit for bit at a fraction of the cost per draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Protocol, TypeVar


class ProtocolViolation(Exception):
    """A MAC state machine was fed an event that is illegal in its phase."""


State = TypeVar("State")  # a DcfState or a mac_lte.LbtState

# raw 64-bit outputs a BlockDraws takes from its bit generator at a time
RAW_BLOCK = 64
_U32 = 0xFFFFFFFF
# the widest contention window: a BlockDraws bounds at most 2^32 values
CW_LIMIT = _U32


class Draws(Protocol):
    """A draw source: ``integers(low, high)``, uniform on [low, high), as
    ``np.random.Generator.integers`` returns it."""

    def integers(self, low: int, high: int) -> int: ...


class BlockDraws:
    """``Generator.integers(low, high)`` bit for bit, from raw outputs in blocks.

    ``bit_generator`` is a PCG64 whose stream feeds these draws and no
    other.  Its raw 64-bit outputs come ``RAW_BLOCK`` at a time
    (``random_raw``), and each draw is bounded as numpy bounds one of at
    most 2^32 values: from 32-bit words, PCG64 handing out the low half of
    an output first and the high half next; a range of one value takes no
    word, and any other Lemire's multiply-and-reject with numpy's
    threshold (D. Lemire, "Fast Random Integer Generation in an Interval",
    ACM TOMACS 29(1), 2019), which takes a range of 2^32 as one word as it
    is.  A wider range is rejected.
    """

    def __init__(self, bit_generator):
        self._bit_generator = bit_generator
        self._words = iter(())

    def _word(self) -> int:
        """The next 32-bit word of the stream."""
        word = next(self._words, None)
        if word is None:
            raw = self._bit_generator.random_raw(RAW_BLOCK)
            self._words = iter(raw.astype("<u8", copy=False).view("<u4").tolist())
            word = next(self._words)
        return word

    def integers(self, low: int, high: int) -> int:
        rng = high - low - 1  # numpy's inclusive range
        if rng == 0:
            return low
        if not 0 < rng <= _U32:
            raise ValueError(f"integers({low}, {high}) needs 1 to 2^32 values")
        # for 2^32 values numpy returns the word as it is, which this gives too
        span = rng + 1
        m = self._word() * span
        if m & _U32 < span:
            threshold = (_U32 - rng) % span
            while m & _U32 < threshold:
                m = self._word() * span
        return low + (m >> 32)


def check_window(state: State) -> None:
    """Reject a window outside [cw_min, cw_max] or not 2^k - 1, or a counter above it."""
    if not (state.cw_min <= state.cw <= state.cw_max):
        raise ValueError(f"cw {state.cw} outside [{state.cw_min}, {state.cw_max}]")
    if (state.cw + 1) & state.cw:
        raise ValueError("cw must have the 2^k - 1 form")
    if state.backoff_counter > state.cw:
        raise ValueError("backoff counter may not exceed cw")


def _next(state: State, **changes) -> State:
    """``replace`` without ``__post_init__``, for a step that keeps the window valid.

    Only steps that leave ``cw`` as it is and never raise the counter
    use it; a step that draws a counter or sets the window takes
    ``_checked``.
    """
    new = object.__new__(type(state))
    new.__dict__.update(state.__dict__, **changes)
    return new


def _checked(state: State, **changes) -> State:
    """``_next`` plus the ``check_window`` that ``replace`` runs through ``__post_init__``."""
    new = _next(state, **changes)
    check_window(new)
    return new


def start_access(state: State, rng: Draws) -> State:
    """Begin a channel-access attempt: draw a backoff counter.

    Caller invokes this when a frame becomes pending while the machine
    is idle (or after a completed exchange with more frames queued).
    """
    phases = type(state.phase)
    if state.phase != phases.IDLE:
        raise ProtocolViolation(f"cannot start access from phase {state.phase.value}")
    counter = int(rng.integers(0, state.cw + 1))
    return _checked(state, phase=phases.BACKOFF, backoff_counter=counter)


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
    return _next(state, backoff_counter=state.backoff_counter - n)


def count_slot(state: State, tx_phase) -> State:
    """One idle slot: decrement, or enter ``tx_phase`` at 0 (last slot, or a counter drawn 0)."""
    if state.backoff_counter > 1:
        return _next(state, backoff_counter=state.backoff_counter - 1)
    return _next(state, phase=tx_phase, backoff_counter=0)


def redraw(state: State, rng: Draws, **changes) -> State:
    """A failed attempt: double the window up to ``cw_max``, draw a counter in ``BACKOFF``."""
    cw = min(2 * state.cw + 1, state.cw_max)
    counter = int(rng.integers(0, cw + 1))
    return _checked(state, phase=type(state.phase).BACKOFF, cw=cw, backoff_counter=counter,
                    **changes)


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
class DcfState:
    phase: DcfPhase = DcfPhase.IDLE
    cw: int = 15
    backoff_counter: int = 0
    retry_count: int = 0
    cw_min: int = 15
    cw_max: int = 1023
    retry_limit: int = 7

    def __post_init__(self) -> None:
        check_window(self)


def dcf_step(state: DcfState, event: str, rng: Draws) -> DcfState:
    """Advance the DCF machine by one event; returns the next state.

    Leaving ``BACKOFF`` on ``medium_idle_slot`` means the counter
    expired: transmit.  ``IDLE`` after ``ack_received``, ``ack_timeout``
    or ``rts_cts_fail`` means the frame is done, delivered or dropped at
    the retry limit, and the contention parameters are reset.
    """
    if event not in DCF_EVENTS:
        raise ProtocolViolation(f"unknown event {event!r}")
    phase = state.phase

    if event == "medium_idle_slot":
        if phase != DcfPhase.BACKOFF:
            raise ProtocolViolation(f"medium_idle_slot is illegal in phase {phase.value}")
        return count_slot(state, DcfPhase.TX_DATA)

    if event == "tx_done":
        if phase != DcfPhase.TX_DATA:
            raise ProtocolViolation(f"tx_done is illegal in phase {phase.value}")
        return _next(state, phase=DcfPhase.AWAIT_ACK)

    if event in ("ack_received", "ack_timeout") and phase != DcfPhase.AWAIT_ACK:
        raise ProtocolViolation(f"{event} is illegal in phase {phase.value}")
    # an RTS is out only in TX_DATA: the CTS cancels its timeout before
    # the data frame goes out
    if event == "rts_cts_fail" and phase != DcfPhase.TX_DATA:
        raise ProtocolViolation(f"rts_cts_fail is illegal in phase {phase.value}")
    if event == "ack_received" or state.retry_count >= state.retry_limit:
        return _checked(state, phase=DcfPhase.IDLE, cw=state.cw_min, retry_count=0)
    # ack_timeout / rts_cts_fail: binary exponential backoff
    return redraw(state, rng, retry_count=state.retry_count + 1)
