#!/usr/bin/env python3
"""Bianchi's saturation model of 802.11 DCF beside coexsim's collision rate.

For N = 2..8 mutually audible, full-buffer AP+STA pairs on one channel
(every link -50 dB), prints the model's conditional collision
probability p beside the simulated one, with RTS/CTS off and then on.

The model is Bianchi's saturation fixed point (G. Bianchi, "Performance
Analysis of the IEEE 802.11 Distributed Coordination Function", IEEE
JSAC 18(3), 2000), solved by plain iteration, with W = cw_min + 1 = 16
and m = 6 doublings (cw_max = 1023).  Bianchi assumes unlimited
retries; coexsim drops a frame after retry_limit = 7 retries, as Wu et
al.'s chain does ("Performance of reliable transport protocol over IEEE
802.11 wireless LAN: analysis and enhancement", INFOCOM 2002).  Both
forms are printed, each column naming its form.

The simulated p is collided attempts over attempts, an attempt being
the frame that opens an exchange: the data frame with RTS off, the RTS
with RTS on.  Both counts come from a list trace sink (``tx_start`` and
``collision`` records); the run's ``Metrics`` collision and
retransmission counts are printed beside them.

    python scripts/dcf_oracle.py [--duration 1.0] [--seed 5]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from coexsim.config import Node, Scenario, TrafficConfig, WifiMacConfig  # noqa: E402
from coexsim.propagation import Position  # noqa: E402
from coexsim.simulator import Simulator  # noqa: E402

LINK_DB = -50.0


def attempt_probability(p: float, w: int, m: int, retry_limit: int | None) -> float:
    """tau: the probability that a saturated station transmits in a slot.

    A frame's attempts, over the slots its backoff stages take: stage i
    (window W_i = 2^min(i, m) W, mean (W_i + 1) / 2 slots with its
    attempt) is reached with probability p^i.  With ``retry_limit`` None
    the stages go on without end, which sums to Bianchi's closed form.
    """
    if retry_limit is None:
        return 2 * (1 - 2 * p) / ((1 - 2 * p) * (w + 1) + p * w * (1 - (2 * p) ** m))
    stages = range(retry_limit + 1)
    attempts = sum(p ** i for i in stages)
    slots = sum(p ** i * (2 ** min(i, m) * w + 1) / 2 for i in stages)
    return attempts / slots


def model_p(n: int, w: int, m: int, retry_limit: int | None, tol: float = 1e-12) -> float:
    """The fixed point p = 1 - (1 - tau(p))^(n - 1), by plain iteration.

    The map is decreasing in p, so bare iteration can oscillate; each
    step moves halfway to the map's value, which converges to the same
    point.
    """
    p = 0.0
    for _ in range(10_000):
        target = 1 - (1 - attempt_probability(p, w, m, retry_limit)) ** (n - 1)
        if abs(target - p) < tol:
            return target
        p = (p + target) / 2
    raise RuntimeError(f"no fixed point found for n = {n}")


def pairs_scenario(n: int, rts_cts: bool, duration_s: float, seed: int) -> Scenario:
    """``n`` AP+STA pairs, every node pair linked at ``LINK_DB``, full buffer."""
    nodes = []
    for k in range(1, n + 1):
        nodes.append(Node(id=f"ap{k}", kind="wifi_ap", position=Position(5.0 * k, 10.0)))
        nodes.append(Node(id=f"sta{k}", kind="wifi_sta", position=Position(5.0 * k, 14.0),
                          attach_to=f"ap{k}"))
    ids = [node.id for node in nodes]
    links = {(a, b): LINK_DB for i, a in enumerate(ids) for b in ids[i + 1:]}
    return Scenario(nodes=nodes, traffic=TrafficConfig(model="full_buffer"),
                    duration_s=duration_s, seed=seed, link_gains=links,
                    wifi_mac=WifiMacConfig(rts_cts=rts_cts))


def simulated(scenario: Scenario) -> tuple:
    """(attempts, collided attempts, Metrics) of one traced run."""
    kind = "rts" if scenario.wifi_mac.rts_cts else "data"
    sim = Simulator(scenario, trace_lines=[])
    metrics = sim.run()
    attempts = collided = 0
    for line in sim.trace_lines:
        _, _, _, record, detail = line.split(",", 4)
        fields = dict(item.split("=", 1) for item in detail.split(";") if "=" in item)
        if fields.get("kind") == kind:
            attempts += record == "tx_start"
            collided += record == "collision"
    return attempts, collided, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--duration", type=float, default=1.0, help="simulated seconds per run")
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args(argv)

    mac = WifiMacConfig()
    w, m = mac.cw_min + 1, ((mac.cw_max + 1) // (mac.cw_min + 1)).bit_length() - 1
    print(f"model: W = {w}, m = {m}; runs: N AP+STA pairs, every link {LINK_DB:g} dB, "
          f"full buffer, {args.duration:g} s, seed {args.seed}")
    print(f"| RTS | N | p, Bianchi (unlimited retries) | p, Wu et al. (retry_limit "
          f"{mac.retry_limit}) | simulated p | attempts | collided | Metrics collisions "
          "| Metrics retransmissions |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    for rts_cts in (False, True):
        for n in range(2, 9):
            unlimited, limited = (model_p(n, w, m, limit) for limit in (None, mac.retry_limit))
            attempts, collided, metrics = simulated(
                pairs_scenario(n, rts_cts, args.duration, args.seed))
            sim_p = collided / attempts if attempts else float("nan")
            print(f"| {'on' if rts_cts else 'off'} | {n} | {unlimited:.3f} | {limited:.3f} "
                  f"| {sim_p:.3f} | {attempts} | {collided} | {metrics.collision_count} "
                  f"| {metrics.retransmissions} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
