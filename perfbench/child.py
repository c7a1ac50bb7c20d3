"""One benchmark repetition, run in a fresh process by ``run.py``.

Usage: ``python3 perfbench/child.py JOB.json``

The job names the ``coexsim`` command lines to run, in order, through
``coexsim.cli.main``, and whether to install the full layer spans
(traced) or only the few boundary spans every run needs for set-up
and simulator time.  The result goes to the job's ``result`` path as
JSON: the ``coexsim`` import time, each command's exit code or error,
the span aggregates and counters, the CLOCK_MONOTONIC time at which the
last command returned (its output files are closed by then), and the
times a fixed calibration kernel took, sampled through the timed part
(``SpeedSampler``).
"""

from __future__ import annotations

import heapq
import json
import signal
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from spans import Tracer  # noqa: E402

SIM = "coexsim.simulator:"
# Host-speed samples every 50 ms of wall time: about 1 ms of Python work,
# or about 0.15 ms of numpy work.
CALIBRATION_PERIOD_S = 0.05
CALIBRATION_ITERS = 2_000
NUMPY_CALIBRATION_SIZE = 20_000

# Installed in every run: a handful of calls per scenario, never per event.
BOUNDARY = (
    ("coexsim.cli:load_with_overrides", "cli.load_with_overrides"),
    ("coexsim.config:build_scenario", "config.build_scenario"),
    ("coexsim.config:build_coverage_spec", "config.build_coverage_spec"),
    ("coexsim.cli:cmd_coverage", "cli.cmd_coverage"),
    (SIM + "Simulator.__init__", "sim.init"),
    (SIM + "Simulator.run", "sim.run"),
)

# Installed in traced runs only: one span per layer boundary.
LAYERS = (
    ("coexsim.config:load_config", "config.load_config"),
    ("coexsim.config:apply_overrides", "config.apply_overrides"),
    ("coexsim.cli:_run_batch", "cli.run_batch"),
    ("coexsim.cli:write_rows", "cli.write_rows"),
    (SIM + "Simulator._dispatch", "engine.dispatch"),
    (SIM + "Simulator._push", "engine.push"),
    (SIM + "Simulator.trace", "sim.trace"),
    ("coexsim.mac_wifi:dcf_step", "mac_wifi.dcf_step"),
    ("coexsim.mac_lte:lbt_step", "mac_lte.lbt_step"),
    (SIM + "_WifiApController.start_data", "mac_wifi.start_data"),
    (SIM + "_WifiApController.start_rts", "mac_wifi.start_rts"),
    (SIM + "_LteEnbController.start_burst", "mac_lte.start_burst"),
    (SIM + "Simulator.start_transmission", "phy.start_tx"),
    (SIM + "Simulator.recompute_busy", "phy.recompute_busy"),
    (SIM + "Simulator.sensed_power_dbm", "phy.sensed_power"),
    (SIM + "Simulator._evaluate_reception", "phy.reception"),
    ("coexsim.propagation:sample_link_gains", "propagation.sample_link_gains"),
    ("coexsim.sensing:fractional_ed_coverage", "sensing.coverage"),
    ("coexsim.relay:encode_pseudo_beacon", "relay.encode"),
    ("coexsim.relay:decode_pseudo_beacon", "relay.decode"),
    ("coexsim.relay:merge_scans", "relay.merge"),
    ("coexsim.coordination:adapt_ed_threshold", "coordination.adapt"),
)


# -- probes: counters taken at the span boundaries ---------------------------

def after_sim_run(tracer, args, kwargs, metrics, _):
    sim = args[0]
    tracer.count("sim_s", sim.scenario.duration_s)
    tracer.count("retransmissions", metrics.retransmissions)
    if sim.trace_lines is not None:
        tracer.count("trace.records", len(sim.trace_lines))


def after_coverage_spec(tracer, args, kwargs, spec, _):
    tracer.count("coverage_points", spec.samples * len(spec.models))


def before_dispatch(tracer, args, kwargs):
    tracer.count("events.slot_tick" if args[1].kind == "slot_tick" else "events.other")


def after_push(tracer, args, kwargs, result, _):
    depth = len(args[0]._heap)
    if depth > tracer.counters.get("heap_max", 0):
        tracer.counters["heap_max"] = depth


def after_start_tx(tracer, args, kwargs, result, _):
    sim = args[0]
    tracer.count("fade_draws",
                 len(sim._sorted_ids) * max(1, sim.scenario.phy.fading_branches))


def after_reception(tracer, args, kwargs, ok, _):
    tracer.count("rx_ok" if ok else "rx_fail")


def before_link_gains(tracer, args, kwargs):
    dists = args[0] if args else kwargs["dists"]
    tracer.count("links", getattr(dists, "size", 1))


def make_coverage_probe(signature):
    seen = set()

    def before_coverage(tracer, args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        rng = a["rng"]
        # the draw is fixed by the generator state and everything but the
        # ED threshold, which only changes how the points are counted
        key = (repr(rng.bit_generator.state) if rng is not None else None,
               a["n_samples"], repr(a["building"]), repr(a["base"].position),
               repr(a["model"]), a["include_shadow"])
        tracer.count("points_drawn", a["n_samples"])
        if key not in seen:
            seen.add(key)
            tracer.count("points_distinct", a["n_samples"])

    return before_coverage


def span_open(tracer, builtin_open):
    """``open`` for the cli module: a span from open to close, with bytes."""

    class _Timed:
        def __init__(self, *args, **kwargs):
            self.args, self.kwargs = args, kwargs

        def __enter__(self):
            self.span = tracer.span("cli.open").__enter__()
            try:
                self.fh = builtin_open(*self.args, **self.kwargs)
            except BaseException:
                self.span.__exit__(None, None, None)
                raise
            return self.fh

        def __exit__(self, *exc):
            try:
                written = self.fh.tell()
                self.fh.close()
            finally:
                self.span.__exit__(*exc)
            tracer.count("bytes." + self.span.parent, written)

    return _Timed


def install(tracer: Tracer, traced: bool) -> None:
    # imported here, after the timed coexsim import, so as not to speed it up
    import builtins
    import inspect

    import coexsim.cli
    import coexsim.sensing

    probes = {
        "sim.run": (None, after_sim_run),
        "config.build_coverage_spec": (None, after_coverage_spec),
        "engine.dispatch": (before_dispatch, None),
        "engine.push": (None, after_push),
        "phy.start_tx": (None, after_start_tx),
        "phy.reception": (None, after_reception),
        "propagation.sample_link_gains": (before_link_gains, None),
        "sensing.coverage": (make_coverage_probe(
            inspect.signature(coexsim.sensing.fractional_ed_coverage)), None),
    }
    for target, name in BOUNDARY + (LAYERS if traced else ()):
        before, after = probes.get(name, (None, None))
        tracer.install(target, name, before, after)
    if traced:
        coexsim.cli.open = span_open(tracer, builtins.open)


def calibrate_python() -> int:
    """Host nanoseconds for a fixed pure-Python loop of heap and dict work.

    Its work (``heapq``, dict updates, float arithmetic) is the kind the
    simulator's event loop does, so its time tracks how fast the host
    is running the simulator.
    """
    t0 = time.perf_counter_ns()
    heap: list = []
    acc: dict = {}
    for i in range(CALIBRATION_ITERS):
        heapq.heappush(heap, ((i * 7919) % 1000 * 1e-3, i))
        if len(heap) > 8:
            t, j = heapq.heappop(heap)
            acc[j & 63] = acc.get(j & 63, 0.0) + t * 1.5
    return time.perf_counter_ns() - t0


def calibrate_numpy(np, values) -> int:
    """Host nanoseconds for a fixed vectorised pass over ``values``.

    Logarithms, scaling and a threshold count, as the coverage analytics
    do per Monte-Carlo point.
    """
    t0 = time.perf_counter_ns()
    (np.log10(values) * 20.0 + values > -3.0).sum()
    return time.perf_counter_ns() - t0


class SpeedSampler:
    """Times a calibration kernel every ``CALIBRATION_PERIOD_S`` of wall time.

    A SIGALRM handler runs the kernel in the main thread between
    bytecodes, so no other thread competes with the program.  Used as a
    context manager around the timed part of the child, with one more
    sample on exit.  The ``numpy`` kernel samples only after
    ``program_imported``, as it uses the program's own numpy and must
    not speed up the timed import.  Each sample takes at most 2% of the
    period.
    """

    def __init__(self, kernel: str):
        self.kernel = kernel
        self.ns: list = []
        self.np = self.values = None

    def program_imported(self) -> None:
        if self.kernel == "numpy":
            self.values = sys.modules["numpy"].linspace(1e-3, 1.0, NUMPY_CALIBRATION_SIZE)
            self.np = sys.modules["numpy"]

    def _sample(self, signum=None, frame=None) -> None:
        if self.kernel == "python":
            self.ns.append(calibrate_python())
        elif self.np is not None:
            self.ns.append(calibrate_numpy(self.np, self.values))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_PERIOD_S, CALIBRATION_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()


def main(argv) -> int:
    job = json.loads(Path(argv[1]).read_text())
    tracer = Tracer()
    with SpeedSampler(job["calibration"]) as sampler:
        t0 = time.perf_counter_ns()
        import coexsim.cli as cli
        import_ns = time.perf_counter_ns() - t0
        sampler.program_imported()
        install(tracer, job["traced"])

        runs = []
        for args in job["invocations"]:
            error = None
            try:
                rc = cli.main(args)
            except SystemExit as exc:  # argparse rejects bad command lines this way
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # any crash is a failed run, reported, not fatal
                rc = None
                error = traceback.format_exc(limit=-3)
            runs.append({"rc": rc, "error": error})
        t_done_ns = time.monotonic_ns()

    Path(job["result"]).write_text(json.dumps({
        "calibration_kernel": sampler.kernel,
        "calibration_ns": sampler.ns,
        "import_ns": import_ns,
        "t_done_ns": t_done_ns,
        "runs": runs,
        "spans": tracer.table(),
        "counters": tracer.counters,
        "missing": tracer.missing,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
