#!/usr/bin/env python3
"""Where one benchmark job spends its time, by SIGPROF stack sampling.

Builds one ``perfbench/workloads.py`` job (a workload at benchmark seed
``SEED``), runs its ``coexsim`` command lines in this process, in order,
``ROUNDS`` times, and samples the Python stack each time the process has
used another millisecond of CPU (``ITIMER_PROF``; the kernel may tick
more coarsely).  Prints, over all samples, the ``TOP`` functions and
source lines by share: self (the sampled frame itself) and inclusive
(anywhere on the stack, counted once per sample).  A sample costs the
same whatever the program calls, so call-heavy paths read their true
share; cProfile adds a cost to every call and inflates them.

The job's generated configs and outputs go to a temporary directory,
removed on exit.  ``perfbench/`` is imported, never written.

    python scripts/sample_profile.py hidden_base
"""

from __future__ import annotations

import argparse
import signal
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from coexsim import cli  # noqa: E402
from workloads import WORKLOADS, build_job  # noqa: E402

INTERVAL_S = 0.001
SEED = 1
ROUNDS = 1
TOP = 25


class StackSampler:
    """Counts, per SIGPROF tick, the interrupted frame and every frame above it."""

    def __init__(self):
        self.samples = 0
        self.self_fn: Counter = Counter()
        self.incl_fn: Counter = Counter()
        self.self_line: Counter = Counter()
        self.incl_line: Counter = Counter()

    def _tick(self, signum, frame) -> None:
        self.samples += 1
        fns, lines = set(), set()
        leaf = True
        while frame is not None:
            code = frame.f_code
            fn = (code.co_filename, code.co_firstlineno, code.co_qualname
                  if hasattr(code, "co_qualname") else code.co_name)
            line = (code.co_filename, frame.f_lineno, fn[2])
            if leaf:
                self.self_fn[fn] += 1
                self.self_line[line] += 1
                leaf = False
            fns.add(fn)
            lines.add(line)
            frame = frame.f_back
        self.incl_fn.update(fns)
        self.incl_line.update(lines)

    def __enter__(self):
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)


def _where(path: str) -> str:
    """A path relative to the repository, or the file name outside it."""
    try:
        return str(Path(path).resolve().relative_to(ROOT))
    except ValueError:
        return Path(path).name


def _print_table(title: str, rank: Counter, own: Counter, incl: Counter, total: int,
                 top: int, label) -> None:
    """The ``top`` keys of ``rank``, with their self and inclusive shares of ``total``."""
    print(f"\n{title}")
    print(f"{'self %':>7} {'incl %':>7}  where")
    for key, _ in rank.most_common(top):
        print(f"{100.0 * own[key] / total:7.2f} {100.0 * incl[key] / total:7.2f}  {label(key)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    args = parser.parse_args(argv)

    sampler = StackSampler()
    with tempfile.TemporaryDirectory() as tmp:
        work, out = Path(tmp, "work"), Path(tmp, "out")
        work.mkdir()
        out.mkdir()
        job = build_job(args.workload, SEED, work, out)
        cpu_s = time.process_time()
        with sampler:
            for _ in range(ROUNDS):
                for argv_, _files in job.runs:
                    rc = cli.main(argv_)
                    if rc != 0:
                        print(f"exit {rc}: coexsim {' '.join(argv_)}", file=sys.stderr)
                        return 1
        cpu_s = time.process_time() - cpu_s
    total = sampler.samples
    if not total:
        print("no samples taken")
        return 1
    # the kernel may deliver the timer more coarsely than INTERVAL_S
    print(f"{args.workload} seed {SEED}, {ROUNDS} round(s): {total} samples "
          f"over {cpu_s:.2f} s of CPU")

    def fn_label(key):
        path, first, name = key
        return f"{name}  ({_where(path)}:{first})"

    def line_label(key):
        path, line, name = key
        return f"{_where(path)}:{line}  {name}"

    fns, lines = (sampler.self_fn, sampler.incl_fn), (sampler.self_line, sampler.incl_line)
    _print_table("by function, ranked by self share", fns[0], *fns, total, TOP, fn_label)
    _print_table("by function, ranked by inclusive share", fns[1], *fns, total, TOP,
                 fn_label)
    _print_table("by line, ranked by self share", lines[0], *lines, total, TOP,
                 line_label)
    return 0


if __name__ == "__main__":
    sys.exit(main())
