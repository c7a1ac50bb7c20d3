"""Self-tests of the benchmark itself (not of coexsim).

Usage (from the repository root): ``python3 perfbench/selftest.py``

Checks that the input generator is deterministic for a seed, that the
metric names and units in BENCHMARK.json are valid and match what the
benchmark computes, that host times scale with the measured host speed,
that span self times are never negative, and that an injected failing
run shows up in the error rate.
"""

from __future__ import annotations

import json
import re
import unittest
from pathlib import Path

import run
from spans import Tracer
from workloads import DENSE_LADDER, WORKLOADS, Job, build_job, dense_config

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TINY_ARGV = ["simulate", "--config", "figure3_collision", "--seed", "1",
             "--set", "simulate.duration_s=0.05"]


def tiny_job() -> Job:
    argv = TINY_ARGV + ["--out", f"{run.WORK / 'out'}/tiny.csv"]
    return Job("ack_window_trace", 0, [(argv, ["tiny.csv"])])


def fake_rep() -> dict:
    return {"calibration_kernel": "python",
            "calibration_ns": [run.CALIBRATION_REF_NS["python"]] * 2, "import_ns": 1, "wall_s": 1.0,
            "peak_rss_mb": 1.0, "spans": [], "counters": {"sim_s": 1.0}}


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in WORKLOADS:
            first = build_job(workload, 5, run.WORK, run.WORK / "out")
            configs = [Path(argv[2]).read_text() for argv, _ in first.runs
                       if argv[2].endswith(".json")]
            second = build_job(workload, 5, run.WORK, run.WORK / "out")
            self.assertEqual(first, second)
            self.assertEqual(configs, [Path(argv[2]).read_text() for argv, _ in second.runs
                                       if argv[2].endswith(".json")])
            self.assertNotEqual(first, build_job(workload, 6, run.WORK, run.WORK / "out"))

    def test_dense_clients_inside_their_cell(self):
        for (cols, rows), duration in DENSE_LADDER:
            cfg = dense_config((cols, rows), 3, duration)
            self.assertEqual(cfg, dense_config((cols, rows), 3, duration))
            w = cfg["building"]["width_m"] / cols
            d = cfg["building"]["depth_m"] / rows
            bases = {n["id"]: n for n in cfg["nodes"] if "attach_to" not in n}
            for node in cfg["nodes"]:
                if "attach_to" not in node:
                    continue
                bx, by = bases[node["attach_to"]]["position"]
                x, y = node["position"]
                self.assertLessEqual(abs(x - bx), w / 2)
                self.assertLessEqual(abs(y - by), d / 2)
                self.assertEqual(node["channel"], bases[node["attach_to"]]["channel"])


class MetricNamesTest(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    def test_names_and_units_valid(self):
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for m in self.spec[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertLessEqual(max(bounds.values()), 0.25)
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        for w in self.spec["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(WORKLOADS))

    def test_computed_metrics_match_spec(self):
        self.assertEqual(set(run.end_to_end([run.typical([fake_rep()])])),
                         {m["name"] for m in self.spec["end_to_end"]})
        computed = set(run.per_layer(fake_rep())) | set(run.RUN_LEVEL_LAYER_METRICS)
        self.assertEqual(computed, {m["name"] for m in self.spec["per_layer"]})

    def test_predictions_use_spec_names(self):
        pred = json.loads((run.HERE / "predictions.json").read_text())
        layer_names = {m["name"] for m in self.spec["per_layer"]}
        for layer in pred["layers"]:
            self.assertLessEqual(set(layer["metrics"]), layer_names)
            self.assertLessEqual(set(layer["on"]), set(WORKLOADS))
        self.assertEqual(set(pred["workloads"]), set(WORKLOADS))


class SpeedScalingTest(unittest.TestCase):
    def test_slow_host_scales_times_down(self):
        rep = fake_rep()
        rep["calibration_ns"] = [2 * run.CALIBRATION_REF_NS["python"]] * 2
        scaled, measured = run.parts(rep), run.parts(rep, scale=False)
        self.assertAlmostEqual(scaled["wall_s"], measured["wall_s"] / 2)
        self.assertEqual(scaled["peak_rss_mb"], measured["peak_rss_mb"])

    def test_child_reports_calibration(self):
        run.warm_up()
        for kernel in run.CALIBRATION_REF_NS:
            job = tiny_job()
            job.calibration = kernel
            rep = run.run_child(job, traced=False, refs=None)
            self.assertEqual(rep["calibration_kernel"], kernel)
            # one sample on exit and one every period before it
            self.assertGreaterEqual(len(rep["calibration_ns"]), 1)
            self.assertTrue(all(ns > 0 for ns in rep["calibration_ns"]))
            self.assertGreater(run.speed_factor(rep), 0)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        tracer = Tracer()
        leaf = tracer.wrap("leaf", lambda: sum(range(1000)))
        mid = tracer.wrap("mid", lambda: [leaf() for _ in range(50)])
        top = tracer.wrap("top", lambda: [mid() for _ in range(5)])
        top()
        rows = tracer.table()
        self.assertEqual({(p, n) for p, n, *_ in rows},
                         {("", "top"), ("top", "mid"), ("mid", "leaf")})
        for _, _, calls, total, own in rows:
            self.assertGreaterEqual(own, 0)
            self.assertLessEqual(own, total)

    def test_traced_child_self_times(self):
        run.warm_up()
        rep = run.run_child(tiny_job(), traced=True, refs=None)
        self.assertFalse(rep.get("crashed"), rep.get("log"))
        self.assertEqual(rep["missing"], [])
        self.assertTrue(rep["spans"])
        for _, _, calls, total, own in rep["spans"]:
            self.assertGreaterEqual(own, 0)
            self.assertLessEqual(own, total)
        layers = run.per_layer(rep)
        self.assertGreater(layers["engine.events"], 0)
        self.assertGreater(layers["phy.start_tx.calls"], 0)


class InjectedFailureTest(unittest.TestCase):
    def test_wrong_digest_is_a_failed_run(self):
        run.warm_up()
        res = run.measure(tiny_job(), {"tiny.csv": "0" * 64}, seconds=0, traced=False)
        self.assertEqual(res["error_rate"], 1.0)

    def test_crashing_run_is_a_failed_run(self):
        run.warm_up()
        good = run.run_child(tiny_job(), traced=False, refs=None)
        refs = good["digests"]
        job = tiny_job()
        job.runs.append((TINY_ARGV + ["--set", "no_such_key=1"], []))
        res = run.measure(job, refs, seconds=0, traced=False)
        self.assertEqual(res["failed"], res["attempted"] // 2)
        self.assertAlmostEqual(res["error_rate"], 0.5)


if __name__ == "__main__":
    unittest.main()
