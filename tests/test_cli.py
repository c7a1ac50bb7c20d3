import filecmp
import math
from pathlib import Path

import pytest
import yaml

from coexsim import cli, config, sensing
from coexsim.cli import main

SCAN_CFG = {
    "channels": [36, 40],
    "coordination": {
        "select": {"rssi_filter_threshold_dbm": -82.0, "w1": 10.0, "w2": 1.0},
        "wifi": {"t_default_dbm": -62.0, "t_min_dbm": -82.0},
    },
    "adapt": {"technology": "wifi", "own_channel": 36},
    "scan": [
        {"cell_id": "busy", "channel": 36, "source": "over_the_air",
         "rssi_dbm": -60.0, "n_attached": 4, "utilization": 0.8,
         "node_type": "wifi", "mac_spec": "dcf"},
        {"cell_id": "laa", "channel": 36, "source": "relayed",
         "rssi_dbm": -70.0, "n_attached": 1, "utilization": 0.1,
         "node_type": "rel13_laa", "mac_spec": "lbt_cat4",
         "tx_power_offset_db": 0},
    ],
}


def write_scan(tmp_path):
    path = tmp_path / "scan.yaml"
    path.write_text(yaml.safe_dump(SCAN_CFG))
    return str(path)


class TestEdprob:
    def test_ten_links(self, capsys):
        rc = main(["edprob", "--rssi=" + ",".join(["-52"] * 10), "--threshold", "-62"])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"ed_success_prob={math.exp(-1):.6g}"[:22] in out

    def test_single_far_link(self, capsys):
        rc = main(["edprob", "--rssi", "-20", "--threshold", "-62"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ed_success_prob=1" in out or "ed_success_prob=0.9999" in out

    def test_empty_list_is_config_error(self, capsys):
        rc = main(["edprob", "--rssi=,", "--threshold", "-62"])
        assert rc == 2


class TestCoverage:
    def test_csv_and_determinism(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        argv = ["coverage", "--config", "table1_inh",
                "--set", "coverage.samples=20000"]
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        assert filecmp.cmp(out_a, out_b, shallow=False)
        header, row = out_a.read_text().splitlines()[:2]
        assert header.split(",") == [
            "model", "wifi_ed_-62", "ulte_ed_-62", "wifi_ed_-72",
            "ulte_ed_-72", "wifi_cell_fraction", "ulte_cell_fraction",
        ]
        values = row.split(",")
        assert values[0] == "inh"
        assert float(values[1]) == pytest.approx(0.51, abs=0.05)
        assert float(values[5]) == pytest.approx(0.87, abs=0.05)
        # the CDF companion is monotone nondecreasing per model
        cdf_lines = (tmp_path / "a_cdf.csv").read_text().splitlines()[1:]
        fractions = [float(line.split(",")[2]) for line in cdf_lines]
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0

    def test_sentinel_threshold_full_coverage(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        rc = main(["coverage", "--config", "table1_inh",
                   "--set", "coverage.samples=2000",
                   "--set", "coverage.thresholds_dbm=[-200.0]",
                   "--out", str(out)])
        assert rc == 0
        row = out.read_text().splitlines()[1].split(",")
        assert float(row[1]) == 1.0 and float(row[2]) == 1.0

    def test_one_draw_per_model_for_table_and_cdf(self, tmp_path, monkeypatch):
        # every table fraction of a model is counted from one draw, and its
        # CDF from a second one
        calls = []
        draw = sensing.sample_link_gains

        def counting(*args, **kwargs):
            calls.append(args[1].variant)
            return draw(*args, **kwargs)

        monkeypatch.setattr(sensing, "sample_link_gains", counting)
        rc = main(["coverage", "--config", "table1_inh",
                   "--set", "coverage.samples=2000",
                   "--set", "coverage.models=[{model: inh}, {model: diffusion}]",
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 0
        assert calls == ["inh", "inh", "diffusion", "diffusion"]

    def test_unknown_key_named(self, capsys):
        rc = main(["coverage", "--config", "table1_inh",
                   "--set", "coverage.sample_count=1"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "coverage.sample_count" in err

    def test_missing_config_is_config_error(self, capsys):
        rc = main(["coverage", "--config", "/nonexistent.yaml"])
        assert rc == 2


class TestSelectAdapt:
    def test_select_prints_channel(self, tmp_path, capsys):
        rc = main(["select", "--config", write_scan(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "selected_channel=40" in out

    def test_adapt_prints_threshold(self, tmp_path, capsys):
        rc = main(["adapt", "--config", write_scan(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ed_threshold_dbm=-70" in out

    def test_select_entry_without_n_attached_counts_its_cell(self, tmp_path):
        # an entry with no n_attached falls back to its cell's station count,
        # which a scan file sets to 0
        metrics = {}
        for label, attached in (("missing", None), ("zero", 0), ("four", 4)):
            busy = {k: v for k, v in SCAN_CFG["scan"][0].items() if k != "n_attached"}
            if attached is not None:
                busy["n_attached"] = attached
            path = tmp_path / f"{label}.yaml"
            path.write_text(yaml.safe_dump({**SCAN_CFG, "scan": [busy, SCAN_CFG["scan"][1]]}))
            out = tmp_path / f"{label}.csv"
            assert main(["select", "--config", str(path), "--out", str(out)]) == 0
            metrics[label] = out.read_text().splitlines()[1]
        assert metrics["missing"].startswith("36,")
        assert metrics["missing"] == metrics["zero"] != metrics["four"]

    def test_adapt_entry_without_n_attached_is_inactive(self, tmp_path, capsys):
        # the relayed cell carries no n_attached, so its station count (0)
        # leaves only the -60 dBm neighbour active, clamped to t_default
        laa = {k: v for k, v in SCAN_CFG["scan"][1].items() if k != "n_attached"}
        path = tmp_path / "scan.yaml"
        path.write_text(yaml.safe_dump({**SCAN_CFG, "scan": [SCAN_CFG["scan"][0], laa]}))
        rc = main(["adapt", "--config", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ed_threshold_dbm=-62" in out


SCAN_MIXED = str(Path(__file__).resolve().parent / "scan_mixed.yaml")


class TestScanMixed:
    """The printed decisions on a scan mixing sources, technologies and omitted keys."""

    @pytest.mark.parametrize("overrides, selected", [
        ([], 44),
        (["channels=[36, 40]"], 36),
        (["channels=[36, 40]", "select.running_on=lte_enb"], 40),
        (["channels=[36, 40]", "coordination.select.symmetric_penalty=false"], 36),
    ], ids=["empty_channel_wins", "wifi_ap", "lte_enb", "asymmetric"])
    def test_select(self, tmp_path, capsys, overrides, selected):
        argv = ["select", "--config", SCAN_MIXED, "--out", str(tmp_path / "m.csv")]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == 0
        assert capsys.readouterr().out == f"selected_channel={selected}\n"

    @pytest.mark.parametrize("own_channel, threshold", [
        # laa_b at -79 dBm less the 1 dB margin; ap_c (-81) has no stations
        ("36", "-80"),
        # ap_e at -90 dBm on channel 40, less the margin
        ("null", "-91"),
    ], ids=["own_channel_36", "any_channel"])
    def test_adapt(self, capsys, own_channel, threshold):
        assert main(["adapt", "--config", SCAN_MIXED,
                     "--set", f"adapt.own_channel={own_channel}"]) == 0
        assert capsys.readouterr().out == f"ed_threshold_dbm={threshold}\n"


class TestBeacon:
    def test_encode_decode_round_trip(self, capsys):
        rc = main(["beacon", "encode", "--cell-id", "op/310-410/17",
                   "--channel", "44"])
        hex_out = capsys.readouterr().out.strip()
        assert rc == 0
        assert hex_out == hex_out.lower()
        rc = main(["beacon", "decode", "--hex", hex_out])
        out = capsys.readouterr().out
        assert rc == 0
        assert "operator_cell_id=op/310-410/17" in out
        assert "channel=44" in out

    def test_decode_garbage_is_config_error(self, capsys):
        rc = main(["beacon", "decode", "--hex", "0b050000"])
        assert rc == 2


class TestSimulate:
    def test_duration_zero_empty_metrics(self, tmp_path):
        out = tmp_path / "z.csv"
        rc = main(["simulate", "--config", "figure3_collision",
                   "--set", "simulate.duration_s=0", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("seed,adaptive,node")
        assert all(",0," in line for line in lines[1:])

    def test_seed_sweep_rows(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = main(["sweep", "--config", "figure3_collision",
                   "--set", "simulate.duration_s=0.05",
                   "--runs", "3", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        # 3 seeds x 2 client nodes + header
        assert len(lines) == 7
        seeds = [int(line.split(",")[0]) for line in lines[1:]]
        assert seeds == sorted(seeds)

    @pytest.mark.parametrize("extra", [[], ["--compare-adaptive"]], ids=["plain", "compare"])
    def test_one_scenario_build_per_seed(self, tmp_path, monkeypatch, extra):
        seen, build = [], config.build_scenario
        monkeypatch.setattr(config, "build_scenario",
                            lambda cfg: seen.append(cfg["seed"]) or build(cfg))
        out = tmp_path / "s.csv"
        rc = main(["simulate", "--config", "figure3_collision", "--seed", "7", "--runs", "3",
                   "--set", "simulate.duration_s=0.05", "--out", str(out)] + extra)
        assert rc == 0
        assert seen == [7, 8, 9]
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert sorted({r[0] for r in rows if r[0] != "pooled"}) == ["7", "8", "9"]

    def test_compare_adaptive_doubles_rows(self, tmp_path):
        out = tmp_path / "c.csv"
        rc = main(["simulate", "--config", "figure3_collision",
                   "--set", "simulate.duration_s=0.05",
                   "--compare-adaptive", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        # header + 2 nodes x {off, on} + 4 pooled summaries
        assert len(lines) == 9
        pooled = [line for line in lines if line.startswith("pooled,")]
        assert len(pooled) == 4

    def test_single_run_pooled_row_is_its_seed_row(self, tmp_path):
        out = tmp_path / "p.csv"
        rc = main(["simulate", "--config", "figure4_coexistence", "--runs", "1",
                   "--set", "traffic.model=full_buffer", "--set", "simulate.duration_s=0.5",
                   "--set", "simulate.warmup_s=0", "--compare-adaptive", "--out", str(out)])
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        seeded = {(r[1], r[2]): r[1:] for r in rows if r[0] != "pooled"}
        pooled = {(r[1], r[2]): r[1:] for r in rows if r[0] == "pooled"}
        assert len(pooled) == 4
        assert pooled == seeded
        assert any(int(r[5]) > 0 and int(r[8]) > 0 for r in rows)  # files, collisions

    def test_trace_written(self, tmp_path):
        out = tmp_path / "m.csv"
        trace = tmp_path / "t.csv"
        rc = main(["simulate", "--config", "figure3_collision",
                   "--set", "simulate.duration_s=0.05",
                   "--out", str(out), "--trace", str(trace)])
        assert rc == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "time_us,node,tech,record,detail"
        assert len(lines) > 10

    def test_trace_dash_streams_to_stdout(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["simulate", "--config", "figure3_collision", "--set", "simulate.duration_s=0.05"]
        trace = tmp_path / "t.csv"
        assert main(argv + ["--out", str(tmp_path / "a.csv"), "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(argv + ["--out", str(tmp_path / "b.csv"), "--trace", "-"]) == 0
        assert capsys.readouterr().out.encode() == trace.read_bytes()
        assert not (tmp_path / "-").exists()
        # with the rows on stdout too, the trace comes first
        assert main(argv + ["--out", "-", "--trace", "-"]) == 0
        rows = (tmp_path / "a.csv").read_bytes()
        assert capsys.readouterr().out.encode() == trace.read_bytes() + rows

    def test_repeat_identical_bytes(self, tmp_path):
        argv = ["simulate", "--config", "figure3_collision",
                "--set", "simulate.duration_s=0.2"]
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        assert filecmp.cmp(out_a, out_b, shallow=False)

    @pytest.mark.parametrize("command, runs", [("simulate", "0"), ("sweep", "-2")])
    def test_runs_below_one_is_config_error(self, tmp_path, capsys, command, runs):
        out = tmp_path / "r.csv"
        rc = main([command, "--config", "figure3_collision", "--runs", runs,
                   "--out", str(out)])
        assert rc == 2
        assert "--runs must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        # a client whose link cannot sustain any rate raises at run time
        cfg = {
            "nodes": [
                {"id": "ap1", "kind": "wifi_ap", "position": [10.0, 10.0]},
                {"id": "sta1", "kind": "wifi_sta", "position": [40.0, 110.0],
                 "attach_to": "ap1"},
            ],
            "links": {"ap1": {"sta1": -130.0}},
            "traffic": {"model": "full_buffer"},
            "simulate": {"duration_s": 0.05},
        }
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(cfg))
        rc = main(["simulate", "--config", str(path)])
        assert rc == 3


def write_config(tmp_path, cfg):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


TWO_BASES = [
    {"id": "ap1", "kind": "wifi_ap", "position": [10.0, 10.0]},
    {"id": "enb1", "kind": "lte_enb", "position": [40.0, 100.0]},
]
WITH_STA = TWO_BASES + [{"id": "sta1", "kind": "wifi_sta", "position": [10.0, 20.0],
                         "attach_to": "ap1"}]


class TestScenarioConfigErrors:
    @pytest.mark.parametrize("nodes, overrides", [
        # attached to no node at all
        (TWO_BASES + [{"id": "sta1", "kind": "wifi_sta", "position": [10.0, 20.0],
                       "attach_to": "nosuch"}], ["traffic.model=full_buffer"]),
        # attached to a base of the other technology
        (TWO_BASES + [{"id": "ue1", "kind": "lte_ue", "position": [10.0, 20.0],
                       "attach_to": "ap1"}], ["traffic.model=full_buffer"]),
        (TWO_BASES + [{"id": "sta1", "kind": "wifi_sta", "position": [10.0, 130.0],
                       "attach_to": "ap1"}], []),
        (TWO_BASES, ["clients.mode=bogus"]),
        (TWO_BASES, ["lte_mac.defer_us=1"]),
        (TWO_BASES, ["wifi_mac.cw_min=14"]),
        (TWO_BASES, ["wifi_mac.cw_max=1000"]),
        (TWO_BASES, ["lte_mac.cw_max=60"]),
        (TWO_BASES, ["lte_mac.burst_ms=10"]),
        (TWO_BASES, ["lte_mac.slot_us=-1"]),
        (TWO_BASES, ["relay.latency_ms=-5"]),
        (TWO_BASES, ["phy.fading_branches=0"]),
        (TWO_BASES, ["clients.per_base=-2"]),
        (TWO_BASES, ["clients.per_base=1.7"]),
        # only bases sense, so a client threshold would be ignored
        (TWO_BASES + [{"id": "sta1", "kind": "wifi_sta", "position": [10.0, 20.0],
                       "attach_to": "ap1", "ed_threshold_dbm": -70.0}], []),
        # a client hears only its own channel, so it must be on its base's
        (TWO_BASES + [{"id": "sta1", "kind": "wifi_sta", "position": [10.0, 20.0],
                       "attach_to": "ap1", "channel": 40}], []),
        (TWO_BASES, ["simulate=[1]"]),
        (TWO_BASES, ["links=[1]"]),
        (TWO_BASES, ["nodes=5"]),
        (TWO_BASES, ["simulate.duration_s=abc"]),
        (TWO_BASES, ["seed=abc"]),
        (TWO_BASES, ["links.ap1.sta1=abc"]),
        (TWO_BASES, ["phy.wifi_rates=[[1]]"]),
        (TWO_BASES, ["simulate.duration_s=-1"]),
        (TWO_BASES, ["simulate.warmup_s=-3"]),
        # adaptation starts from the configured threshold, which must not lie below t_min
        (TWO_BASES, ["lte_mac.ed_threshold_dbm=-90"]),
        # the timing fields are wifi_mac keys; a nested timing: mapping is no key
        (TWO_BASES, ["wifi_mac.timing.slot_us=9"]),
        # a base's own threshold is its adaptation ceiling, so t_min bounds it too
        ([{**TWO_BASES[0], "ed_threshold_dbm": -90.0}, TWO_BASES[1]], []),
        # file-transfer rates and sizes must be positive, overrides too
        (WITH_STA, ["traffic.arrival_rate_overrides={sta1: 0}"]),
        (WITH_STA, ["traffic.arrival_rate_overrides={sta1: -1}"]),
        (WITH_STA, ["traffic.file_size_overrides={sta1: -5}"]),
        (WITH_STA, ["traffic.arrival_rate_overrides={sta1: .nan}"]),
        (WITH_STA, ["traffic.file_size_overrides={sta1: .inf}"]),
        # a per-node map must name a node (a client, for the traffic maps)
        (WITH_STA, ["links.ap1.nobody=-50"]),
        (WITH_STA, ["traffic.arrival_rate_overrides={nobody: 2.0}"]),
        (WITH_STA, ["traffic.file_size_overrides={ap1: 1000}"]),
        # a link gain must be a finite number of dB
        (WITH_STA, ["links.ap1.sta1=-.inf"]),
        (WITH_STA, ["links.ap1.sta1=.nan"]),
        (WITH_STA, ["links.ap1.enb1=.inf"]),
        (WITH_STA, ["links.ap1.enb1=.nan"]),
        # a pair given both ways must agree, and a node has no link to itself
        (WITH_STA, ["links.ap1.sta1=-50", "links.sta1.ap1=-60"]),
        (WITH_STA, ["links.ap1.ap1=-50"]),
    ], ids=["unknown_base", "other_technology", "outside_building",
            "client_mode", "defer_below_sifs_plus_slot", "wifi_cw_min_form",
            "wifi_cw_max_form", "lte_cw_max_form", "burst_above_cap",
            "negative_lte_slot", "negative_relay_latency", "no_fading_branches",
            "negative_clients_per_base", "fractional_fixed_clients",
            "client_ed_threshold", "client_off_base_channel", "simulate_list",
            "links_list", "nodes_scalar", "duration_text", "seed_text", "link_gain_text",
            "short_rate_row", "negative_duration", "negative_warmup",
            "mac_threshold_below_t_min", "wifi_timing_key", "node_threshold_below_t_min",
            "zero_rate_override", "negative_rate_override", "negative_size_override",
            "nan_rate_override", "infinite_size_override",
            "link_names_no_node", "rate_override_names_no_node",
            "size_override_names_a_base", "client_link_minus_inf", "client_link_nan",
            "base_link_inf", "base_link_nan", "link_both_ways_differ", "self_link"])
    def test_exits_with_config_error(self, tmp_path, capsys, nodes, overrides):
        argv = ["simulate", "--config", write_config(tmp_path, {
            "nodes": nodes, "simulate": {"duration_s": 0.05}})]
        for item in overrides:
            argv += ["--set", item]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error:")


def scan_with(**fields):
    """SCAN_CFG whose first scan entry has ``fields`` added."""
    return {**SCAN_CFG, "scan": [{**SCAN_CFG["scan"][0], **fields}]}


class TestInputErrors:
    """Malformed inputs to every command that reads a config exit 2, naming the key."""

    @pytest.mark.parametrize("command, cfg, overrides, named", [
        ("select", scan_with(channel=7), [], "scan"),
        ("adapt", scan_with(channel=7), [], "scan"),
        ("adapt", scan_with(rssi_dbm=-math.inf), [], "scan"),
        ("select", scan_with(rssi_dbm=math.inf), [], "scan"),
        ("simulate", {"nodes": TWO_BASES}, ["links.ap1.enb1=.inf"], "links.ap1.enb1"),
        ("select", scan_with(n_atached=3), [], "scan.n_atached"),
        ("adapt", scan_with(utilisation=0.3), [], "scan.utilisation"),
        ("select", scan_with(node_typ="wifi"), [], "scan.node_typ"),
        ("select", {**SCAN_CFG, "select": {"running_onn": "lte_enb"}}, [],
         "select.running_onn"),
        ("adapt", {**SCAN_CFG, "adapt": {"own_chanel": 40}}, [], "adapt.own_chanel"),
        ("select", {**SCAN_CFG, "scan": {"busy": SCAN_CFG["scan"][0]}}, [], "scan"),
        ("adapt", {**SCAN_CFG, "scan": {"busy": SCAN_CFG["scan"][0]}}, [], "scan"),
        ("beacon encode", {"cell": {"chanel": 44}}, [], "cell.chanel"),
        ("beacon encode", {"cell": [1, 2]}, [], "cell"),
        ("coverage", "table1_inh",
         ["coverage.cells=[{nam: wifi, min_sensitivity_dbm: -87.5}]"], "coverage.cells.nam"),
        ("coverage", "table1_inh", ["coverage.base.position=[1]"], "coverage.base"),
        ("coverage", "table1_inh", ["coverage.base=[1,2]"], "coverage.base"),
        ("coverage", "table1_inh", ["coverage.samples=2000", "coverage.base.tx_power=30"],
         "coverage.base.tx_power"),
        ("coverage", "table1_inh", ["coverage.samples=abc"], "coverage"),
        ("coverage", "table1_inh", ["seed=abc"], "seed"),
        # a list section given as a mapping says a list is expected
        ("simulate", {"nodes": TWO_BASES}, ["nodes={a: 1}"], "nodes must be a list"),
        ("coverage", "table1_inh", ["coverage.cells={name: wifi}"],
         "coverage.cells must be a list"),
        ("coverage", "table1_inh", ["coverage.models={model: inh}"],
         "coverage.models must be a list"),
        # an empty model list would write only the CSV header
        ("coverage", "table1_inh", ["coverage.models=[]"], "coverage.models"),
        ("coverage", "table1_inh", ["coverage.samples=10"], "coverage.samples"),
        ("coverage", "table1_inh", ["coverage.samples=2000", "coverage.cdf_bin_db=0"],
         "coverage.cdf_bin_db"),
        ("coverage", "table1_inh", ["coverage.samples=2000", "coverage.base.position=[999,999]"],
         "coverage.base.position"),
        ("simulate", {"nodes": TWO_BASES}, ["wifi_mac.cw_min=2047"], "wifi_mac"),
        # a backoff draw covers numpy's 32-bit bounded path only
        ("simulate", {"nodes": TWO_BASES}, ["wifi_mac.cw_max=8589934591"], "wifi_mac: cw_max"),
        ("simulate", {"nodes": TWO_BASES}, ["lte_mac.cw_max=8589934591"], "lte_mac: cw_max"),
        ("simulate", {"nodes": TWO_BASES},
         ["nodes=[{id: x, kind: bogus, position: [1, 1]}]"], "nodes"),
        ("simulate", {"nodes": TWO_BASES}, ["traffic.model=bogus"], "traffic"),
        ("simulate", [1, 2], [], "config root"),
        ("simulate", {"nodes": TWO_BASES}, ["seed.x=1"], "seed"),
        ("simulate", {"nodes": TWO_BASES}, ["propagation.carrier_freq_ghz=0"], "propagation"),
        ("simulate", {"nodes": TWO_BASES}, ["propagation.shadow_sigma_los_db=-1"],
         "propagation"),
        ("simulate", {"nodes": TWO_BASES}, ["propagation.diffusion_length_m=0"], "propagation"),
        ("simulate", {"nodes": TWO_BASES}, ["propagation.los_mode=bogus"], "propagation"),
        ("simulate", {"nodes": TWO_BASES}, ["coordination.wifi.update_period_s=0"],
         "coordination.wifi"),
        ("simulate", {"nodes": TWO_BASES}, ["coordination.select.w1=-1"],
         "coordination.select"),
        ("simulate", {"nodes": TWO_BASES}, ["coordination.select.lte_timeshare_penalty=0.5"],
         "coordination.select"),
        # file-level errors: raw bytes are written as the config file as they are
        ("simulate", b"nodes: [1, 2\n", [], "cannot read config"),
        ("simulate", {"nodes": TWO_BASES}, ["nodes=[a"], "override nodes"),
        ("simulate", b"seed: 1\n\xff\xfe\n", [], "utf-8"),
        ("simulate", ".", [], "cannot read config"),
        # an output in a missing directory, or a directory, fails before the run
        ("simulate --out no_such_dir/rows.csv", {"nodes": TWO_BASES}, [], "--out"),
        ("simulate --out .", {"nodes": TWO_BASES}, [], "--out"),
        ("simulate --trace no_such_dir/trace.csv", {"nodes": TWO_BASES}, [], "--trace"),
        ("coverage --cdf-out no_such_dir/cdf.csv", "table1_inh", ["coverage.samples=2000"],
         "--cdf-out"),
        # an override path through a scalar: figure3_collision sets seed
        ("simulate", "figure3_collision", ["seed.x.y=1"], "unknown config key: seed.x.y"),
        ("simulate", "figure3_collision", ["seed.x=1"], "unknown config key: seed.x"),
        ("select", SCAN_CFG, ["select.running_on=bogus"], "select.running_on"),
        ("select", SCAN_CFG, ["channels=[]"], "channels list"),
        # counts are whole numbers: a fraction is never truncated
        ("select", scan_with(n_attached=2.5), [], "scan.n_attached"),
        ("adapt", scan_with(n_attached=0.5), [], "scan.n_attached"),
        ("select", scan_with(tx_power_offset_db=1.5), [], "scan.tx_power_offset_db"),
        ("select", scan_with(channel=36.5), [], "scan.channel"),
        ("select", SCAN_CFG, ["channels=[36.5]"], "channels"),
        ("adapt", SCAN_CFG, ["adapt.own_channel=36.5"], "adapt.own_channel"),
        ("beacon encode", {"cell": {"station_count": 2.5}}, [], "cell.station_count"),
        ("beacon encode", {"cell": {"available_admission_capacity": 1.5}}, [],
         "cell.available_admission_capacity"),
        # so is every field whose default is an int
        ("simulate", {"nodes": TWO_BASES}, ["phy.fading_branches=2.5"], "phy.fading_branches"),
        ("simulate", {"nodes": TWO_BASES}, ["wifi_mac.retry_limit=2.5"], "wifi_mac.retry_limit"),
        ("simulate", {"nodes": [{**TWO_BASES[0], "channel": 36.5}, TWO_BASES[1]]}, [],
         "nodes.channel"),
        # an omitted utilization reads as the default, so the default is a load
        ("select", SCAN_CFG, ["coordination.select.missing_utilization_default=1.5"],
         "missing_utilization_default"),
        ("adapt", SCAN_CFG, ["coordination.select.missing_utilization_default=-0.5"],
         "missing_utilization_default"),
        # every number a config gives is finite
        ("simulate", {"nodes": TWO_BASES}, ["simulate.duration_s=.inf"], "simulate.duration_s"),
        ("simulate", {"nodes": TWO_BASES}, ["simulate.duration_s=.nan"], "simulate.duration_s"),
        ("simulate", {"nodes": TWO_BASES}, ["simulate.duration_s=nan"], "simulate.duration_s"),
        ("simulate", {"nodes": TWO_BASES}, ["simulate.warmup_s=.inf"], "simulate.warmup_s"),
        ("simulate", {"nodes": TWO_BASES}, ["phy.noise_floor_dbm=.nan"], "phy.noise_floor_dbm"),
        ("simulate", {"nodes": TWO_BASES}, ["phy.capture_threshold_db=.nan"],
         "phy.capture_threshold_db"),
        ("simulate", {"nodes": TWO_BASES}, ["wifi_mac.ed_threshold_dbm=.nan"],
         "wifi_mac.ed_threshold_dbm"),
        ("simulate", {"nodes": TWO_BASES}, ["wifi_mac.slot_us=.nan"], "wifi_mac.slot_us"),
        ("simulate", {"nodes": TWO_BASES}, ["relay.latency_ms=.nan"], "relay.latency_ms"),
        ("simulate", {"nodes": TWO_BASES}, ["coordination.wifi.safety_margin_db=.nan"],
         "coordination.wifi.safety_margin_db"),
        ("simulate", {"nodes": TWO_BASES}, ["wifi_mac.ed_threshold_dbm=abc"],
         "wifi_mac.ed_threshold_dbm"),
        ("simulate", {"nodes": TWO_BASES}, ["phy.noise_floor_dbm=abc"], "phy.noise_floor_dbm"),
        ("simulate", {"nodes": TWO_BASES}, ["phy.wifi_rates=[[.nan, 6.0]]"], "wifi_rates"),
        ("simulate", {"nodes": TWO_BASES}, ["phy.lte_rates=[[-5.0, .inf]]"], "lte_rates"),
        ("simulate", {"nodes": [{**TWO_BASES[0], "ed_threshold_dbm": math.nan}, TWO_BASES[1]]},
         [], "nodes.ed_threshold_dbm"),
        ("coverage", "table1_inh", ["coverage.thresholds_dbm=[.nan]"], "coverage.thresholds_dbm"),
        ("coverage", "table1_inh", ["coverage.thresholds_dbm=[.inf]"], "coverage.thresholds_dbm"),
        ("coverage", "table1_inh", ["coverage.cells=[{name: wifi, min_sensitivity_dbm: .nan}]"],
         "coverage.cells.min_sensitivity_dbm"),
        ("coverage", "table1_inh", ["coverage.margin_db=.nan"], "coverage.margin_db"),
        ("coverage", "table1_inh", ["coverage.base.tx_power_dbm=.nan"],
         "coverage.base.tx_power_dbm"),
        ("coverage", "table1_inh", ["coverage.cdf_bin_db=.inf"], "coverage.cdf_bin_db"),
        # a bool key takes only true or false: quoted text is no bool
        ("simulate", {"nodes": TWO_BASES}, ['wifi_mac.rts_cts="off"'], "wifi_mac.rts_cts"),
        ("simulate", {"nodes": TWO_BASES}, ['relay.enabled="false"'], "relay.enabled"),
        ("simulate", {"nodes": TWO_BASES}, ['simulate.adaptive_ed="no"'],
         "simulate.adaptive_ed"),
        ("coverage", "table1_inh", ['coverage.include_shadow="no"'], "coverage.include_shadow"),
        ("simulate", {"nodes": TWO_BASES}, ['coordination.select.symmetric_penalty="false"'],
         "coordination.select.symmetric_penalty"),
        # a number key takes no bool, though a bool is an int
        ("simulate", {"nodes": TWO_BASES}, ["wifi_mac.cw_min=true"], "wifi_mac.cw_min"),
        ("simulate", {"nodes": TWO_BASES}, ["simulate.duration_s=true"], "simulate.duration_s"),
        # so does a node's own threshold, whose default is None; text is no number
        ("simulate", {"nodes": [{**TWO_BASES[0], "ed_threshold_dbm": True}, TWO_BASES[1]]}, [],
         "ed_threshold_dbm"),
        ("simulate", {"nodes": [{**TWO_BASES[0], "ed_threshold_dbm": "abc"}, TWO_BASES[1]]}, [],
         "ed_threshold_dbm"),
        # a cell id must fit the pseudo beacon's SSID
        ("beacon encode --cell-id " + "x" * 40, {"cell": {}}, [], "cell.operator_cell_id"),
        # every channel is an unlicensed one, relay on or off; a candidate is listed once
        ("simulate", {"nodes": [{**TWO_BASES[0], "channel": 7}, TWO_BASES[1]]}, [], "node ap1"),
        ("simulate", {"nodes": [{**TWO_BASES[0], "channel": 7}, TWO_BASES[1]]},
         ["relay.enabled=false"], "node ap1"),
        ("select", SCAN_CFG, ["channels=[7, 36, 36]"], "channels"),
        ("select", SCAN_CFG, ["channels=[36, 40, 36]"], "channels"),
        ("adapt", SCAN_CFG, ["adapt.own_channel=7"], "adapt.own_channel"),
        # a key with no default must be given
        ("select", {**SCAN_CFG, "scan": [{k: v for k, v in SCAN_CFG["scan"][0].items()
                                          if k != "cell_id"}]}, [], "scan.cell_id"),
        ("coverage", "table1_inh", ["coverage.cells=[{min_sensitivity_dbm: -87.5}]"],
         "coverage.cells.name"),
    ], ids=["select_channel_7", "adapt_channel_7", "adapt_rssi_minus_inf",
            "select_rssi_inf", "simulate_link_inf", "scan_n_atached", "scan_utilisation",
            "scan_node_typ", "select_running_onn", "adapt_own_chanel", "select_scan_mapping",
            "adapt_scan_mapping", "cell_chanel", "cell_list", "coverage_cell_nam",
            "coverage_short_position", "coverage_base_list", "coverage_base_tx_power",
            "coverage_samples_text", "coverage_seed_text", "nodes_mapping",
            "coverage_cells_mapping", "coverage_models_mapping", "coverage_models_empty",
            "coverage_few_samples", "coverage_zero_cdf_bin", "coverage_base_outside",
            "wifi_cw_min_above_cw_max", "wifi_cw_max_above_2_32", "lte_cw_max_above_2_32",
            "unknown_node_kind", "unknown_traffic_model",
            "config_root_list", "seed_mapping", "zero_carrier_freq", "negative_shadow_sigma",
            "zero_diffusion_length", "unknown_los_mode", "zero_update_period",
            "negative_select_weight", "timeshare_penalty_below_one", "malformed_yaml_file",
            "malformed_yaml_override", "non_utf8_file", "config_is_directory",
            "out_in_missing_dir", "out_is_directory", "trace_in_missing_dir",
            "cdf_out_in_missing_dir", "override_below_scalar_seed", "override_into_scalar_seed",
            "select_running_on_bogus", "select_no_channels",
            "select_fractional_n_attached", "adapt_fractional_n_attached",
            "select_fractional_tx_offset", "select_fractional_scan_channel",
            "select_fractional_candidate", "adapt_fractional_own_channel",
            "cell_fractional_station_count", "cell_fractional_admission",
            "fractional_fading_branches", "fractional_retry_limit", "fractional_node_channel",
            "select_missing_utilization_above_1", "adapt_missing_utilization_below_0",
            "duration_inf", "duration_nan", "duration_nan_text", "warmup_inf",
            "noise_floor_nan", "capture_threshold_nan", "wifi_ed_threshold_nan",
            "wifi_slot_nan", "relay_latency_nan", "safety_margin_nan", "wifi_ed_threshold_text",
            "noise_floor_text", "wifi_rate_nan", "lte_rate_inf", "node_ed_threshold_nan",
            "coverage_threshold_nan", "coverage_threshold_inf", "coverage_sensitivity_nan",
            "coverage_margin_nan", "coverage_tx_power_nan", "coverage_cdf_bin_inf",
            "rts_cts_text", "relay_enabled_text", "adaptive_ed_text", "include_shadow_text",
            "symmetric_penalty_text", "cw_min_bool", "duration_bool",
            "node_ed_threshold_bool", "node_ed_threshold_text", "cell_id_over_32_bytes",
            "node_channel_7", "node_channel_7_relay_off",
            "select_candidate_7", "select_candidate_twice", "adapt_own_channel_7",
            "scan_without_cell_id", "coverage_cell_without_name"])
    def test_exits_with_config_error(self, tmp_path, capsys, command, cfg, overrides, named):
        if isinstance(cfg, bytes):
            (tmp_path / "raw.yaml").write_bytes(cfg)
            cfg = str(tmp_path / "raw.yaml")
        elif not isinstance(cfg, str):
            cfg = write_config(tmp_path, cfg)
        argv = command.split() + ["--config", cfg]
        for item in overrides:
            argv += ["--set", item]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error:")
        assert named in err

    @pytest.mark.parametrize("override", ["simulate.duration_s=1e-2", "phy.fading_branches=2.0"])
    def test_whole_and_finite_numbers_are_accepted(self, tmp_path, override):
        # text float() reads is a number, and a whole float is a whole number
        out = tmp_path / "e.csv"
        cfg = {"nodes": WITH_STA, "traffic": {"model": "full_buffer"}}
        assert main(["simulate", "--config", write_config(tmp_path, cfg),
                     "--set", "simulate.duration_s=0.01", "--set", override,
                     "--out", str(out)]) == 0
        assert out.read_text().startswith("seed,")

    def test_edprob_rssi_text(self, capsys):
        rc = main(["edprob", "--rssi=-52,abc", "--threshold", "-62"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error: cannot parse rssi list")



def pooling_scenario(seed, with_ap2):
    """ap1/sta1 and enb1/ue1 hidden from each other, plus ap2/sta2 if ``with_ap2``."""
    nodes = TWO_BASES + [
        {"id": "sta1", "kind": "wifi_sta", "position": [12.0, 30.0], "attach_to": "ap1"},
        {"id": "ue1", "kind": "lte_ue", "position": [40.0, 90.0], "attach_to": "enb1"}]
    if with_ap2:
        nodes += [{"id": "ap2", "kind": "wifi_ap", "position": [40.0, 10.0]},
                  {"id": "sta2", "kind": "wifi_sta", "position": [40.0, 20.0],
                   "attach_to": "ap2"}]
    return config.build_scenario({
        "nodes": nodes, "seed": seed, "traffic": {"model": "full_buffer"},
        "links": {"ap1": {"enb1": -90.0, "ue1": -70.0}, "enb1": {"sta1": -70.0}},
        "simulate": {"duration_s": 0.2}})


class TestPooledRows:
    """A pooled row pools a client's runs: files and counters summed, airtime averaged."""

    @pytest.fixture(scope="class")
    def batch(self):
        # sta2 is a client in the first run only
        rows = cli._run_batch([pooling_scenario(1, True), pooling_scenario(2, False)],
                              [False], pooled=True)
        return {(r[0], r[2]): dict(zip(cli.SIM_HEADER, r)) for r in rows}

    def test_rows_per_seed_then_pooled(self, batch):
        assert list(batch) == [(1, "sta1"), (1, "sta2"), (1, "ue1"), (2, "sta1"), (2, "ue1"),
                               ("pooled", "sta1"), ("pooled", "sta2"), ("pooled", "ue1")]

    def test_client_in_one_run_pools_that_run_alone(self, batch):
        pooled, seed_row = batch["pooled", "sta2"], batch[1, "sta2"]
        assert {k: v for k, v in pooled.items() if k != "seed"} == \
            {k: v for k, v in seed_row.items() if k != "seed"}
        assert pooled["files"] == 1

    def test_client_in_both_runs_sums_counters_and_averages_airtime(self, batch):
        pooled, a, b = batch["pooled", "sta1"], batch[1, "sta1"], batch[2, "sta1"]
        assert pooled["files"] == a["files"] + b["files"] == 2
        for counter in ("collisions", "ack_window_collisions", "retransmissions"):
            assert pooled[counter] == a[counter] + b[counter]
        assert pooled["retransmissions"] > a["retransmissions"] > 0
        for key in (k for k in cli.SIM_HEADER if k.startswith("airtime_")):
            assert pooled[key] == (a[key] + b[key]) / 2
        assert pooled["airtime_wifi"] != a["airtime_wifi"]
        assert pooled["mean_mbps"] == pytest.approx((a["mean_mbps"] + b["mean_mbps"]) / 2)
