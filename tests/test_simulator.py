import bisect
import dataclasses
import gc
import heapq
import itertools
import math
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from coexsim.config import (
    ClientGenConfig,
    LteMacConfig,
    Node,
    PhyConfig,
    Scenario,
    TrafficConfig,
    WifiMacConfig,
    apply_overrides,
    build_scenario,
    generate_topology,
    load_config,
)
from coexsim import cli, mac_lte, mac_wifi, relay, simulator
from coexsim.mac_lte import LBT_EVENTS, LbtPhase, LbtState
from coexsim.mac_wifi import DCF_EVENTS, DcfPhase, DcfState, ProtocolViolation
from coexsim.propagation import Building, Position, PropagationModel, sample_link_gains
from coexsim.simulator import (
    Metrics,
    SimulationError,
    Simulator,
    Transmission,
    _WifiApController,
    _WifiStaController,
    jain_index,
    median,
    rate_from_sinr,
)


def wifi_pair_scenario(**kw):
    defaults = dict(
        nodes=[
            Node(id="ap1", kind="wifi_ap", position=Position(25, 30)),
            Node(id="sta1", kind="wifi_sta", position=Position(25, 40), attach_to="ap1"),
        ],
        traffic=TrafficConfig(model="full_buffer"),
        duration_s=0.3,
        seed=5,
    )
    defaults.update(kw)
    return Scenario(**defaults)


class TestRateFromSinr:
    def test_below_minimum_is_zero(self):
        assert rate_from_sinr(-20.0, "wifi", PhyConfig()) == 0.0

    def test_infinite_snr_gives_maximum(self):
        assert rate_from_sinr(math.inf, "wifi", PhyConfig()) == 54.0
        assert rate_from_sinr(math.inf, "lte", PhyConfig()) == 50.0

    def test_monotone(self):
        rng = np.random.default_rng(3)
        phy = PhyConfig()
        for _ in range(200):
            a, b = sorted(rng.uniform(-30, 60, size=2))
            assert rate_from_sinr(a, "wifi", phy) <= rate_from_sinr(b, "wifi", phy)
            assert rate_from_sinr(a, "lte", phy) <= rate_from_sinr(b, "lte", phy)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            rate_from_sinr(float("nan"), "wifi", PhyConfig())


class TestPercentile:
    """``median``: the middle value, or the mean of the middle two."""

    def test_median_of_three(self):
        assert median([30, 10, 20]) == 20

    def test_median_of_four(self):
        assert median([40, 10, 30, 20]) == 25

    def test_single_value(self):
        assert median([7.0]) == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            median([])

    def test_matches_numpy_linear_interpolation(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            values = rng.uniform(0, 100, size=int(rng.integers(1, 40))).tolist()
            # numpy's median, the 50th point of its linear interpolation,
            # to the bit
            assert median(values) == float(np.median(values))


class TestJain:
    def test_equal_allocation(self):
        assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_known_value(self):
        assert jain_index([15.0, 49.0]) == pytest.approx(64**2 / (2 * (225 + 2401)))

    def test_all_zero(self):
        assert jain_index([0.0, 0.0]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            jain_index([])


class TestGenerateTopology:
    def base_scenario(self):
        return Scenario(nodes=[
            Node(id="ap1", kind="wifi_ap", position=Position(10, 10)),
            Node(id="enb1", kind="lte_enb", position=Position(40, 100)),
        ])

    def test_fixed_one_client_per_base(self):
        out = generate_topology(self.base_scenario(), ClientGenConfig("fixed", 1),
                                np.random.default_rng(1))
        assert len(out.nodes) == 4
        kinds = sorted(n.kind for n in out.nodes)
        assert kinds == ["lte_enb", "lte_ue", "wifi_ap", "wifi_sta"]
        for n in out.nodes:
            assert out.building.contains(n.position)

    def test_seed_repeat_identical(self):
        a = generate_topology(self.base_scenario(), ClientGenConfig("poisson", 3),
                              np.random.default_rng(9))
        b = generate_topology(self.base_scenario(), ClientGenConfig("poisson", 3),
                              np.random.default_rng(9))
        assert [(n.id, n.position) for n in a.nodes] == [(n.id, n.position) for n in b.nodes]

    def test_zero_mean_bases_only(self):
        out = generate_topology(self.base_scenario(), ClientGenConfig("fixed", 0),
                                np.random.default_rng(1))
        assert len(out.nodes) == 2

    def test_base_outside_building_rejected(self):
        sc = Scenario(nodes=[Node(id="b", kind="wifi_ap", position=Position(99, 30))])
        with pytest.raises(ValueError):
            generate_topology(sc, ClientGenConfig("fixed", 1), np.random.default_rng(1))


class TestSingleCellRun:
    def test_wifi_only_full_buffer(self):
        m = Simulator(wifi_pair_scenario()).run()
        assert m.airtime["lte"] == 0.0
        assert m.airtime["overlap"] == 0.0
        assert m.collision_count == 0
        tput = m.file_throughputs_mbps["sta1"][0]
        assert 0 < tput <= 54.0

    def test_airtime_sums_to_one(self):
        m = Simulator(wifi_pair_scenario()).run()
        assert sum(m.airtime.values()) == pytest.approx(1.0, abs=1e-9)

    def test_zero_duration_empty_metrics(self):
        m = Simulator(wifi_pair_scenario(duration_s=0.0)).run()
        assert m.file_throughputs_mbps == {}
        assert m.collision_count == 0

    def test_throughput_below_table_maximum(self):
        m = Simulator(wifi_pair_scenario(duration_s=0.5)).run()
        for tputs in m.file_throughputs_mbps.values():
            assert all(t <= 54.0 + 1e-9 for t in tputs)


class TestDeterminism:
    def test_identical_seed_identical_metrics_and_trace(self):
        cfg = load_config("figure4_coexistence")
        cfg["simulate"]["duration_s"] = 2.0
        sc = build_scenario(cfg)
        sim_a = Simulator(sc, trace_lines=[])
        m_a = sim_a.run()
        cfg_b = load_config("figure4_coexistence")
        cfg_b["simulate"]["duration_s"] = 2.0
        sim_b = Simulator(build_scenario(cfg_b), trace_lines=[])
        m_b = sim_b.run()
        assert dataclasses.asdict(m_a) == dataclasses.asdict(m_b)
        assert sim_a.trace_lines == sim_b.trace_lines

    def test_different_seed_differs(self):
        cfg = load_config("figure4_coexistence")
        cfg["simulate"]["duration_s"] = 2.0
        m_a = Simulator(build_scenario(cfg)).run()
        cfg["seed"] = 99
        m_b = Simulator(build_scenario(cfg)).run()
        assert dataclasses.asdict(m_a) != dataclasses.asdict(m_b)


def figure3(duration_s):
    return build_scenario(apply_overrides(load_config("figure3_collision"),
                                          [f"simulate.duration_s={duration_s}"]))


class TestStreamingTrace:
    def test_file_writer_writes_the_list_sinks_lines(self, tmp_path):
        lines = []
        Simulator(figure3(0.3), lines).run()
        path = tmp_path / "trace.csv"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            writer = cli.TraceWriter(fh)
            Simulator(figure3(0.3), writer).run()
        assert len(lines) > 1000
        assert len(writer) == len(lines)
        assert path.read_bytes() == (cli.TRACE_HEADER + "\n" + "\n".join(lines) + "\n").encode()

    def test_file_writer_holds_no_records(self, tmp_path):
        # a run's tracemalloc peak grows with its length only by what the
        # sink keeps: a list keeps every record, a file writer none
        def peak_mb(duration_s, sink_for):
            scenario = figure3(duration_s)
            with open(tmp_path / "trace.csv", "w", encoding="utf-8", newline="\n") as fh:
                tracemalloc.start()
                try:
                    Simulator(scenario, sink_for(fh)).run()
                    return tracemalloc.get_traced_memory()[1] / 1e6
                finally:
                    tracemalloc.stop()

        def growth_mb(sink_for):
            return peak_mb(4.0, sink_for) - peak_mb(0.5, sink_for)

        peak_mb(0.05, cli.TraceWriter)  # first-run caches out of the way
        assert growth_mb(cli.TraceWriter) < 0.5
        assert growth_mb(lambda fh: []) > 1.0

    def test_node_ids_are_written_verbatim(self):
        # ids holding format fields of both styles; each sorts where its
        # plain id does, so the run is the same and only the ids differ
        names = {"ap1": "ap1{}", "ap2": "ap2}{", "sta1": "sta1{0}", "sta2": "sta2{:.1f}%s"}

        def traced(rename):
            sc = dataclasses.replace(two_bss_scenario(duration_s=0.05),
                                     wifi_mac=WifiMacConfig(rts_cts=True))
            sc = dataclasses.replace(
                sc, nodes=[dataclasses.replace(n, id=rename(n.id), attach_to=n.attach_to
                                               and rename(n.attach_to)) for n in sc.nodes],
                link_gains={(rename(a), rename(b)): g for (a, b), g in sc.link_gains.items()})
            sim = Simulator(sc, trace_lines=[])
            sim.run()
            return sim.trace_lines

        plain, odd = traced(lambda nid: nid), traced(names.get)
        assert len(odd) == len(plain) > 100
        for name in names.values():
            assert any(f",{name},wifi," in line for line in odd)
        renamed = []
        for line in odd:
            for nid, name in names.items():
                line = line.replace(name, nid)
            renamed.append(line)
        assert renamed == plain


SIXTEEN_LINKS = {("n00", "n03"): -70.0, ("n07", "n02"): -88.5, ("n10", "n15"): -60.0}


def sixteen_node_scenario(propagation):
    # 16 bases spread over the building, n05 on top of n04, three pairs pinned
    rng = np.random.default_rng(99)
    nodes = [Node(id=f"n{i:02d}", kind=("wifi_ap", "lte_enb")[i % 2],
                  position=Position(float(rng.uniform(0, 50)), float(rng.uniform(0, 120))),
                  tx_power_dbm=17.0 + i % 4, channel=(36, 40)[i // 8])
             for i in range(16)]
    nodes[5] = dataclasses.replace(nodes[5], position=nodes[4].position)
    return Scenario(nodes=nodes, seed=13, propagation=propagation,
                    link_gains=dict(SIXTEEN_LINKS))


def drawn_pairs(sim):
    """The pairs without a ``links`` entry, in (i < j, sorted id) order, and their distances."""
    pinned = set(SIXTEEN_LINKS) | {(b, a) for a, b in SIXTEEN_LINKS}
    ids = sorted(sim.nodes)
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:] if (a, b) not in pinned]
    dists = [max(sim.nodes[a].position.distance_to(sim.nodes[b].position), 1.0)
             for a, b in pairs]
    return pairs, dists


class TestBatchedDraws:
    """The PHY draws link state in bulk with the values and order of one draw at a time."""

    @pytest.mark.parametrize("model", [
        PropagationModel(los_mode="range"), PropagationModel(los_mode="nlos"),
        PropagationModel(los_mode="los"), PropagationModel(variant="diffusion"),
    ], ids=["inh_range", "nlos", "los", "diffusion"])
    def test_gain_table_equals_per_pair_draws(self, model):
        sim = Simulator(sixteen_node_scenario(model))
        rng = np.random.default_rng([sim.scenario.seed, 1])
        pairs, dists = drawn_pairs(sim)
        expected = {}
        for (a, b), d in zip(pairs, dists):
            expected[(a, b)] = expected[(b, a)] = float(sample_link_gains(d, model, rng))
        for (a, b), g in SIXTEEN_LINKS.items():
            expected[(a, b)] = expected[(b, a)] = g
        ids, index = sim._sorted_ids, sim._node_index
        assert {(a, b): sim.gains[index[a]][index[b]]
                for a in ids for b in ids if a != b} == expected
        # a node's own entry is NaN, so a read of it cannot pass silently
        assert all(math.isnan(sim.gains[i][i]) and math.isnan(sim.rx_lin[i][i])
                   for i in range(len(ids)))
        # carrier sensing reads the same mean received power, in linear units
        for (a, b), g in expected.items():
            power = sim.nodes[a].tx_power_dbm
            assert sim.rx_lin[index[a]][index[b]] == 10.0 ** ((power + g) / 10.0)

    def test_bernoulli_gains_are_one_batched_draw(self):
        # bernoulli draws every LOS uniform before any shadow normal, so its
        # layout differs from per-pair draws but matches one array call
        model = PropagationModel(los_mode="bernoulli")
        sim = Simulator(sixteen_node_scenario(model))
        pairs, dists = drawn_pairs(sim)
        drawn = sample_link_gains(np.array(dists), model,
                                  np.random.default_rng([sim.scenario.seed, 1]))
        index = sim._node_index
        assert [sim.gains[index[a]][index[b]] for a, b in pairs] == drawn.tolist()

    @pytest.mark.parametrize("branches", [1, 4])
    def test_frame_fades_equal_per_node_draws(self, branches):
        # each frame's row of linear factors, across block boundaries
        sim = Simulator(dataclasses.replace(two_bss_scenario(duration_s=0.2),
                                            phy=PhyConfig(fading_branches=branches)))
        frames = []
        start = sim.start_transmission

        def recording(*args, **kwargs):
            frames.append(start(*args, **kwargs))
            return frames[-1]

        sim.start_transmission = recording
        sim.run()
        assert len(frames) > simulator.FADE_BLOCK_FRAMES
        rng = np.random.default_rng([sim.scenario.seed, 2])
        for tx in frames:
            expected = [float(np.mean(rng.exponential(1.0, size=branches)))
                        for _ in sorted(sim.nodes)]
            assert tx.fades.tolist() == expected

    def test_fade_block_size_changes_no_output(self, tmp_path, monkeypatch):
        def run(name):
            out, trace = tmp_path / f"{name}.csv", tmp_path / f"{name}.trace"
            assert cli.main(["simulate", "--config", TWO_CHANNEL_CELLS,
                             "--out", str(out), "--trace", str(trace)]) == 0
            return out.read_bytes(), trace.read_bytes()

        default = run("default")
        assert default[1].count(b",tx_start,") > simulator.FADE_BLOCK_FRAMES
        monkeypatch.setattr(simulator, "FADE_BLOCK_FRAMES", 1)
        assert run("per_frame") == default

    def test_fade_block_holds_a_budget_of_floats(self, monkeypatch):
        def run():
            sim = Simulator(dataclasses.replace(two_bss_scenario(duration_s=0.05),
                                                phy=PhyConfig(fading_branches=4)))
            frames, blocks = [], set()
            start = sim.start_transmission

            def recording(*args, **kwargs):
                frames.append(start(*args, **kwargs).fades.tolist())
                blocks.add(sim._fade_block.shape)
                return frames[-1]

            sim.start_transmission = recording
            sim.run()
            return frames, blocks

        default, blocks = run()
        assert blocks == {(simulator.FADE_BLOCK_FRAMES, 4)}
        # 4 nodes x 4 branches: a budget of 100 draws makes 6-frame blocks
        monkeypatch.setattr(simulator, "FADE_BLOCK_FLOATS", 100)
        frames, blocks = run()
        assert blocks == {(6, 4)}
        assert len(frames) > 6
        assert frames == default

    def test_ended_frames_are_freed_by_reference_counting(self):
        # an ended frame drops its side of each overlap pair, so it (and the
        # fade block its row views) goes once its partners end, with no
        # cycle collection; only frames on the air and their partners stay
        sim = Simulator(figure3(0.3))
        frames = []
        start = sim.start_transmission

        def recording(*args, **kwargs):
            tx = start(*args, **kwargs)
            frames.append(weakref.ref(tx))
            return tx

        sim.start_transmission = recording
        enabled = gc.isenabled()
        gc.disable()
        try:
            m = sim.run()
            alive = {id(tx) for tx in (ref() for ref in frames) if tx is not None}
        finally:
            if enabled:
                gc.enable()
        on_air = [tx for txs in sim.active.values() for tx in txs.values()]
        assert m.collision_count > 0
        assert alive <= {id(tx) for tx in on_air} | {id(o) for tx in on_air
                                                     for o, _, _ in tx.overlaps}


class TestScenarioValidation:
    def test_requires_base(self):
        with pytest.raises(ValueError):
            Scenario(nodes=[Node(id="s", kind="wifi_sta",
                                 position=Position(1, 1))]).validate()

    def test_node_inside_building(self):
        with pytest.raises(ValueError, match="outside"):
            Scenario(nodes=[Node(id="b", kind="wifi_ap",
                                 position=Position(51, 30))]).validate()

    def test_duplicate_ids(self):
        nodes = [Node(id="x", kind="wifi_ap", position=Position(1, 1)),
                 Node(id="x", kind="wifi_sta", position=Position(2, 2))]
        with pytest.raises(ValueError, match="unique"):
            Scenario(nodes=nodes).validate()

    def test_defer_below_sifs_plus_slot(self):
        with pytest.raises(ValueError, match="defer_us"):
            wifi_pair_scenario(lte_mac=LteMacConfig(defer_us=24.9)).validate()

    def test_default_defer_is_sifs_plus_slot(self):
        sc = wifi_pair_scenario()
        assert sc.lte_mac.defer_us == sc.wifi_mac.sifs_us + sc.lte_mac.slot_us
        sc.validate()

    def test_client_attaches_to_own_technology_base(self):
        sc = wifi_pair_scenario()
        sc.nodes.append(Node(id="enb1", kind="lte_enb", position=Position(25, 80)))
        sc.nodes.append(Node(id="ue1", kind="lte_ue", position=Position(25, 90),
                             attach_to="ap1"))
        with pytest.raises(ValueError, match="ue1"):
            sc.validate()

    def test_base_cannot_attach(self):
        sc = wifi_pair_scenario()
        sc.nodes.append(Node(id="ap2", kind="wifi_ap", position=Position(25, 80),
                             attach_to="ap1"))
        with pytest.raises(ValueError, match="ap2"):
            sc.validate()


def two_bss_scenario(duration_s=0.2, seed=21, cross_db=-55.0):
    # two co-located Wi-Fi cells; each AP reaches its station over -55 dB
    # and every other pair over ``cross_db``.  At -55 dB the cells hear
    # each other far above threshold; at -90 dB an AP decodes the other
    # cell's frames (-70 dBm) but senses them below its -62 dBm threshold
    nodes = [
        Node(id="ap1", kind="wifi_ap", position=Position(10, 10)),
        Node(id="sta1", kind="wifi_sta", position=Position(10, 14), attach_to="ap1"),
        Node(id="ap2", kind="wifi_ap", position=Position(14, 10)),
        Node(id="sta2", kind="wifi_sta", position=Position(14, 14), attach_to="ap2"),
    ]
    gains = {}
    for a in ("ap1", "sta1", "ap2", "sta2"):
        for b in ("ap1", "sta1", "ap2", "sta2"):
            if a < b:
                own_cell = a[-1] == b[-1]
                gains[(a, b)] = -55.0 if own_cell else cross_db
    return Scenario(
        nodes=nodes, traffic=TrafficConfig(model="full_buffer"),
        duration_s=duration_s, seed=seed, link_gains=gains,
        wifi_mac=WifiMacConfig(rts_cts=False),
    )


class TestMutuallyAudibleCells:
    def test_no_collisions_without_tied_starts(self):
        sim = Simulator(two_bss_scenario(), trace_lines=[])
        m = sim.run()
        # both APs hear each other at -35 dBm >> -62: DCF must prevent any
        # collision except exact same-instant counter expiry; with this
        # seed no tie occurs, so no collision at all
        starts = {}
        for line in sim.trace_lines:
            t, node, tech, rec, detail = line.split(",", 4)
            if rec == "tx_start" and "kind=data" in detail:
                starts.setdefault(float(t), []).append(node)
        ties = [v for v in starts.values() if len(v) > 1]
        assert not ties
        assert m.collision_count == 0

    def test_frozen_counter_never_decrements_under_foreign_tx(self):
        sim = Simulator(two_bss_scenario(duration_s=0.1), trace_lines=[])
        sim.run()
        active_foreign = {"ap1": 0, "ap2": 0}
        intervals = []  # (start, end, src)
        events = []
        for line in sim.trace_lines:
            t, node, tech, rec, detail = line.split(",", 4)
            events.append((float(t), node, rec, detail))
        ongoing = {}
        for t, node, rec, detail in events:
            if rec == "tx_start":
                ongoing[node] = t
            elif rec == "tx_end":
                intervals.append((ongoing.pop(node), t, node))
        def foreign_tx_active(at, me):
            # every co-channel frame here arrives far above threshold,
            # stations' ACKs included
            eps = 1e-6
            return any(s + eps < at < e - eps for s, e, src in intervals
                       if src != me)
        for t, node, rec, detail in events:
            if rec == "decrement" and node in ("ap1", "ap2"):
                assert not foreign_tx_active(t, node), (t, node)


FILE_TRAFFIC = TrafficConfig(model="file_transfer", file_size_bytes=20000,
                             arrival_rate_per_client=5.0)


class TestNavDeferral:
    def test_stations_overhear_only_in_a_traced_run(self, monkeypatch):
        # a station's NAV feeds only its trace record
        calls = []
        overheard = _WifiStaController.overheard

        def counting(ctrl, tx):
            calls.append(ctrl.node.id)
            overheard(ctrl, tx)

        monkeypatch.setattr(_WifiStaController, "overheard", counting)
        sc = dataclasses.replace(two_bss_scenario(duration_s=0.1, cross_db=-90.0),
                                 wifi_mac=WifiMacConfig(rts_cts=True))
        untraced = Simulator(sc)
        untraced.run()
        assert calls == []
        traced = Simulator(sc, trace_lines=[])
        traced.run()
        assert set(calls) == {"sta1", "sta2"}
        assert len(calls) == sum(",nav," in line for line in traced.trace_lines)
        assert untraced.metrics == traced.metrics

    @pytest.mark.parametrize("rts_cts", [True, False], ids=["rts", "no_rts"])
    def test_idle_ap_survives_overheard_nav(self, rts_cts):
        # an AP that is idle with an empty queue when it overhears a NAV
        # must stay idle through it, not come out of it contending for a
        # frame it does not have
        sc = dataclasses.replace(two_bss_scenario(duration_s=1.0), traffic=FILE_TRAFFIC,
                                 wifi_mac=WifiMacConfig(rts_cts=rts_cts))
        sim = Simulator(sc)
        sim.run()
        assert {job.client for job in sim.completed_files} == {"sta1", "sta2"}

    @pytest.mark.parametrize("traffic", [TrafficConfig(model="full_buffer"), FILE_TRAFFIC],
                             ids=["full_buffer", "file_transfer"])
    def test_no_countdown_or_rts_inside_nav(self, traffic, monkeypatch):
        # record each NAV an AP overhears as a (start, end) window, rounded
        # as the trace prints times
        windows = {"ap1": [], "ap2": []}
        overheard = _WifiApController.overheard

        def recording(ctrl, tx):
            now = ctrl.sim.now_us
            windows[ctrl.node.id].append((round(now, 3), round(now + tx.nav_duration_us, 3)))
            overheard(ctrl, tx)

        monkeypatch.setattr(_WifiApController, "overheard", recording)
        sc = dataclasses.replace(two_bss_scenario(duration_s=0.5, cross_db=-90.0),
                                 traffic=traffic, wifi_mac=WifiMacConfig(rts_cts=True))
        sim = Simulator(sc, trace_lines=[])
        sim.run()
        assert all(windows.values())
        # windows open in time order; t lies strictly inside one iff some
        # window opened before t still reaches past it
        starts = {node: [s for s, _ in w] for node, w in windows.items()}
        reach = {node: list(itertools.accumulate((e for _, e in w), max))
                 for node, w in windows.items()}
        checked = 0
        for line in sim.trace_lines:
            t, node, _, rec, detail = line.split(",", 4)
            rts_start = rec == "tx_start" and detail.startswith("kind=rts;")
            if node in windows and (rec == "decrement" or rts_start):
                checked += 1
                k = bisect.bisect_left(starts[node], float(t))
                assert k == 0 or reach[node][k - 1] <= float(t), line
        assert checked > 0


def full_buffer_figure4(*overrides):
    return build_scenario(apply_overrides(load_config("figure4_coexistence"), [
        "traffic.model=full_buffer", "simulate.adaptive_ed=true", *overrides,
    ]))


class TestBusyEdge:
    @pytest.mark.parametrize("base", ["ap1", "enb1"])
    def test_busy_edge_only_cancels_the_pending_wait(self, base):
        sim = Simulator(full_buffer_figure4())
        sim._schedule_first_traffic()
        ctrl = sim.controllers[base]
        ctrl.maybe_start()
        assert ctrl.contending()
        mac, counter, gen = ctrl.mac, ctrl.mac.backoff_counter, ctrl.gen
        ctrl.on_medium(True)
        # the counter freezes because no slot is delivered, not by a step
        assert ctrl.mac is mac and ctrl.mac.backoff_counter == counter
        assert ctrl.gen == gen + 1


TWO_CHANNEL_CELLS = str(Path(__file__).resolve().parent / "two_channel_cells.yaml")


def reference_airtime(frames, total):
    """The airtime fractions by a sort of every clamped frame edge."""
    events = []
    for start, end, tech in frames:
        s, e = max(0.0, min(start, total)), max(0.0, min(end, total))
        if e > s:
            events += [(s, 1, tech), (e, -1, tech)]
    events.sort(key=lambda x: (x[0], x[1]))
    counts = {"wifi": 0, "lte": 0}
    out = {"wifi": 0.0, "lte": 0.0, "overlap": 0.0, "idle": 0.0}
    prev = 0.0
    for time, delta, tech in events:
        if time > prev:
            w, l = counts["wifi"] > 0, counts["lte"] > 0
            key = "overlap" if (w and l) else "wifi" if w else "lte" if l else "idle"
            out[key] += time - prev
            prev = time
        counts[tech] += delta
    if total > prev:
        out["idle"] += total - prev
    return {k: v / total for k, v in out.items()}


class TestMediumPerChannel:
    """Sensing and airtime on ``two_channel_cells.yaml``, whose golden in
    ``test_golden.py`` pins the per-channel overlaps and NAV."""

    def spy(self, monkeypatch, labels, after=None):
        """Wrap each ``Simulator`` method named in ``labels``; every call
        appends ``(label(sim, *args, **kw), [nodes it carrier-sensed])``
        and, once it returns, calls ``after(sim)``."""
        calls, open_calls = [], []
        sensed = Simulator.sensed_power_dbm

        def sensed_power_dbm(sim, node_id):
            if open_calls:
                open_calls[-1][1].append(node_id)
            return sensed(sim, node_id)

        def wrap(fn, label):
            def wrapped(sim, *args, **kw):
                call = (label(sim, *args, **kw), [])
                calls.append(call)
                open_calls.append(call)
                try:
                    result = fn(sim, *args, **kw)
                finally:
                    open_calls.pop()
                if after is not None:
                    after(sim)
                return result
            return wrapped

        monkeypatch.setattr(Simulator, "sensed_power_dbm", sensed_power_dbm)
        for name, label in labels.items():
            monkeypatch.setattr(Simulator, name, wrap(getattr(Simulator, name), label))
        return calls

    def run_cells(self, trace_lines=None):
        sim = Simulator(build_scenario(load_config(TWO_CHANNEL_CELLS)), trace_lines)
        return sim, sim.run()

    def test_frame_edge_senses_only_its_channel(self, monkeypatch):
        sensed_power_dbm = Simulator.sensed_power_dbm
        checked = []

        def verdicts_hold(sim):
            # every base's verdict is what a fresh carrier sense gives
            for nid in sim._base_ids:
                ctrl = sim.controllers[nid]
                assert ctrl.busy == (sensed_power_dbm(sim, nid) >= ctrl.ed_threshold_dbm)
            checked.append(sim.now_us)

        edges = self.spy(monkeypatch, {
            "start_transmission": lambda sim, **kw: sim.nodes[kw["src"]].channel,
            "_finish_transmission": lambda sim, tx: sim.nodes[tx.src].channel,
        }, after=verdicts_hold)
        self.run_cells()
        bases_on = {36: ["ap1", "ap3", "enb1"], 40: ["ap2", "enb2"]}
        assert {channel for channel, _ in edges} == {36, 40}
        assert len(checked) == len(edges)
        for channel, sensed in edges:
            # a subset of the channel's bases, in id order: those that can flip
            assert sensed == [nid for nid in bases_on[channel] if nid in sensed]
        assert any(len(sensed) < len(bases_on[channel]) for channel, sensed in edges)

    def test_adapt_tick_senses_only_its_base(self, monkeypatch):
        ticks = self.spy(monkeypatch, {
            "_handle_adapt_tick": lambda sim, base_id: (f"{sim.now_us:.3f}", base_id),
        })
        sim, _ = self.run_cells(trace_lines=[])
        changed = {tuple(line.split(",")[:2]) for line in sim.trace_lines
                   if ",threshold," in line}
        assert changed and len(ticks) > len(changed)
        for tick, sensed in ticks:
            assert sensed == ([tick[1]] if tick in changed else [])

    def test_airtime_equals_sorted_sweep(self, monkeypatch):
        frames = []
        start = Simulator.start_transmission

        def recording(sim, **kw):
            tx = start(sim, **kw)
            frames.append((tx.start_us, tx.end_us, sim.nodes[tx.src].technology))
            return tx

        monkeypatch.setattr(Simulator, "start_transmission", recording)
        sim, m = self.run_cells()
        assert max(end for _, end, _ in frames) > sim.end_us  # cut off by the end
        assert m.airtime == reference_airtime(frames, sim.end_us)


def accepted_pairs(step, make_state, phases, events):
    accepted = set()
    for phase, event in itertools.product(phases, events):
        try:
            step(make_state(phase=phase, backoff_counter=3), event, np.random.default_rng(0))
        except ProtocolViolation:
            continue
        accepted.add((phase, event))
    return accepted


class TestSteppedPairs:
    def test_engine_drives_every_legal_pair_and_no_other(self, monkeypatch):
        dcf_step, lbt_step = mac_wifi.dcf_step, mac_lte.lbt_step
        stepped = {"dcf": set(), "lbt": set()}

        def recording(machine, step):
            def wrapped(state, event, rng):
                stepped[machine].add((state.phase, event))
                return step(state, event, rng)
            return wrapped

        monkeypatch.setattr(mac_wifi, "dcf_step", recording("dcf", dcf_step))
        monkeypatch.setattr(mac_lte, "lbt_step", recording("lbt", lbt_step))
        # hidden bases whose AP reaches the UE, so Wi-Fi frames also break
        # LTE bursts; the two-BSS RTS/CTS cells complete their exchanges
        Simulator(full_buffer_figure4("simulate.duration_s=0.5", "links.ap1.ue1=-60")).run()
        two_bss = load_config(str(Path(__file__).resolve().parent / "two_bss_rts.yaml"))
        Simulator(build_scenario(two_bss)).run()
        assert stepped["dcf"] == accepted_pairs(dcf_step, DcfState, DcfPhase, DCF_EVENTS)
        assert stepped["lbt"] == accepted_pairs(lbt_step, LbtState, LbtPhase, LBT_EVENTS)


class TestRtsBeforeData:
    def test_every_data_frame_preceded_by_rts_cts(self):
        cfg = load_config("figure4_coexistence")
        cfg["simulate"]["duration_s"] = 5.0
        sim = Simulator(build_scenario(cfg), trace_lines=[])
        sim.run()
        # every data frame rides on a completed RTS/CTS handshake in the
        # same attempt: in the AP's own frame sequence each data frame is
        # preceded by its RTS, and globally rts >= cts >= data
        counts = {"rts": 0, "cts": 0, "data": 0}
        ap_prev = None
        for line in sim.trace_lines:
            _, node, _, rec, detail = line.split(",", 4)
            if rec != "tx_start":
                continue
            kind = detail.split(";")[0].split("=")[1]
            if kind in counts:
                counts[kind] += 1
            if node == "ap1" and kind in ("rts", "data"):
                if kind == "data":
                    assert ap_prev == "rts", (line, ap_prev)
                ap_prev = kind
        assert counts["rts"] >= counts["cts"] >= counts["data"]
        assert counts["data"] > 0


class TestEdPoliteness:
    def test_contention_tx_never_starts_over_threshold(self):
        # run with trace and re-verify from the records that no
        # contention-based start happened while a foreign transmission
        # was above the starter's threshold (the engine also asserts
        # this live and would raise SimulationError)
        cfg = load_config("figure3_collision")
        cfg["simulate"]["duration_s"] = 0.5
        sim = Simulator(build_scenario(cfg), trace_lines=[])
        sim.run()  # SimulationError here would fail the test

    def test_politeness_violation_detected(self):
        sc = wifi_pair_scenario()
        sim = Simulator(sc)
        sim.start_transmission("sta1", None, "beacon", 1000.0, 5.0, 0.0)
        with pytest.raises(SimulationError, match="politeness"):
            sim.assert_politeness("ap1", -62.0)


class TestBelowFloor:
    def test_frame_faded_below_the_decode_floor_fails(self):
        # mean RSSI 20 - 106 = -86 dBm: still the lowest Wi-Fi rate, and
        # 1.5 dB above the -87.5 dBm decode floor, so a deeper fade drops
        # the frame before any SINR test
        sim = Simulator(wifi_pair_scenario(link_gains={("ap1", "sta1"): -106.0}),
                        trace_lines=[])
        sim.run()
        records = [line.split(",", 3)[1:] for line in sim.trace_lines]
        assert ["sta1", "wifi", "rx_fail,below_floor;from=ap1"] in records


class TestAdaptiveIntegration:
    def test_thresholds_adapt_to_neighbor_level(self):
        cfg = load_config("figure4_coexistence")
        cfg["simulate"]["adaptive_ed"] = True
        cfg["simulate"]["duration_s"] = 3.0
        m = Simulator(build_scenario(cfg)).run()
        # mutual level is -81.8 dBm with a 1 dB margin, clamped at -82
        assert m.final_ed_thresholds["ap1"] == pytest.approx(-82.0)
        assert m.final_ed_thresholds["enb1"] == pytest.approx(-82.0)

    def test_node_threshold_is_its_adaptation_ceiling(self):
        # enb1 starts at its own -78 dBm; an adapt tick must not raise it
        # to the lte_mac default of -72 dBm
        cfg = load_config("figure3_collision")
        cfg["nodes"][2]["ed_threshold_dbm"] = -78.0
        cfg["simulate"].update(adaptive_ed=True, duration_s=1.5)
        sim = Simulator(build_scenario(cfg))
        m = sim.run()
        assert sim.controllers["enb1"].adapt.t_default_dbm == -78.0
        assert m.final_ed_thresholds["enb1"] <= -78.0

    def test_without_adaptation_defaults_hold(self):
        cfg = load_config("figure4_coexistence")
        cfg["simulate"]["duration_s"] = 1.0
        m = Simulator(build_scenario(cfg)).run()
        assert m.final_ed_thresholds["ap1"] == -62.0
        assert m.final_ed_thresholds["enb1"] == -72.0


class TestFigure4Preset:
    def run_preset(self, adaptive, duration=None):
        cfg = load_config("figure4_coexistence")
        cfg["simulate"]["adaptive_ed"] = adaptive
        if duration is not None:
            cfg["simulate"]["duration_s"] = duration
        return Simulator(build_scenario(cfg)).run()

    def test_default_thresholds_lte_dominates_with_collisions(self):
        # hidden-base scenario without adaptation: the LTE side keeps the
        # channel while Wi-Fi burns airtime on collisions
        m = self.run_preset(False)
        assert m.collision_count > 0
        assert m.airtime["lte"] > 2.0 * m.airtime["wifi"]

    def test_adaptive_strictly_improves_wifi_and_total(self):
        off = self.run_preset(False)
        on = self.run_preset(True)

        def median_of(m, node):
            vals = m.file_throughputs_mbps.get(node, [])
            return median(vals) if vals else 0.0

        wifi_off, wifi_on = median_of(off, "sta1"), median_of(on, "sta1")
        lte_off, lte_on = median_of(off, "ue1"), median_of(on, "ue1")
        assert wifi_on > wifi_off
        assert wifi_on + lte_on > wifi_off + lte_off


def run_recording_scans(monkeypatch):
    """Run two_channel_cells; every later ``_scan_at`` call is recorded too."""
    sim = Simulator(build_scenario(load_config(TWO_CHANNEL_CELLS)))
    scans = []
    scan_at = sim._scan_at

    def recording(base_id):
        scans.append((base_id, scan_at(base_id)))
        return scans[-1][1]

    monkeypatch.setattr(sim, "_scan_at", recording)
    sim.run()
    return sim, scans


class TestRelayInVivo:
    def test_bases_learn_each_other_through_the_codec(self):
        cfg = load_config("figure4_coexistence")
        cfg["simulate"]["duration_s"] = 1.0
        sim = Simulator(build_scenario(cfg))
        sim.run()
        # the relay bus delivered every base's encoded cell to every base
        assert set(sim.relayed) == {"ap1", "enb1"}
        cell = sim.relayed["enb1"]
        assert cell.operator_cell_id == "enb1"
        assert cell.station_count == 1
        assert cell.node_type.name == "REL13_LAA"
        # the fused scan feeds the adaptive algorithm, each base seeing the other
        scan = sim._scan_at("ap1")
        assert [e.cell.operator_cell_id for e in scan] == ["enb1"]
        assert scan[0].source == "relayed"
        assert scan[0].rssi_dbm == pytest.approx(-81.8)
        assert [e.cell.operator_cell_id for e in sim._scan_at("enb1")] == ["ap1"]

    def test_relay_disabled_leaves_tables_empty(self):
        cfg = load_config("figure4_coexistence")
        cfg["simulate"]["duration_s"] = 0.5
        cfg["relay"] = {"enabled": False}
        sim = Simulator(build_scenario(cfg))
        sim.run()
        assert sim.relayed == {}
        assert sim._scan_at("enb1") == []

    def test_one_publish_decodes_once(self, monkeypatch):
        published, decoded = {}, []

        def encoding(cell):
            published[cell.operator_cell_id] = cell
            return relay.encode_pseudo_beacon(cell)

        def counting(ies):
            decoded.append(relay.decode_pseudo_beacon(ies))
            return decoded[-1]

        monkeypatch.setattr(simulator, "encode_pseudo_beacon", encoding)
        monkeypatch.setattr(simulator, "decode_pseudo_beacon", counting)
        sim = Simulator(build_scenario(load_config(TWO_CHANNEL_CELLS)))
        sim._handle_relay_publish()
        while sim._heap:
            event = heapq.heappop(sim._heap)
            if event.handler == sim.relayed.update:
                sim.now_us = event.time_us
                event.handler(*event.args)
        # five bases, one decode each, the table holding every result
        bases = ["ap1", "enb1", "ap3", "ap2", "enb2"]  # scenario node order
        assert len(decoded) == 5
        assert list(published) == list(sim.relayed) == bases
        assert all(sim.relayed[b] is cell for b, cell in zip(bases, decoded))
        for b in bases:
            assert sim.relayed[b] == relay.decode_pseudo_beacon(
                relay.encode_pseudo_beacon(published[b]))

    def test_one_round_queues_one_delivery_and_the_next_round(self):
        sim = Simulator(build_scenario(load_config(TWO_CHANNEL_CELLS)))
        sim._handle_relay_publish()
        # latency 10 ms, beacon interval 100 ms
        queued = sorted((e.time_us, e.handler) for e in sim._heap)
        assert queued == [(10_000.0, sim.relayed.update),
                          (100_000.0, sim._handle_relay_publish)]
        assert len(sim._heap[0].args[0]) == 5

    def test_no_base_scans_its_own_cell(self, monkeypatch):
        sim, scans = run_recording_scans(monkeypatch)
        # adaptation ticks at 100, 200 and 300 ms, then a scan after the run
        for base_id in sim._base_ids:
            sim._scan_at(base_id)
        assert len(scans) == 4 * 5
        for base_id, scan in scans:
            # the -40 dB cross-channel links put every other channel's base in view
            assert any(e.source == "relayed" for e in scan)
            assert base_id not in [e.cell.operator_cell_id for e in scan]

    def test_scan_equals_the_per_tick_formula_under_a_measurement_floor(self, monkeypatch):
        # at a -75 dBm floor, enb1 no longer measures ap1 (-81.8 dBm) or
        # ap3 (-90 dBm), nor they it; every other base pair is in view
        def per_tick(sim, base_id):
            ota = [relay.ScanEntry("over_the_air",
                                   relay.CellInfo(ap, sim.nodes[ap].channel,
                                                  sim.attached_count(ap)),
                                   sim.mean_rssi(ap, base_id))
                   for ap in sim._base_ids if base_id in sim._decoders.get(ap, ())]
            relayed = []
            for src_base, cell in sorted(sim.relayed.items()):
                if src_base == base_id:
                    continue
                rssi = sim.mean_rssi(src_base, base_id)
                if rssi >= sim.scenario.phy.measurement_floor_dbm:
                    relayed.append(relay.ScanEntry("relayed", cell, rssi))
            return relay.merge_scans(ota, relayed)

        cfg = apply_overrides(load_config(TWO_CHANNEL_CELLS), ["phy.measurement_floor_dbm=-75"])
        sim = Simulator(build_scenario(cfg))
        scans = []
        scan_at = sim._scan_at

        def checking(base_id):
            scan = scan_at(base_id)
            assert scan == per_tick(sim, base_id)
            scans.append((base_id, scan))
            return scan

        monkeypatch.setattr(sim, "_scan_at", checking)
        sim.run()
        assert len(scans) == 3 * 5
        relayed = {(base_id, e.cell.operator_cell_id) for base_id, scan in scans
                   for e in scan if e.source == "relayed"}
        assert ("enb1", "ap2") in relayed and ("ap1", "enb2") in relayed
        assert not {("enb1", "ap1"), ("enb1", "ap3"), ("ap1", "enb1"), ("ap3", "enb1")} & relayed

    def test_decoded_aps_are_scanned_with_the_relay_off(self):
        # ap1 and ap3 decode each other's beacons at -70 dBm, so they adapt
        # to each other with no relay; eNBs learn only from the relay
        cfg = load_config(TWO_CHANNEL_CELLS)
        cfg["relay"]["enabled"] = False
        sim = Simulator(build_scenario(cfg))
        m = sim.run()
        scan = sim._scan_at("ap3")
        assert [(e.source, e.cell.operator_cell_id, e.rssi_dbm) for e in scan] == [
            ("over_the_air", "ap1", -70.0)]
        assert scan[0].cell == relay.CellInfo("ap1", 36, station_count=1)
        assert sim._scan_at("ap3")[0] is scan[0]  # the air half is built once per base
        assert m.final_ed_thresholds == {"ap1": -71.0, "ap3": -71.0, "ap2": -62.0,
                                         "enb1": -72.0, "enb2": -72.0}

    def test_no_air_entry_from_another_channel(self, monkeypatch):
        sim, scans = run_recording_scans(monkeypatch)
        assert len(scans) == 3 * 5
        # the -40 dB links reach across channels, but no frame does
        air = [(base_id, e.cell.operator_cell_id) for base_id, scan in scans
               for e in scan if e.source == "over_the_air"]
        assert all(sim.nodes[base_id].channel == sim.nodes[cell_id].channel
                   for base_id, cell_id in air)
        assert sorted(set(air)) == [("ap1", "ap3"), ("ap3", "ap1")]


class TestBeaconSchedule:
    def test_beacons_emitted_each_interval(self):
        cfg = load_config("figure3_collision")
        cfg["simulate"]["duration_s"] = 0.45
        sim = Simulator(build_scenario(cfg), trace_lines=[])
        sim.run()
        beacons = [float(line.split(",", 1)[0]) for line in sim.trace_lines
                   if ",tx_start,kind=beacon" in line]
        # 100 ms interval, first due at half an interval: 4 beacons in 450 ms
        assert len(beacons) == 4
        gaps = [b - a for a, b in zip(beacons, beacons[1:])]
        for gap in gaps:
            assert gap == pytest.approx(100_000, rel=0.2)


class TestSkipIdleSlots:
    """The joint walk over every contender's idle slots (``walk_idle_slots``).

    A Wi-Fi AP and an LTE eNB (figure4) share the 9 us slot grid; the
    engine is parked at ``now_us`` with an empty heap and an idle medium.
    """

    SLOT = 9.0

    def sim_at(self, now_us=1000.0, end_us=1e6):
        sim = Simulator(full_buffer_figure4(), trace_lines=[])
        sim.now_us = now_us
        sim.end_us = end_us
        return sim

    def contend(self, sim, base, counter):
        ctrl = sim.controllers[base]
        ctrl.mac = dataclasses.replace(ctrl.mac, phase=ctrl.BACKOFF, cw=ctrl.mac.cw_max,
                                       backoff_counter=counter)
        return ctrl

    def tick(self, sim, ctrl, delay_us):
        """Queue ``ctrl``'s live slot tick ``delay_us`` from now."""
        sim._push(delay_us, "slot_tick", ctrl.on_slot, ctrl.gen)

    def queue(self, sim, delay_us):
        sim._push(delay_us, "timer", lambda: None)

    def walk(self, sim, base, counter):
        """Walk as ``base``'s slot tick at now does after decrementing to ``counter``."""
        ctrl = self.contend(sim, base, counter)
        sim.walk_idle_slots(ctrl)
        return ctrl

    def queued(self, sim):
        """The heap in pop order as (time, kind, the node of a slot tick)."""
        return [(e.time_us, e.kind,
                 e.handler.__self__.node.id if e.kind == "slot_tick" else None)
                for e in sorted(sim._heap)]

    def test_stops_before_queued_event_at_equal_time(self):
        sim = self.sim_at()
        self.queue(sim, 5 * self.SLOT)  # exactly on the fifth boundary
        ap = self.walk(sim, "ap1", 100)
        assert ap.mac.backoff_counter == 96
        # the queued timer is older, so it goes before the re-pushed tick
        assert self.queued(sim) == [(1045.0, "timer", None), (1045.0, "slot_tick", "ap1")]

    def test_slot_before_queued_event_is_consumed(self):
        sim = self.sim_at()
        self.queue(sim, 5 * self.SLOT + 1.0)
        ap = self.walk(sim, "ap1", 100)
        assert ap.mac.backoff_counter == 95
        assert self.queued(sim)[-1] == (1054.0, "slot_tick", "ap1")

    def test_zero_when_heap_top_within_one_slot(self):
        for delay in (1.0, self.SLOT):
            sim = self.sim_at()
            self.queue(sim, delay)
            ap = self.walk(sim, "ap1", 100)
            assert ap.mac.backoff_counter == 100
            assert sim.trace_lines == []
            assert self.queued(sim)[-1] == (1009.0, "slot_tick", "ap1")

    def test_never_passes_end(self):
        for end_us, want in ((1036.0, 4), (1035.9, 3), (1005.0, 0)):
            sim = self.sim_at(end_us=end_us)
            ap = self.walk(sim, "ap1", 100)
            assert ap.mac.backoff_counter == 100 - want
            assert len(sim.trace_lines) == want
            assert all(float(line.split(",")[0]) <= end_us for line in sim.trace_lines)

    def test_bounded_by_counter_and_traces_each_slot(self):
        sim = self.sim_at()
        ap = self.walk(sim, "ap1", 4)
        assert sim.trace_lines == [
            "1009.000,ap1,wifi,decrement,3",
            "1018.000,ap1,wifi,decrement,2",
            "1027.000,ap1,wifi,decrement,1",
        ]
        # the slot that ends the countdown stays a real tick
        assert ap.mac.backoff_counter == 1
        assert self.queued(sim) == [(1036.0, "slot_tick", "ap1")] and sim._seq == 1

    def test_float_path_matches_repeated_push(self):
        # boundaries come from repeated addition, as chained _push calls do
        sim = self.sim_at(now_us=0.1)
        ap = self.contend(sim, "ap1", 51)
        ap.slot_us = 0.7
        sim.walk_idle_slots(ap)
        t, times = 0.1, []
        for _ in range(51):
            t += 0.7
            times.append(f"{t:.3f}")
        assert [line.split(",")[0] for line in sim.trace_lines] == times[:50]
        assert sim._heap[0].time_us == t

    def test_equal_time_boundaries_keep_seq_order(self):
        # enb1's tick at 1009 was queued before ap1's walk begins, so at
        # every shared boundary enb1 counts first, as its older seq says
        sim = self.sim_at()
        enb = self.contend(sim, "enb1", 3)
        self.tick(sim, enb, self.SLOT)
        self.walk(sim, "ap1", 5)
        assert sim.trace_lines == [
            "1009.000,enb1,lte,decrement,2",
            "1009.000,ap1,wifi,decrement,4",
            "1018.000,enb1,lte,decrement,1",
            "1018.000,ap1,wifi,decrement,3",
        ]
        # enb1 expires at 1027 before ap1's equal-time boundary; the ticks
        # go back in the order their last boundaries were taken
        assert self.queued(sim) == [(1027.0, "slot_tick", "enb1"),
                                    (1027.0, "slot_tick", "ap1")]
        assert (enb.mac.backoff_counter, sim.controllers["ap1"].mac.backoff_counter) == (1, 3)

    @pytest.mark.parametrize("stale", ["timer", "old_gen", "busy", "expiring"])
    def test_never_passes_a_queued_event_or_stale_tick(self, stale):
        sim = self.sim_at()
        enb = self.contend(sim, "enb1", 1 if stale == "expiring" else 10)
        if stale == "timer":
            self.queue(sim, self.SLOT + 4.0)
        else:
            self.tick(sim, enb, self.SLOT + 4.0)
            enb.gen += stale == "old_gen"
            enb.busy = stale == "busy"
        heap = list(sim._heap)
        ap = self.walk(sim, "ap1", 10)
        # ap1 takes only its boundary at 1009, before the event at 1013
        assert [line.split(",")[:2] for line in sim.trace_lines] == [["1009.000", "ap1"]]
        assert ap.mac.backoff_counter == 9
        assert sim._heap[0] == heap[0] and sim._heap[1].time_us == 1018.0

    def test_live_ticks_on_either_channel_join(self):
        # ap2 sits on channel 40 of two_channel_cells; its tick joins ap1's walk
        sim = Simulator(build_scenario(load_config(TWO_CHANNEL_CELLS)), trace_lines=[])
        sim.now_us = 1000.0
        ap2 = self.contend(sim, "ap2", 3)
        self.tick(sim, ap2, 4.0)
        ap1 = self.walk(sim, "ap1", 4)
        assert [line.split(",")[:2] for line in sim.trace_lines] == [
            ["1004.000", "ap2"], ["1009.000", "ap1"], ["1013.000", "ap2"], ["1018.000", "ap1"]]
        # ap2's expiry at 1022 stops both
        assert (ap1.mac.backoff_counter, ap2.mac.backoff_counter) == (2, 1)

    def test_lbt_defer_queued_during_a_walk_joins_it(self):
        # enb1's defer (16 + 9 us) is its first slot tick, taken at 1025
        sim = self.sim_at()
        enb = self.contend(sim, "enb1", 3)
        enb.maybe_start()
        self.walk(sim, "ap1", 5)
        assert sim.trace_lines == [
            "1009.000,ap1,wifi,decrement,4",
            "1018.000,ap1,wifi,decrement,3",
            "1025.000,enb1,lte,decrement,2",
            "1027.000,ap1,wifi,decrement,2",
            "1034.000,enb1,lte,decrement,1",
            "1036.000,ap1,wifi,decrement,1",
        ]
        # enb1's expiring boundary at 1043 stops the walk
        assert self.queued(sim) == [(1043.0, "slot_tick", "enb1"),
                                    (1045.0, "slot_tick", "ap1")]

    def test_difs_queued_during_a_walk_stops_it(self):
        # DIFS (16 + 2 x 9 us) is no slot, so enb1 stops short of 1034
        sim = self.sim_at()
        self.contend(sim, "ap1", 3).maybe_start()
        enb = self.walk(sim, "enb1", 5)
        assert [line.split(",")[:2] for line in sim.trace_lines] == [
            ["1009.000", "enb1"], ["1018.000", "enb1"], ["1027.000", "enb1"]]
        assert enb.mac.backoff_counter == 2
        assert self.queued(sim) == [(1034.0, "timer", None), (1036.0, "slot_tick", "enb1")]

    def test_first_decrement_one_slot_after_difs(self):
        sim = Simulator(full_buffer_figure4(), trace_lines=[])
        sim._schedule_first_traffic()
        ap = sim.controllers["ap1"]
        ap.maybe_start()
        ap.mac = dataclasses.replace(ap.mac, backoff_counter=3)
        difs = heapq.heappop(sim._heap)
        sim.now_us = difs.time_us
        difs.handler(*difs.args)
        assert difs.time_us == ap.cfg.difs_us
        assert [line for line in sim.trace_lines if ",decrement," in line] == [
            f"{ap.cfg.difs_us + 9.0:.3f},ap1,wifi,decrement,2",
            f"{ap.cfg.difs_us + 18.0:.3f},ap1,wifi,decrement,1",
        ]
        assert self.queued(sim)[-1] == (ap.cfg.difs_us + 27.0, "slot_tick", "ap1")


class TestCreditFrame:
    @pytest.mark.parametrize("first_bits", [12_000.0, 24_000.0])
    def test_credit_of_no_head_chunk_raises(self, first_bits):
        # a second credit of one frame_key: the chunk moved on, or the file completed
        sim = Simulator(wifi_pair_scenario(traffic=TrafficConfig()))
        ap = sim.controllers["ap1"]
        ap.files.append(simulator.FileJob(1, "sta1", 24_000.0, 0.0))
        sim.credit_frame("ap1", (1, 0.0), first_bits)
        with pytest.raises(SimulationError, match="not its head chunk"):
            sim.credit_frame("ap1", (1, 0.0), first_bits)


def run_with_trace(scenario):
    sim = Simulator(scenario, trace_lines=[])
    return dataclasses.asdict(sim.run()), sim.trace_lines


@pytest.mark.parametrize("make", [
    lambda: two_bss_scenario(duration_s=0.1),
    lambda: build_scenario(apply_overrides(load_config("figure4_coexistence"), [
        "traffic.model=full_buffer", "simulate.duration_s=0.4", "simulate.adaptive_ed=true",
    ])),
    lambda: build_scenario(load_config(TWO_CHANNEL_CELLS)),
])
def test_slot_skipping_changes_no_output(make, monkeypatch):
    # the same run with one heap event per slot, as before skipping existed
    walked = run_with_trace(make())
    monkeypatch.setattr(Simulator, "walk_idle_slots", lambda self, base: self._push(
        base.slot_us, "slot_tick", base.on_slot, base.gen))
    assert run_with_trace(make()) == walked
