"""Golden outputs: sha256 of CLI output files for fixed (config, seed).

These pin today's behaviour byte for byte, so an engine refactor or a
performance change can show it altered nothing.  Re-pin a digest only
for an intended change of model semantics, and name that change in
CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from coexsim.cli import main

HERE = Path(__file__).resolve().parent
TWO_BSS_RTS = str(HERE / "two_bss_rts.yaml")
TWO_CHANNEL_CELLS = str(HERE / "two_channel_cells.yaml")
SCAN_MIXED = str(HERE / "scan_mixed.yaml")

# (argv without output paths, {option: sha256 of the file it writes})
GOLDEN = {
    "figure3_collision": (
        ["simulate", "--config", "figure3_collision"],
        {
            "--out": "da4cef5f39797a4d5c5b8434cfc1064a87f355e2a7f4319464289d81363db942",
            "--trace": "b60299c924b7ac61dbf9e54da216e55b5aa3aa352eecedd121039ca3c7d9b4e6",
        },
    ),
    "figure4_compare_adaptive": (
        ["simulate", "--config", "figure4_coexistence", "--runs", "2",
         "--compare-adaptive", "--set", "simulate.duration_s=3"],
        {
            "--out": "26c630a2989c4dfd0c93a36b9f6ccfe0f99417a25c72236b0d98d47d35dcc8d4",
        },
    ),
    # full-buffer hidden bases: long idle backoff runs, traced
    "figure4_full_buffer": (
        ["simulate", "--config", "figure4_coexistence", "--compare-adaptive",
         "--set", "traffic.model=full_buffer", "--set", "simulate.duration_s=0.5",
         "--set", "simulate.warmup_s=0.1"],
        {
            "--out": "57a2447126d60d1882f32c87f61d33ed4504e4cf307006c85c6b1aebf3bd2317",
            "--trace": "162e9b14a492d76d0e7f4882affa8833d098de3289c4eff06792c6d2a4d2eaa0",
        },
    ),
    # two APs that decode each other's RTS/CTS below ED: NAV deferral, traced
    "two_bss_rts": (
        ["simulate", "--config", TWO_BSS_RTS],
        {
            "--out": "5f3038aa502696d1a9108b4c203f7e7489cad0f6f5404852d57a2b25172498c1",
            "--trace": "0e7bfff410b26120ddfcfb242de5c6d91308a7494d6154512d315729adce7549",
        },
    ),
    # a Wi-Fi and an LTE cell on each of two channels, adaptive ED and
    # NAV on one of them, -40 dB base links across the channels: traced
    "two_channel_cells": (
        ["simulate", "--config", TWO_CHANNEL_CELLS],
        {
            "--out": "8f17a3915a52668bf4386beb26fcf9ae6df88f35bdda233389add3fac37e6f1f",
            "--trace": "255a4a8e5874c50d27f6f66464144ff33dcd894cafdc70b2aa27784d7eb70bfc",
        },
    ),
    # the same five bases with the relay latency equal to the beacon
    # interval: each round's deliveries land with the next round's publishes
    "two_channel_cells_latency_eq_interval": (
        ["simulate", "--config", TWO_CHANNEL_CELLS, "--set", "relay.latency_ms=100"],
        {
            "--out": "580a950d283b50697a4b48cf8313845c72ca204eaa6745086fcb7c7a2cc5f11b",
            "--trace": "96f011d3449c7f50dd95a7275fbac545f7928119c6d9a0926fa6698fc7b74f49",
        },
    ),
    # the same five bases with the relay off: ap1 and ap3 still decode each
    # other's beacons and adapt to -71 dBm; the eNBs keep their defaults
    "two_channel_cells_relay_off": (
        ["simulate", "--config", TWO_CHANNEL_CELLS, "--set", "relay.enabled=false"],
        {
            "--out": "0c56b5716db0577c2b83b9e917e1e9592229b96c0cd932c580cebeb70c33d3e7",
            "--trace": "97cfc96ebfbfc917748508698df269a56e3037179e335e23a6439c19db9ae040",
        },
    ),
    # channel selection over both scan sources, LTE neighbours with TX
    # offsets and entries that omit n_attached or utilization
    "select_scan_mixed": (
        ["select", "--config", SCAN_MIXED],
        {
            "--out": "3f2029c3c4329ad14af9d4fee32b67cab87bd0a3ce88cb592a67fa8fcd56f60b",
        },
    ),
    "select_scan_mixed_on_lte_enb": (
        ["select", "--config", SCAN_MIXED, "--set", "select.running_on=lte_enb"],
        {
            "--out": "bc7c6f1454af77ded8e4d0bf278ca85e4449b89079d5adfc74c5077540fc8b93",
        },
    ),
    "select_scan_mixed_asymmetric": (
        ["select", "--config", SCAN_MIXED,
         "--set", "coordination.select.symmetric_penalty=false"],
        {
            "--out": "0813fd3471b02ceb1601688f081b0f8a1e19c3ebdd1bc5982a8cbc971b8d2e1b",
        },
    ),
    "table1_inh": (
        ["coverage", "--config", "table1_inh"],
        {
            "--out": "699cc69283979f5526aa3366d48a5f8b8ced97a6a7a174f643f324d33ea37976",
            "--cdf-out": "dd4d01c00c6168c73662c2f835c569f1e48b9e10a17b21070d9610b584d5fcaf",
        },
    ),
    "table1_diffusion": (
        ["coverage", "--config", "table1_diffusion"],
        {
            "--out": "daebcd12084d5f5b84dc9b8b9e970c1f99476c356a4b1cc62dc189947c55b8f2",
            "--cdf-out": "cfc2d837639427e24ea2bf0b4cbb0d39d304ef6b454599ba99d769a20aa34c58",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output(name, tmp_path):
    argv, digests = GOLDEN[name]
    paths = {opt: tmp_path / f"{opt.strip('-')}.out" for opt in digests}
    for opt, path in paths.items():
        argv = argv + [opt, str(path)]
    assert main(argv) == 0
    got = {opt: hashlib.sha256(path.read_bytes()).hexdigest()
           for opt, path in paths.items()}
    assert got == digests
