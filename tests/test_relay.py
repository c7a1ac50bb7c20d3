import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coexsim.relay import (
    IE_BSS_LOAD,
    IE_DS_PARAMS,
    IE_HT_OPERATION,
    IE_SSID,
    IE_VENDOR,
    SUBTYPE_MAC_SPEC,
    SUBTYPE_NODE_TYPE,
    SUBTYPE_TX_OFFSET,
    VALID_CHANNELS,
    VENDOR_OUI,
    BeaconDecodeError,
    CellInfo,
    InformationElement,
    MacSpec,
    NodeType,
    ScanEntry,
    decode_pseudo_beacon,
    encode_pseudo_beacon,
    hex_to_ies,
    ies_to_hex,
    merge_scans,
    parse_ies,
    serialize_ies,
)

CHANNEL_LIST = sorted(VALID_CHANNELS)


def sample_cell(**overrides):
    base = dict(
        operator_cell_id="310-410/17",
        channel=36,
        station_count=5,
        channel_utilization=128 / 255,
        available_admission_capacity=3000,
        node_type=NodeType.REL13_LAA,
        mac_spec=MacSpec.LBT_CAT4,
        tx_power_offset_db=6,
    )
    base.update(overrides)
    return CellInfo(**base)


@pytest.mark.parametrize("make, message", [
    (lambda: InformationElement(256, b""), "element id"),
    (lambda: InformationElement(IE_SSID, b"x" * 256), "255 bytes"),
    (lambda: sample_cell(channel_utilization=1.01), "utilization"),
    (lambda: sample_cell(station_count=0x10000), "station count"),
    (lambda: sample_cell(available_admission_capacity=-1), "admission capacity"),
    (lambda: sample_cell(tx_power_offset_db=128), "tx power offset"),
    (lambda: ScanEntry("sniffed", sample_cell(), -60.0), "scan source"),
], ids=["element_id_over_255", "payload_over_255", "utilization_over_1",
        "station_count_over_16_bits", "admission_capacity_negative",
        "tx_offset_over_signed_byte", "unknown_scan_source"])
def test_invalid_field_rejected(make, message):
    with pytest.raises(ValueError, match=message):
        make()


class TestEncode:
    def test_ds_parameter_set_bytes(self):
        ies = encode_pseudo_beacon(sample_cell(channel=36))
        ds = next(ie for ie in ies if ie.element_id == IE_DS_PARAMS)
        assert ds.to_bytes() == bytes([0x03, 0x01, 0x24])

    def test_bss_load_utilization_byte(self):
        ies = encode_pseudo_beacon(sample_cell(station_count=5,
                                               channel_utilization=0.5))
        load = next(ie for ie in ies if ie.element_id == IE_BSS_LOAD)
        assert load.length == 5
        assert load.payload[0:2] == (5).to_bytes(2, "little")
        # round(0.5 * 255) rounds half up to 128
        assert load.payload[2] == 128

    def test_ssid_too_long_rejected(self):
        with pytest.raises(ValueError, match="32"):
            encode_pseudo_beacon(sample_cell(operator_cell_id="x" * 33))

    def test_vendor_elements_present(self):
        ies = encode_pseudo_beacon(sample_cell())
        vendor = [ie for ie in ies if ie.element_id == IE_VENDOR]
        assert len(vendor) == 3
        assert all(ie.payload[:3] == b"\x00\x00\x00" for ie in vendor)
        # the three vendor elements select the cross-technology payload
        assert decode_pseudo_beacon(ies).node_type == NodeType.REL13_LAA

    def test_length_fields_consistent(self):
        for ie in encode_pseudo_beacon(sample_cell()):
            assert ie.length == len(ie.payload) <= 255

    def test_negative_offset_twos_complement(self):
        ies = encode_pseudo_beacon(sample_cell(tx_power_offset_db=-10))
        assert decode_pseudo_beacon(ies).tx_power_offset_db == -10


class TestDecode:
    def test_round_trip(self):
        cell = sample_cell()
        assert decode_pseudo_beacon(encode_pseudo_beacon(cell)) == cell

    def test_legacy_view_without_vendor_ies(self):
        ies = [ie for ie in encode_pseudo_beacon(sample_cell())
               if ie.element_id != IE_VENDOR]
        cell = decode_pseudo_beacon(ies)
        assert cell.node_type == NodeType.WIFI
        assert cell.mac_spec == MacSpec.DCF
        assert cell.tx_power_offset_db == 0
        assert cell.channel == 36
        assert cell.station_count == 5

    def test_bss_load_wrong_length_names_element(self):
        ies = [
            InformationElement(IE_SSID, b"cell"),
            InformationElement(IE_DS_PARAMS, bytes([36])),
            InformationElement(IE_BSS_LOAD, b"\x05\x00"),
        ]
        with pytest.raises(BeaconDecodeError) as err:
            decode_pseudo_beacon(ies)
        assert err.value.element_id == 11

    def test_channel_mismatch_flagged(self):
        ies = encode_pseudo_beacon(sample_cell(channel=36))
        patched = [
            InformationElement(IE_HT_OPERATION, bytes([40]) + b"\x00" * 21)
            if ie.element_id == IE_HT_OPERATION else ie
            for ie in ies
        ]
        with pytest.raises(BeaconDecodeError, match="disagrees"):
            decode_pseudo_beacon(patched)

    def test_missing_mandatory_elements(self):
        with pytest.raises(BeaconDecodeError):
            decode_pseudo_beacon([InformationElement(IE_SSID, b"x")])

    @pytest.mark.parametrize("ies, element_id, message", [
        (lambda: [ie if ie.element_id != IE_HT_OPERATION
                  else InformationElement(IE_HT_OPERATION, b"")
                  for ie in encode_pseudo_beacon(sample_cell())], 61, "empty HT"),
        (lambda: [InformationElement(IE_SSID, b"cell"),
                  InformationElement(IE_DS_PARAMS, bytes([14]))], 3, "unlicensed"),
        (lambda: with_vendor_value(SUBTYPE_NODE_TYPE, b"\x01\x01"), 221, "node-type"),
        (lambda: with_vendor_value(SUBTYPE_NODE_TYPE, b"\x09"), 221, "unknown node type 9"),
        (lambda: with_vendor_value(SUBTYPE_MAC_SPEC, b""), 221, "mac-spec"),
        (lambda: with_vendor_value(SUBTYPE_MAC_SPEC, b"\x00"), 221, "unknown mac spec 0"),
        (lambda: with_vendor_value(SUBTYPE_TX_OFFSET, b"\x00\x06"), 221, "tx-offset"),
    ], ids=["empty_ht_operation", "ds_channel_not_unlicensed", "node_type_two_bytes",
            "node_type_unknown", "mac_spec_empty", "mac_spec_unknown", "tx_offset_two_bytes"])
    def test_malformed_element_names_it(self, ies, element_id, message):
        with pytest.raises(BeaconDecodeError, match=message) as err:
            decode_pseudo_beacon(ies())
        assert err.value.element_id == element_id


def test_unknown_vendor_subtype_is_ignored():
    ies = encode_pseudo_beacon(sample_cell())
    ies.append(InformationElement(IE_VENDOR, VENDOR_OUI + b"\x09\x01"))
    assert decode_pseudo_beacon(ies) == sample_cell()


def test_scan_entry_rssi_must_be_finite():
    with pytest.raises(ValueError, match="rssi"):
        ScanEntry("relayed", sample_cell(), float("nan"))


def with_vendor_value(subtype, value):
    """The sample cell's beacon with one vendor element's value bytes replaced."""
    return [InformationElement(IE_VENDOR, VENDOR_OUI + bytes([subtype]) + value)
            if ie.element_id == IE_VENDOR and ie.payload[3] == subtype else ie
            for ie in encode_pseudo_beacon(sample_cell())]


class TestByteStream:
    def test_hex_round_trip(self):
        ies = encode_pseudo_beacon(sample_cell())
        rebuilt = hex_to_ies(ies_to_hex(ies))
        assert rebuilt == ies
        assert decode_pseudo_beacon(rebuilt) == sample_cell()

    def test_truncated_payload_names_element(self):
        data = bytes([0x0B, 0x05, 0x01, 0x02])  # declares 5 bytes, has 2
        with pytest.raises(BeaconDecodeError) as err:
            parse_ies(data)
        assert err.value.element_id == 11

    def test_bad_hex_rejected(self):
        with pytest.raises(BeaconDecodeError):
            hex_to_ies("zz")

    @given(st.binary(max_size=600))
    @settings(derandomize=True, max_examples=500)
    def test_fuzz_never_crashes(self, blob):
        # arbitrary bytes either parse+decode or raise BeaconDecodeError
        try:
            decode_pseudo_beacon(parse_ies(blob))
        except BeaconDecodeError:
            pass


def random_cell(rng):
    util_grid = int(rng.integers(0, 256))
    return CellInfo(
        operator_cell_id="".join(
            chr(ord("a") + int(c)) for c in rng.integers(0, 26, size=int(rng.integers(1, 33)))
        ),
        channel=CHANNEL_LIST[int(rng.integers(0, len(CHANNEL_LIST)))],
        station_count=int(rng.integers(0, 0x10000)),
        channel_utilization=util_grid / 255.0,
        available_admission_capacity=int(rng.integers(0, 0x10000)),
        node_type=NodeType(int(rng.integers(1, 6))),
        mac_spec=MacSpec(int(rng.integers(1, 5))),
        tx_power_offset_db=int(rng.integers(-128, 128)),
    )


def test_round_trip_identity_randomized():
    # 10^4 randomized cells, utilization drawn on the representable
    # 1/255 grid, including both boundaries
    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        cell = random_cell(rng)
        assert decode_pseudo_beacon(encode_pseudo_beacon(cell)) == cell
    for boundary in (0.0, 1.0):
        cell = sample_cell(channel_utilization=boundary)
        assert decode_pseudo_beacon(encode_pseudo_beacon(cell)) == cell


class TestMergeScans:
    def entry(self, cell_id, rssi, source="over_the_air", node_type=NodeType.WIFI,
              station_count=0, utilization=0.0):
        cell = sample_cell(operator_cell_id=cell_id, node_type=node_type,
                           station_count=station_count, channel_utilization=utilization)
        return ScanEntry(source, cell, rssi)

    def test_disjoint_concatenates_sorted(self):
        ota = [self.entry("a", -70.0)]
        relayed = [self.entry("b", -60.0, source="relayed")]
        merged = merge_scans(ota, relayed)
        assert [e.cell.operator_cell_id for e in merged] == ["b", "a"]

    def test_same_cell_ota_rssi_wins_relayed_fills(self):
        # the relayed cell, counts and load included, replaces the plain
        # Wi-Fi air cell; the air RSSI and source stay
        ota = [self.entry("cell1", -60.0, station_count=1)]
        relayed = [self.entry("cell1", -70.0, source="relayed",
                              node_type=NodeType.MULTEFIRE,
                              station_count=4, utilization=0.25)]
        merged = merge_scans(ota, relayed)
        assert merged == [ScanEntry("over_the_air", relayed[0].cell, -60.0)]

    def test_air_cell_with_payload_is_kept(self):
        ota = [self.entry("cell1", -60.0, node_type=NodeType.LTE_U, station_count=1)]
        relayed = [self.entry("cell1", -70.0, source="relayed",
                              node_type=NodeType.MULTEFIRE, station_count=4)]
        assert merge_scans(ota, relayed) == ota

    def test_empty_inputs(self):
        assert merge_scans([], []) == []

    def test_idempotent(self):
        ota = [self.entry("a", -70.0, station_count=2),
               self.entry("b", -65.0, station_count=1)]
        relayed = [self.entry("a", -75.0, source="relayed", station_count=3),
                   self.entry("c", -80.0, source="relayed", node_type=NodeType.LTE_U)]
        once = merge_scans(ota, relayed)
        assert merge_scans(once, once) == once

    def test_tiebreak_by_cell_id(self):
        entries = [self.entry("z", -60.0), self.entry("a", -60.0)]
        merged = merge_scans(entries, [])
        assert [e.cell.operator_cell_id for e in merged] == ["a", "z"]
