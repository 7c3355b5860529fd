"""Record validation and scan intersection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ingest_reference import validate_record
from wifi_proximity.records import (
    TS_END,
    CandidatePair,
    MalformedRecordError,
    OverlapView,
    intersect,
)

from wifi_proximity.ingest import month_key

from conftest import ap, mac, random_scan, scan


def raw_ap(bssid: str, ssid: str = "x", rssi: int = -60) -> dict:
    return {"bssid": bssid, "ssid": ssid, "rssi": rssi}


class TestValidateRecord:
    def test_valid_record_roundtrip(self):
        rec = validate_record("u1", 1000, [raw_ap(mac(1)), raw_ap(mac(2), rssi=-40)])
        assert rec.user == "u1" and rec.ts == 1000
        assert rec.bssids() == {mac(1), mac(2)}

    def test_bssid_lowercased(self):
        rec = validate_record("u1", 0, [raw_ap("AA:BB:CC:00:00:01")])
        assert rec.aps[0].bssid == "aa:bb:cc:00:00:01"

    def test_duplicate_bssid_keeps_strongest(self):
        rec = validate_record("u1", 0, [
            raw_ap(mac(1), rssi=-70), raw_ap(mac(1), rssi=-50), raw_ap(mac(1), rssi=-60),
        ])
        assert len(rec.aps) == 1 and rec.aps[0].rssi == -50

    @pytest.mark.parametrize("user,ts,aps", [
        ("", 0, []),                        # empty user
        (None, 0, []),                      # missing user
        ("u", None, []),                    # missing ts
        ("u", 1.5, []),                     # non-integer ts
        ("u", True, []),                    # bool is not a ts
        ("u", -1, []),                      # negative ts
        ("u", 0, [{"ssid": "", "rssi": -1}]),            # ap missing bssid
        ("u", 0, [raw_ap("not-a-mac")]),                 # malformed bssid
        ("u", 0, [raw_ap(mac(1), rssi=5)]),              # positive rssi
        ("u", 0, [raw_ap(mac(1), rssi=1.5)]),            # float rssi
        ("u", 0, [{"bssid": 3, "ssid": "", "rssi": -1}]),  # non-string bssid
        ("u", 0, [{"bssid": mac(1), "ssid": 3, "rssi": -1}]),  # non-string ssid
        ("u", TS_END, []),                  # too late for every tz offset
        ("u", 2 ** 63, []),                 # beyond int64
        ("u", 0, [raw_ap(mac(1) + "\n")]),          # bssid with a trailing newline
    ])
    def test_rejects_malformed(self, user, ts, aps):
        with pytest.raises(MalformedRecordError):
            validate_record(user, ts, aps)

    def test_last_ts_is_a_date_at_every_accepted_tz_offset(self):
        rec = validate_record("u", TS_END - 1, [])
        assert month_key(rec.ts, 86399) == "9999-12"
        assert month_key(0, -86399) == "1969-12"

    @pytest.mark.parametrize("user", ["u,1", "u\n1", "u\r1", ","])
    def test_rejects_csv_unsafe_user(self, user):
        with pytest.raises(MalformedRecordError, match="comma or newline"):
            validate_record(user, 0, [])

    def test_line_number_in_message(self):
        with pytest.raises(MalformedRecordError, match="line 42"):
            validate_record("", 0, [], line_no=42)

    def test_empty_ap_list_is_valid(self):
        rec = validate_record("u1", 5, [])
        assert rec.aps == ()


class TestCandidatePair:
    def test_requires_canonical_user_order(self):
        a = scan("u2", 0, [])
        b = scan("u1", 0, [])
        with pytest.raises(ValueError, match="canonical"):
            CandidatePair("u2", "u1", a, b, 0, 0)

    def test_negative_cannot_carry_bt_rssi(self):
        a = scan("u1", 0, [])
        b = scan("u2", 0, [])
        with pytest.raises(ValueError, match="bt_rssi"):
            CandidatePair("u1", "u2", a, b, 0, 0, bt_rssi=-50)


def brute_intersect(scan_a, scan_b):
    """Naive nested-loop intersection, independent of intersect()."""
    common = []
    for pa in scan_a.aps:
        for pb in scan_b.aps:
            if pa.bssid == pb.bssid:
                common.append((pa.bssid, pa.rssi, pb.rssi))
    return common, len(scan_a.aps) - len(common), len(scan_b.aps) - len(common)


class TestIntersect:
    def test_random_scans_match_brute_force(self):
        rng = np.random.default_rng(0)
        scans = [random_scan(rng, f"u{i}", i) for i in range(100)]
        for i in range(0, 100, 2):
            a, b = scans[i], scans[i + 1]
            view = intersect(a, b)
            common, only_a, only_b = brute_intersect(a, b)
            assert sorted(view.common) == sorted(common)
            assert (view.only_a, view.only_b) == (only_a, only_b)
            assert view.size == len(common)

    def test_empty_scans(self):
        view = intersect(scan("a", 0, []), scan("b", 0, [ap(1, -50)]))
        assert view.common == () and view.only_a == 0 and view.only_b == 1

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_symmetric_up_to_column_swap(self, data):
        idx_a = data.draw(st.lists(st.integers(0, 20), max_size=10, unique=True))
        idx_b = data.draw(st.lists(st.integers(0, 20), max_size=10, unique=True))
        a = scan("a", 0, [ap(i, -50 - i) for i in idx_a])
        b = scan("b", 0, [ap(i, -40 - i) for i in idx_b])
        ab, ba = intersect(a, b), intersect(b, a)
        assert sorted(ab.common) == sorted((m, rb, ra) for m, ra, rb in ba.common)
        assert (ab.only_a, ab.only_b) == (ba.only_b, ba.only_a)


def test_overlap_view_size_field():
    view = OverlapView(common=((mac(1), -50, -60),), only_a=2, only_b=3)
    assert view.size == 1
