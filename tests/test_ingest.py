"""Log parsing, the ambiguous-router filter, and home-router detection."""

import json

import numpy as np
import pytest

from ingest_reference import ambiguous_macs, collect_ssid_sets
from wifi_proximity.ingest import (
    BluetoothSightings,
    build_home_router_map,
    filter_ambiguous_macs,
    month_key,
    parse_bluetooth_log,
    parse_wifi_log,
)
from wifi_proximity.records import RSSI_MIN, TS_END, MalformedRecordError

from conftest import ap, mac, records_of, scan, scans_of, sightings_of


def wifi_line(user="u1", ts=1000, aps=None) -> str:
    if aps is None:
        aps = [{"bssid": mac(1), "ssid": "net", "rssi": -60}]
    return json.dumps({"user": user, "ts": ts, "aps": aps})


def numbered(lines):
    return list(enumerate(lines, start=1))


def filter_records(records, max_ssids: int = 5):
    """filter_ambiguous_macs over the records, with records out."""
    scans, report = filter_ambiguous_macs(scans_of(records), max_ssids)
    return records_of(scans), report


def detect_home_router(records, bin_minutes: int = 10):
    """The home build_home_router_map finds in one user's month of records."""
    homes = build_home_router_map(scans_of(records), bin_minutes)
    assert len(homes) <= 1
    return next(iter(homes.values()), None)


class TestParseWifi:
    def test_parses_valid_lines(self):
        res = parse_wifi_log(numbered([wifi_line(), wifi_line(user="u2")]))
        assert len(res.records) == 2 and res.skipped == 0
        assert records_of(res.records)[0].user == "u1"

    def test_lenient_mode_counts_malformed(self):
        res = parse_wifi_log(numbered([wifi_line(), "not json", wifi_line(ts=-1)]))
        assert len(res.records) == 1 and res.skipped == 2

    def test_strict_mode_raises_with_line_number(self):
        with pytest.raises(MalformedRecordError, match="line 2"):
            parse_wifi_log(numbered([wifi_line(), "not json"]), strict=True)

    def test_non_object_line_rejected(self):
        res = parse_wifi_log(numbered(["[1, 2]"]))
        assert res.skipped == 1

    def test_comma_in_user_skipped_or_fatal(self):
        lines = numbered([wifi_line(), wifi_line(user="a,b")])
        assert parse_wifi_log(lines).skipped == 1
        with pytest.raises(MalformedRecordError, match="line 2"):
            parse_wifi_log(lines, strict=True)

    def test_missing_aps_rejected(self):
        res = parse_wifi_log(numbered([json.dumps({"user": "u", "ts": 1})]))
        assert res.skipped == 1


class TestParseBluetooth:
    def line(self, seen):
        return json.dumps({"user": "u1", "ts": 500, "seen": seen})

    def test_one_sighting_per_seen_entry(self):
        res = parse_bluetooth_log(numbered([self.line(
            [{"peer": "u2", "rssi": -70}, {"mac": "ff:ee:dd:00:00:01", "rssi": -80}])]))
        sightings = res.records
        assert len(sightings) == 2 and sightings.users == ["u1", "u2"]
        assert sightings.user.tolist() == [0, 0] and sightings.peer.tolist() == [1, -1]
        assert sightings.ts.tolist() == [500, 500]
        assert sightings.rssi.tolist() == [-70, -80]

    def test_peer_and_mac_both_set_rejected(self):
        res = parse_bluetooth_log(numbered([self.line(
            [{"peer": "u2", "mac": "ff:ee:dd:00:00:01", "rssi": -70}])]))
        assert res.skipped == 1

    def test_positive_rssi_rejected_strict(self):
        with pytest.raises(MalformedRecordError):
            parse_bluetooth_log(numbered([self.line([{"peer": "u2", "rssi": 5}])]),
                                strict=True)

    @pytest.mark.parametrize("user,peer", [("u,1", "u2"), ("u1", "u,2"),
                                           ("u1", "u2\n"), ("u\r1", "u2")])
    def test_csv_unsafe_ids_rejected(self, user, peer):
        line = json.dumps({"user": user, "ts": 500,
                           "seen": [{"peer": peer, "rssi": -70}]})
        assert parse_bluetooth_log(numbered([line])).skipped == 1
        with pytest.raises(MalformedRecordError, match="comma or newline"):
            parse_bluetooth_log(numbered([line]), strict=True)

    @pytest.mark.parametrize("ts", [-1, TS_END, 2 ** 63, 1.5, True])
    def test_out_of_range_ts_rejected(self, ts):
        line = json.dumps({"user": "u1", "ts": ts, "seen": [{"peer": "u2", "rssi": -70}]})
        assert parse_bluetooth_log(numbered([line])).skipped == 1
        with pytest.raises(MalformedRecordError, match="invalid ts"):
            parse_bluetooth_log(numbered([line]), strict=True)
        ok = json.dumps({"user": "u1", "ts": TS_END - 1, "seen": []})
        assert parse_bluetooth_log(numbered([ok])).skipped == 0

    def test_empty_seen_list_yields_nothing(self):
        res = parse_bluetooth_log(numbered([self.line([])]))
        assert len(res.records) == 0 and res.skipped == 0


class TestBluetoothLines:
    """BluetoothSightings.lines against json.dumps, and back through the parser."""

    @staticmethod
    def table(users, rows):
        """A table of (user, peer, ts, rssi) code rows, in the order given."""
        columns = list(zip(*rows)) or [()] * 4
        return BluetoothSightings(users, *(np.array(c, dtype=d) for c, d in zip(
            columns, (np.int32, np.int32, np.int64, np.int16))))

    @staticmethod
    def check(table, docs):
        """lines gives docs' compact json.dumps texts, which parse back to
        the table's sightings."""
        lines = list(table.lines())
        assert lines == [json.dumps(doc, separators=(",", ":")) for doc in docs]
        parsed = parse_bluetooth_log(enumerate(lines, 2), strict=True).records
        assert sightings_of(parsed) == sightings_of(table)

    def test_an_outside_device_has_no_peer(self):
        table = self.table(["u1", "u2"], [(0, -1, 500, -80), (0, 1, 500, -70)])
        self.check(table, [{"user": "u1", "ts": 500,
                            "seen": [{"rssi": -80}, {"peer": "u2", "rssi": -70}]}])

    def test_rows_of_one_user_and_ts_share_a_line(self):
        table = self.table(["a", "b", "c"], [
            (0, 1, 500, -70), (0, 2, 500, -71), (0, 1, 800, -72), (1, 0, 500, -60),
            (2, 0, 500, 0), (2, 1, 500, RSSI_MIN)])
        self.check(table, [
            {"user": "a", "ts": 500, "seen": [{"peer": "b", "rssi": -70},
                                              {"peer": "c", "rssi": -71}]},
            {"user": "a", "ts": 800, "seen": [{"peer": "b", "rssi": -72}]},
            {"user": "b", "ts": 500, "seen": [{"peer": "a", "rssi": -60}]},
            {"user": "c", "ts": 500, "seen": [{"peer": "a", "rssi": 0},
                                              {"peer": "b", "rssi": RSSI_MIN}]},
        ])

    @pytest.mark.parametrize("users", [["u1\x00", "u2\x00\x00"], ["ü", "用户\u2028"],
                                       ['q"\\', "\x7f\t"]])
    def test_ids_are_encoded_as_json_dumps_does(self, users):
        table = self.table(users, [(0, 1, 0, -5), (1, 0, TS_END - 1, -6)])
        self.check(table, [{"user": users[0], "ts": 0, "seen": [{"peer": users[1], "rssi": -5}]},
                           {"user": users[1], "ts": TS_END - 1,
                            "seen": [{"peer": users[0], "rssi": -6}]}])

    @pytest.mark.parametrize("users", [[], ["u1", "u2"]])
    def test_an_empty_table_has_no_lines(self, users):
        self.check(self.table(users, []), [])


class TestAmbiguityFilter:
    def planted_records(self):
        """mac(0) broadcasts 5 distinct SSIDs, mac(1) four, mac(2) one."""
        recs = []
        for i in range(5):
            aps = [ap(0, -60, ssid=f"name{i}")]
            if i < 4:
                aps.append(ap(1, -60, ssid=f"other{i}"))
            aps.append(ap(2, -60, ssid="stable"))
            recs.append(scan("u1", 1000 + i, aps))
        return recs

    def test_census_counts_distinct_ssids(self):
        sets = collect_ssid_sets(self.planted_records())
        assert len(sets[mac(0)]) == 5
        assert len(sets[mac(1)]) == 4
        assert sets[mac(2)] == {"stable"}

    def test_exactly_the_planted_macs_removed(self):
        recs = self.planted_records()
        filtered, report = filter_records(recs, max_ssids=5)
        remaining = {a.bssid for r in filtered for a in r.aps}
        assert mac(0) not in remaining
        assert mac(1) in remaining and mac(2) in remaining
        assert report.ambiguous_macs == 1
        assert report.removed_observations == 5
        assert report.total_observations == sum(len(r.aps) for r in recs)

    def test_threshold_is_inclusive(self):
        recs = self.planted_records()
        bad = ambiguous_macs(collect_ssid_sets(recs), max_ssids=4)
        assert bad == {mac(0), mac(1)}

    def test_filter_preserves_record_count_and_order(self):
        recs = self.planted_records()
        filtered, _ = filter_records(recs)
        assert len(filtered) == len(recs)
        assert [r.ts for r in filtered] == [r.ts for r in recs]

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            filter_records([], max_ssids=0)


class TestHomeDetection:
    def test_night_router_recovered(self):
        # nights at mac(0) across many bins; days spread over other routers
        recs = []
        for night_bin in range(50):
            recs.append(scan("u1", night_bin * 600, [ap(0, -55)]))
        for day_bin in range(10):
            recs.append(scan("u1", 100_000 + day_bin * 600, [ap(1 + day_bin, -50)]))
        assert detect_home_router(recs, bin_minutes=10) == mac(0)

    def test_counts_bins_not_observations(self):
        # mac(0): 30 observations inside one bin; mac(1): 2 bins, 1 obs each
        recs = [scan("u1", i, [ap(0, -50)]) for i in range(30)]
        recs += [scan("u1", 600, [ap(1, -50)]), scan("u1", 1200, [ap(1, -50)])]
        assert detect_home_router(recs, bin_minutes=10) == mac(1)

    def test_tie_breaks_to_smallest_bssid(self):
        recs = [scan("u1", 0, [ap(3, -50), ap(1, -50)])]
        assert detect_home_router(recs) == mac(1)

    def test_no_observations_gives_none(self):
        assert detect_home_router([scan("u1", 0, [])]) is None
        assert detect_home_router([]) is None

    def test_bin_width_validation(self):
        with pytest.raises(ValueError):
            detect_home_router([], bin_minutes=0)

    def test_map_is_per_user_and_month(self):
        jan = 1_700_000_000   # 2023-11 in UTC
        recs = [scan("u1", jan + i * 600, [ap(0, -50)]) for i in range(5)]
        recs += [scan("u1", jan + 40 * 86400 + i * 600, [ap(1, -50)]) for i in range(5)]
        recs += [scan("u2", jan, [ap(2, -50)])]
        homes = build_home_router_map(scans_of(recs))
        months = {m for (u, m) in homes if u == "u1"}
        assert len(months) == 2
        assert set(homes.values()) == {mac(0), mac(1), mac(2)}

    def test_month_key_uses_tz_offset(self):
        # 2020-02-01 00:30 UTC; one hour west it is still January
        ts = 1580516200
        assert month_key(ts) == "2020-02"
        assert month_key(ts, tz_offset_s=-3600) == "2020-01"
