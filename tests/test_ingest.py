"""Log parsing, the ambiguous-router filter, and home-router detection."""

import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from ingest_reference import ambiguous_macs, collect_ssid_sets
from wifi_proximity import fileio, synthgen
from wifi_proximity.ingest import (
    BluetoothSightings,
    WifiScans,
    _rows,
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


def lines_at_block_sizes(table) -> list[str]:
    """table.lines(), the same whether the rows are built 1, 2, 7 or
    fileio.BLOCK_ROWS at a time."""
    got = []
    for rows in (1, 2, 7, fileio.BLOCK_ROWS):
        with mock.patch.object(fileio, "BLOCK_ROWS", rows):
            got.append(list(table.lines()))
    assert all(lines == got[-1] for lines in got)
    return got[-1]


class TestWifiLines:
    """WifiScans.lines against json.dumps, and back through the parser."""

    @staticmethod
    def table(users, bssids, ssids, rows):
        """A table of (user, ts, [(bssid, ssid, rssi), ...]) code rows."""
        entries = [entry for _, _, aps in rows for entry in aps]
        bssid, ssid, rssi = list(zip(*entries)) or [(), (), ()]
        return WifiScans(
            users, np.array([row[0] for row in rows], dtype=np.int32),
            np.array([row[1] for row in rows], dtype=np.int64),
            np.cumsum([0] + [len(row[2]) for row in rows], dtype=np.int64),
            bssids, np.array(bssid, dtype=np.int32), ssids, np.array(ssid, dtype=np.int32),
            np.array(rssi, dtype=np.int16))

    def check(self, users, bssids, ssids, rows):
        """lines gives the rows' compact json.dumps texts, which parse back
        to the table's scans."""
        table = self.table(users, bssids, ssids, rows)
        lines = lines_at_block_sizes(table)
        docs = [{"user": users[u], "ts": ts, "aps": [
            {"bssid": bssids[b], "ssid": ssids[s], "rssi": r} for b, s, r in aps]}
            for u, ts, aps in rows]
        assert lines == [json.dumps(doc, separators=(",", ":")) for doc in docs]
        parsed = parse_wifi_log(enumerate(lines, 2), strict=True).records
        assert records_of(parsed) == records_of(table)

    @pytest.mark.parametrize("users, ssids", [
        (["u1\x00", "u2\x00\x00"], ["", "\x00\x7f\t"]),
        (["ü", "用户\u2028"], ["ü,用户\n", "\u2028"]),
        (['q"\\', "\x7f\t"], ['q"\\', '\\"']),
    ])
    def test_ids_and_ssids_are_encoded_as_json_dumps_does(self, users, ssids):
        self.check(users, [mac(1), mac(2)], ssids, [
            (0, 0, [(0, 0, -5), (1, 1, -6)]), (1, TS_END - 1, [(1, 0, -7)])])

    def test_rssi_bounds_and_scans_with_no_ap(self):
        self.check(["a", "b"], [mac(1), mac(2)], ["", "net"], [
            (0, 500, []), (1, 500, [(0, 1, 0), (1, 0, RSSI_MIN)]), (0, 600, []),
            (0, 700, [(1, 1, RSSI_MIN)]), (1, 800, [])])

    def test_entries_repeat_within_and_across_blocks(self):
        """Rows straddle blocks of 2 and 7 rows, and the same entries recur
        in one block and in the next."""
        bssids, ssids = [mac(i) for i in range(4)], ["", "x", "y"]
        rows = [(i % 3, 1000 + 60 * i, [(b, b % 3, -40 - i % 2) for b in range(i % 5)])
                for i in range(17)]
        self.check(["a", "b", "c"], bssids, ssids, rows)

    @pytest.mark.parametrize("tables", [([], [], []), (["u1"], [mac(1)], ["net"])])
    def test_an_empty_table_has_no_lines(self, tables):
        self.check(*tables, [])

    def test_an_entry_key_wider_than_int64_is_refused(self):
        empty = np.empty(0, dtype=np.int32)
        fields = [(empty, 0, 2 ** 24), (empty, 0, 2 ** 24), (empty, RSSI_MIN, 1 - RSSI_MIN)]
        with pytest.raises(ValueError, match="int64 key"):
            next(_rows([], empty, empty, np.zeros(1, dtype=np.int64), "aps", fields, None))

    def test_the_town_is_encoded_in_less_memory_than_its_table(self, tmp_path):
        """After one pass, iterating lines() over the town's parsed scans
        traces a peak within the bytes of the table's six arrays: the
        encoder holds a block of rows, not a key per entry of the log."""
        paths = [tmp_path / name for name in ("w.jsonl", "b.jsonl", "t.jsonl")]
        synthgen.generate(synthgen.WorldConfig(days=1, seed=3), *paths)
        table = parse_wifi_log(fileio.iter_jsonl(paths[0]), strict=True).records
        table_bytes = sum(a.nbytes for a in (table.user, table.ts, table.offsets,
                                             table.bssid, table.ssid, table.rssi))
        for _ in table.lines():
            pass
        tracemalloc.start()
        try:
            for _ in table.lines():
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.0 * table_bytes, peak / table_bytes


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
        lines = lines_at_block_sizes(table)
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

    def test_sightings_repeat_within_and_across_blocks(self):
        """Lines straddle blocks of 2 and 7 lines, and the same sightings
        recur in one block and in the next."""
        rows = [(i % 2, p, 100 * (i // 2), -50 - i % 3) for i in range(15)
                for p in (-1, 1 - i % 2, 2)[:1 + i % 3]]
        users = ["a", "b", "c"]
        docs = [{"user": users[i % 2], "ts": 100 * (i // 2),
                 "seen": [{"rssi": -50 - i % 3} if p < 0 else
                          {"peer": users[p], "rssi": -50 - i % 3}
                          for p in (-1, 1 - i % 2, 2)[:1 + i % 3]]} for i in range(15)]
        self.check(self.table(users, rows), docs)

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
