"""The block parsers against the per-line parsers they replaced.

`parse_wifi_log` and `parse_bluetooth_log` read their lines
`PARSE_BLOCK_LINES` at a time, and decode a block of written lines (the
form `WifiScans.lines` and `BluetoothSightings.lines` give) in bulk. The
drawn logs mix written lines with lines that only look written and with
perturbed ones, and the block size is cut to 1-3 lines so that bulk and
per-line blocks interleave. The tables, unused strings included, the
skip counts and the first strict-mode error must be the oracle's
(`ingest_reference.parse_wifi_lines` and `parse_bluetooth_lines`).
"""

import gc
import json
import weakref
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ingest_reference as reference
from wifi_proximity import cli, fileio, ingest
from wifi_proximity.ingest import parse_bluetooth_log, parse_wifi_log
from wifi_proximity.records import RSSI_MIN, TS_END, MalformedRecordError

from conftest import mac, world_conf

# bad ids among good ones; "u\ud800" is written as an ASCII escape
USERS = ["u1", "u2", "ü4", "u3\x00", "a,b", "", "u\ud800"]
SSIDS = ["", "net", "café", 'q"uote', "back\\slash", "a},{b", "tab\t", "del\x7f", "\ud800"]
BSSIDS = [mac(1), mac(2), mac(3), mac(3).upper(), "AA:bb:CC:00:00:02", "not-a-mac"]
RSSIS = [-90, -60, 0, RSSI_MIN, RSSI_MIN - 1, 5]
TIMES = [0, 5, 1580515200, TS_END - 1, TS_END]
ODD_LINES = [
    "not json", "[1]", "", '{"user":"u1","ts":5,"aps":[{}]}',
    '{"user":"u1","ts":5,"aps":[{"bssid":"aa:bb:cc:00:00:01","ssid":"x","rssi":-1},{}]}',
    '{"user":"u1","ts":5,"aps":[{"bssid":"aa:bb:cc:00:00:01","ssid":"x\ny","rssi":-1}]}',
    '{"user":"u1","ts":5,"seen":[{"rssi":-1},{}]}',
    '{"user":"u1","ts":5,"seen":[{"peer":"u2","rssi":-1}]}\x0c',
]


def compact(doc) -> str:
    return json.dumps(doc, separators=(",", ":"))


def often(good, bad):
    """good seven times in eight, else bad (one_of would merge copies of
    good, and sampled_from keeps them)."""
    return st.sampled_from([True] * 7 + [False]).flatmap(lambda ok: good if ok else bad)


def perturbed(draw, doc: dict, key: str) -> str:
    """doc's compact text seven times in eight, else its text perturbed,
    where doc allows, in one of the ways a written line is not."""
    kind = draw(often(st.just("written"), st.sampled_from([
        "spaces", "unescaped", "reordered", "duplicate_key", "duplicate_entry_key",
        "minus_zero", "leading_zero_ts", "odd"])))
    text = compact(doc)
    if kind == "spaces":
        return json.dumps(doc)
    if kind == "unescaped":  # raw non-ASCII, and lone surrogates as from a bad byte
        return json.dumps(doc, separators=(",", ":"), ensure_ascii=False)
    if kind == "reordered":
        return compact({"ts": doc["ts"], key: doc[key], "user": doc["user"]})
    if kind == "duplicate_key":
        return '{"user":"zz",' + text[1:]
    if kind == "duplicate_entry_key":
        return text.replace('"rssi":', '"rssi":-1,"rssi":', 1)
    if kind == "minus_zero":
        return text.replace('"rssi":0', '"rssi":-0')
    if kind == "leading_zero_ts":
        return text.replace('"ts":', '"ts":0', 1)
    if kind == "odd":
        return draw(st.sampled_from(ODD_LINES))
    return text


def values(good, bad):
    return often(st.sampled_from(good), st.sampled_from(bad))


def entry(keys, *parts):
    """Dicts of keys, in that order, with values drawn from parts."""
    return st.tuples(*parts).map(lambda v: dict(zip(keys, v)))


users = values(USERS[:4], USERS[4:])
rssis = values(RSSIS[:4], RSSIS[4:])
times = values(TIMES[:4], TIMES[4:])
mac_ = st.just("ff:ee:dd:00:00:01")
ap = entry(("bssid", "ssid", "rssi"), values(BSSIDS[:3], BSSIDS[3:]),
           values(SSIDS[:5], SSIDS[5:]), rssis)
sighting = often(
    st.one_of(entry(("peer", "rssi"), users, rssis), entry(("rssi",), rssis)),
    st.one_of(entry(("mac", "rssi"), mac_, rssis),
              entry(("peer", "mac", "rssi"), users, mac_, rssis),
              entry(("peer", "rssi"), st.none(), rssis),
              entry(("rssi", "peer"), rssis, users)))


@st.composite
def wifi_line(draw) -> str:
    doc = {"user": draw(users), "ts": draw(times), "aps": draw(st.lists(ap, max_size=4))}
    return perturbed(draw, doc, "aps")


@st.composite
def bluetooth_line(draw) -> str:
    doc = {"user": draw(users), "ts": draw(times), "seen": draw(st.lists(sighting, max_size=4))}
    return perturbed(draw, doc, "seen")


def strict_error(parse, lines):
    """(message, line) of the strict parse's error, or None."""
    try:
        parse(lines, strict=True)
    except MalformedRecordError as exc:
        return str(exc), exc.line_no
    return None


def assert_tables_equal(got, want) -> None:
    for f in fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), f.name
        else:
            assert a == b, f.name


def assert_parses_as_oracle(parse, oracle, lines) -> None:
    got, want = parse(lines), oracle(lines)
    assert_tables_equal(got.records, want.records)
    assert got.skipped == want.skipped
    assert strict_error(parse, lines) == strict_error(oracle, lines)


PARSERS = {"wifi": (parse_wifi_log, reference.parse_wifi_lines, wifi_line),
           "bluetooth": (parse_bluetooth_log, reference.parse_bluetooth_lines, bluetooth_line)}


@pytest.mark.parametrize("log", PARSERS)
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_drawn_logs_parse_as_line_by_line(log, data):
    parse, oracle, line = PARSERS[log]
    lines = list(enumerate(data.draw(st.lists(line(), max_size=12)), start=2))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "PARSE_BLOCK_LINES", data.draw(st.integers(1, 3)))
        assert_parses_as_oracle(parse, oracle, lines)


class Spy:
    """Counts the blocks a bulk reader accepts and rejects."""

    def __init__(self, monkeypatch, reader):
        self.accepted = self.rejected = 0
        read = reader.read

        def spied(bulk, block):
            result = read(bulk, block)
            if result is None:
                self.rejected += 1
            else:
                self.accepted += 1
            return result
        monkeypatch.setattr(reader, "read", spied)


def test_written_logs_take_the_bulk_path(monkeypatch, tmp_path, tiny_world):
    """Every block of generate's logs is read in bulk, at every block size,
    and gives the oracle's tables."""
    conf = tmp_path / "world.conf"
    conf.write_text(world_conf(tiny_world))
    assert cli.main(["generate", "--dir", str(tmp_path), "--config", str(conf)]) == 0
    for name, reader, (parse, oracle, _) in (
            ("wifi.jsonl", ingest._Written, PARSERS["wifi"]),
            ("bluetooth.jsonl", ingest._Written, PARSERS["bluetooth"])):
        lines = list(fileio.iter_jsonl(tmp_path / name))
        for size in (1, 7, ingest.PARSE_BLOCK_LINES):
            spy = Spy(monkeypatch, reader)
            monkeypatch.setattr(ingest, "PARSE_BLOCK_LINES", size)
            assert_parses_as_oracle(parse, oracle, lines)
            # a lenient and a strict parse
            assert spy.rejected == 0 and spy.accepted == 2 * -(-len(lines) // size)
            monkeypatch.undo()


def wifi_doc(user, bssid, ssid, rssi=-60) -> dict:
    return {"user": user, "ts": 5, "aps": [{"bssid": bssid, "ssid": ssid, "rssi": rssi}]}


@pytest.mark.parametrize("size", [1, 2, 3, None])
def test_codes_follow_line_order_across_paths(monkeypatch, size):
    """Line 2 is not written, so its block is parsed line by line: its
    bssid, ssid and user come between those of lines 1 and 3, however
    the block boundaries fall. A bulk path that coded lines 1 and 3 before
    it gave up on the block would list X, Y, Z."""
    if size is not None:
        monkeypatch.setattr(ingest, "PARSE_BLOCK_LINES", size)
    x, y, z = mac(1), mac(2), mac(3)
    lines = list(enumerate([compact(wifi_doc("ux", x, "sx")),
                            json.dumps(wifi_doc("uz", z, "sz")),
                            compact(wifi_doc("uy", y, "sy"))], start=2))
    scans = parse_wifi_log(lines, strict=True).records
    assert scans.bssids == [x, z, y]
    assert scans.users == ["ux", "uz", "uy"]
    assert scans.ssids == ["sx", "sz", "sy"]
    assert_parses_as_oracle(parse_wifi_log, reference.parse_wifi_lines, lines)


@pytest.mark.parametrize("size", [1, 2, 3, None])
def test_bluetooth_codes_follow_line_order_across_paths(monkeypatch, size):
    """Users and peers share one table, coded in the order a line-by-line
    parse meets them: each line's user, then its peers."""
    if size is not None:
        monkeypatch.setattr(ingest, "PARSE_BLOCK_LINES", size)
    docs = [{"user": "a", "ts": 5, "seen": [{"peer": "b", "rssi": -1}, {"rssi": -2},
                                            {"peer": "a", "rssi": -3}]},
            {"user": "c", "ts": 6, "seen": [{"peer": "d", "rssi": -1}]},
            {"user": "e", "ts": 7, "seen": [{"peer": "f", "rssi": -1}, {"peer": "c", "rssi": 0}]}]
    lines = list(enumerate([compact(docs[0]), json.dumps(docs[1]), compact(docs[2])], start=2))
    sightings = parse_bluetooth_log(lines, strict=True).records
    assert sightings.users == ["a", "b", "c", "d", "e", "f"]
    assert sightings.peer.tolist() == [1, -1, 0, 3, 5, 2]
    assert_parses_as_oracle(parse_bluetooth_log, reference.parse_bluetooth_lines, lines)


def test_a_line_rejected_at_its_second_entry_keeps_its_first_bssid():
    """As line by line: the first entry's bssid and ssid are coded before
    the second entry is found bad, and stay in the tables unused."""
    doc = {"user": "u1", "ts": 5, "aps": [{"bssid": mac(7), "ssid": "first", "rssi": -1},
                                          {"bssid": mac(8), "ssid": "second", "rssi": 5}]}
    lines = [(2, compact(doc)), (3, compact(wifi_doc("u2", mac(1), "net")))]
    result = parse_wifi_log(lines)
    assert result.skipped == 1
    assert result.records.bssids == [mac(7), mac(8), mac(1)]
    assert result.records.ssids == ["first", "second", "net"]
    assert result.records.bssid.tolist() == [2] and result.records.users == ["u2"]
    assert_parses_as_oracle(parse_wifi_log, reference.parse_wifi_lines, lines)
    bt = {"user": "u1", "ts": 5, "seen": [{"peer": "p1", "rssi": -1}, {"peer": "p2", "rssi": 5}]}
    result = parse_bluetooth_log([(2, compact(bt))])
    assert result.skipped == 1 and result.records.users == ["u1", "p1"]


def ap_text(ssid='"x"', rssi="-1", bssid='"aa:bb:cc:00:00:01"') -> str:
    return '{"bssid":' + bssid + ',"ssid":' + ssid + ',"rssi":' + rssi + "}"


def line_text(*aps: str, user='"u1"', ts="5") -> str:
    return '{"user":' + user + ',"ts":' + ts + ',"aps":[' + ",".join(aps) + "]}"


LOOK_WRITTEN = {
    "raw_surrogate_ssid": line_text(ap_text(ssid='"\ud800"')),
    "raw_non_ascii_ssid": line_text(ap_text(ssid='"café"')),
    "raw_tab_ssid": line_text(ap_text(ssid='"a\tb"')),
    "raw_newline_ssid": line_text(ap_text(ssid='"a\nb"')),
    "brace_ssid": line_text(ap_text(ssid='"a},{b"')),
    "bad_escape_ssid": line_text(ap_text(ssid='"a\\x"')),
    "rssi_below_min": line_text(ap_text(rssi=str(RSSI_MIN - 1))),
    "rssi_minus_zero": line_text(ap_text(rssi="-0")),
    "upper_bssid": line_text(ap_text(bssid='"' + mac(1).upper() + '"')),
    "repeated_bssid": line_text(ap_text(), ap_text(rssi="-5")),
    "empty_second_entry": line_text(ap_text(), "{}"),
    "empty_entry": line_text("{}"),
    "extra_brackets": line_text() + "]}",
    "escaped_surrogate_user": line_text(user='"u\\ud800"'),
    "escaped_comma_user": line_text(user='"u\\u002c1"'),
    "ts_end": line_text(ts=str(TS_END)),
    "ts_13_digits": line_text(ts="1234567890123"),
}


@pytest.mark.parametrize("line", LOOK_WRITTEN.values(), ids=LOOK_WRITTEN)
def test_lines_that_look_written_parse_as_line_by_line(line):
    """Each line alone, after a written line in its block, and before one."""
    good = compact(wifi_doc("u2", mac(2), "net"))
    for lines in ([line], [good, line], [line, good]):
        assert_parses_as_oracle(parse_wifi_log, reference.parse_wifi_lines,
                                list(enumerate(lines, start=2)))


def seen_text(*seen: str, user='"u1"', ts="5") -> str:
    return '{"user":' + user + ',"ts":' + ts + ',"seen":[' + ",".join(seen) + "]}"


PEER = '{"peer":"u2","rssi":-1}'
LOOK_WRITTEN_BLUETOOTH = {
    "escaped_comma_peer": seen_text(PEER, '{"peer":"p\\u002c1","rssi":-1}'),
    "escaped_surrogate_peer": seen_text('{"peer":"p\\ud800","rssi":-1}'),
    "null_peer": seen_text('{"peer":null,"rssi":-1}'),
    "mac_entry": seen_text('{"mac":"ff:ee:dd:00:00:01","rssi":-1}'),
    "peer_and_mac": seen_text('{"peer":"u2","mac":"ff:ee:dd:00:00:01","rssi":-1}'),
    "empty_entry": seen_text("{}"),
    "empty_second_entry": seen_text(PEER, "{}"),
    "rssi_minus_zero": seen_text('{"rssi":-0}'),
    "rssi_below_min": seen_text(PEER, '{"rssi":' + str(RSSI_MIN - 1) + "}"),
    "ts_end": seen_text(PEER, ts=str(TS_END)),
    "ts_13_digits": seen_text(PEER, ts="1234567890123"),
    "extra_brackets": seen_text(PEER) + "]}",
}


@pytest.mark.parametrize("line", LOOK_WRITTEN_BLUETOOTH.values(), ids=LOOK_WRITTEN_BLUETOOTH)
def test_bluetooth_lines_that_look_written_parse_as_line_by_line(line):
    """Each line alone, after a written line in its block, and before one."""
    good = compact({"user": "u3", "ts": 5, "seen": [{"peer": "u4", "rssi": -60}, {"rssi": 0}]})
    for lines in ([line], [good, line], [line, good]):
        assert_parses_as_oracle(parse_bluetooth_log, reference.parse_bluetooth_lines,
                                list(enumerate(lines, start=2)))


@pytest.mark.parametrize("log", PARSERS)
def test_a_parse_frees_its_reader_without_the_cycle_collector(monkeypatch, log):
    """The bulk path's caches refer to the parser's string tables, never
    back to the reader, so reference counting alone frees the reader and
    its caches as soon as a parse returns."""
    parse = PARSERS[log][0]
    if log == "wifi":
        docs = [wifi_doc("u1", mac(1), "net"), wifi_doc("u2", mac(2), "café")]
    else:
        docs = [{"user": "u1", "ts": 5, "seen": [{"peer": "u2", "rssi": -1}, {"rssi": -2}]},
                {"user": "u2", "ts": 6, "seen": [{"peer": "u1", "rssi": -3}]}]
    # a written block, a block parsed line by line and a malformed line
    lines = list(enumerate([compact(doc) for doc in docs] + [json.dumps(docs[0]), "{}"], start=2))
    readers = []
    init = ingest._Written.__init__

    def tracked(reader, *args):
        init(reader, *args)
        readers.append(weakref.ref(reader))
    monkeypatch.setattr(ingest._Written, "__init__", tracked)
    monkeypatch.setattr(ingest, "PARSE_BLOCK_LINES", 2)
    enabled = gc.isenabled()
    gc.disable()
    try:
        for strict in (False, True):
            try:
                parse(lines, strict=strict)
            except MalformedRecordError:
                pass
            assert readers[-1]() is None, strict
    finally:
        if enabled:
            gc.enable()
    assert len(readers) == 2
