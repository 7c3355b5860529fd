"""The columnar `clean` stage against the record-based path it replaced.

`ingest_reference.clean` writes the stage's four artifacts from
`WifiScanRecord` objects. The stage must write the same bytes from every
log, and under --strict-parse fail on the same line with the same message.
The drawn logs mix valid scans with malformed lines of every kind the
parser rejects, bssids that differ only in case, duplicate bssids within a
scan, empty scans, ids ending in NUL, month boundaries under a time-zone
offset and routers tied for home.
"""

import json
from pathlib import Path
from tempfile import TemporaryDirectory

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ingest_reference as reference
from wifi_proximity import cli, fileio
from wifi_proximity.config import load_config
from wifi_proximity.ingest import parse_wifi_log
from wifi_proximity.records import RSSI_MIN, TS_END, MalformedRecordError

from conftest import mac, world_conf

ARTIFACTS = ("cleaned.jsonl", "scans.npz", "cleaning_report.json", "home_routers.json")

FEB_2020 = 1580515200  # 2020-02-01T00:00:00Z
TZ_OFFSETS = [0, 3600, -3600, 19800, 86399, -86399]
USERS = ["u1", "u2", "u3\x00", "ü4"]
SSIDS = ["", "a", "b", "c", "net\x00", "café"]
# bssids that differ only in case, and one that appears only planted
BSSIDS = [mac(1), mac(2), mac(3).upper(), mac(3), "AA:bb:CC:00:00:02"]
PLANTED = mac(9)

BAD_USERS = ["", None, 3, "a,b", "a\nb", "u\ud800", ["u1"]]
BAD_TS = [None, 1.5, True, -1, TS_END, 2 ** 63, "5"]
BAD_APS = [
    {"ssid": "", "rssi": -1},                       # no bssid
    {"bssid": mac(1), "rssi": -1},                  # no ssid
    {"bssid": mac(1), "ssid": ""},                  # no rssi
    [1], "ap", 3, None,                             # not an object
    {"bssid": 3, "ssid": "", "rssi": -1},
    {"bssid": [mac(1)], "ssid": "", "rssi": -1},
    {"bssid": "not-a-mac", "ssid": "", "rssi": -1},
    {"bssid": "AA:BB:CC:00:00:0G", "ssid": "", "rssi": -1},
    {"bssid": mac(1), "ssid": 3, "rssi": -1},
    {"bssid": mac(1), "ssid": ["a"], "rssi": -1},
    {"bssid": mac(1), "ssid": "", "rssi": 1.5},
    {"bssid": mac(1), "ssid": "", "rssi": -60.0},
    {"bssid": mac(1), "ssid": "", "rssi": True},
    {"bssid": mac(1), "ssid": "", "rssi": "x"},
    {"bssid": mac(1), "ssid": "", "rssi": 5},
    {"bssid": mac(1), "ssid": "", "rssi": RSSI_MIN - 1},
    {"bssid": mac(1) + "\n", "ssid": "", "rssi": -1},
]

aps = st.lists(st.fixed_dictionaries({
    "bssid": st.sampled_from(BSSIDS),
    "ssid": st.sampled_from(SSIDS),
    "rssi": st.sampled_from([-90, -60, -60, -30, 0, RSSI_MIN]),
}), max_size=6)
timestamps = st.one_of(st.integers(FEB_2020 - 2 * 86400, FEB_2020 + 2 * 86400),
                       st.integers(0, 3 * 3600), st.just(TS_END - 1))


@st.composite
def log_line(draw) -> str:
    scan = {"user": draw(st.sampled_from(USERS)), "ts": draw(timestamps),
            "aps": draw(aps)}
    fault = draw(st.sampled_from(
        ["none"] * 6 + ["json", "array", "no_aps", "aps", "user", "ts", "ap"]))
    if fault == "json":
        return json.dumps(scan)[:-1]
    if fault == "array":
        return json.dumps([scan])
    if fault == "no_aps":
        del scan["aps"]
    elif fault == "aps":
        scan["aps"] = draw(st.sampled_from([3, "aps", None, {}]))
    elif fault == "user":
        scan["user"] = draw(st.sampled_from(BAD_USERS))
    elif fault == "ts":
        scan["ts"] = draw(st.sampled_from(BAD_TS))
    elif fault == "ap":
        at = draw(st.integers(0, len(scan["aps"])))
        scan["aps"].insert(at, draw(st.sampled_from(BAD_APS)))
    return json.dumps(scan)


@st.composite
def planted_lines(draw, threshold: int) -> list[str]:
    """PLANTED broadcasts threshold - 1 or threshold names, plus one more
    name that only a weaker duplicate in one scan carries, which the
    census must not count. Two routers tie for u2's home, and two may
    tie for ü4's, depending on where the bins' edges lie."""
    names = draw(st.sampled_from([threshold - 1, threshold]))
    lines = [json.dumps({"user": "u1", "ts": FEB_2020 + 700 * j,
                         "aps": [{"bssid": PLANTED, "ssid": f"p{j}", "rssi": -50}]})
             for j in range(names)]
    strong = {"bssid": PLANTED, "ssid": "p0", "rssi": draw(st.sampled_from([-50, -40]))}
    weak = {"bssid": PLANTED.upper(), "ssid": "extra", "rssi": -70}
    pair = [strong, weak] if draw(st.booleans()) else [weak, strong]
    lines.append(json.dumps({"user": "u1", "ts": FEB_2020 - 5, "aps": pair}))
    for j in range(2):
        lines.append(json.dumps({"user": "u2", "ts": FEB_2020 + 3600 * j, "aps": [
            {"bssid": mac(3), "ssid": "", "rssi": -80},
            {"bssid": mac(2).upper(), "ssid": "", "rssi": -80}]}))
    # bins align to UTC: mac(7)'s two scans straddle a bin edge there, and
    # fall in one bin where a zone's edges lie elsewhere
    for ts, router in ((7170, 7), (7230, 7), (5000, 6)):
        lines.append(json.dumps({"user": "ü4", "ts": FEB_2020 + ts, "aps": [
            {"bssid": mac(router), "ssid": "", "rssi": -70}]}))
    return lines


@st.composite
def clean_case(draw):
    threshold = draw(st.integers(2, 5))
    lines = draw(st.lists(log_line(), max_size=25))
    if draw(st.booleans()):
        lines = draw(st.permutations(lines + draw(planted_lines(threshold))))
    conf = (f"ambiguous_ssid_threshold = {threshold}\n"
            f"home_bin_minutes = {draw(st.sampled_from([1, 10, 60]))}\n"
            f"tz_offset_s = {draw(st.sampled_from(TZ_OFFSETS))}\n")
    return lines, conf


def write_log(d: Path, lines) -> None:
    header = json.dumps({"schema": fileio.SCHEMA_WIFI, "config_hash": "h"})
    (d / "wifi.jsonl").write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")


def strict_error(parse, lines) -> str | None:
    try:
        parse(lines, strict=True)
    except MalformedRecordError as exc:
        return str(exc)
    return None


def assert_clean_matches_reference(d: Path, conf: Path) -> None:
    """Run the stage and the reference in d over d/wifi.jsonl, in both modes."""
    cfg = load_config(conf)
    ref = d / "reference"
    ref.mkdir()
    base = ["clean", "--dir", str(d), "--config", str(conf)]
    assert cli.main(base) == 0
    reference.clean(d / "wifi.jsonl", ref, cfg)
    for name in ARTIFACTS:
        assert (d / name).read_bytes() == (ref / name).read_bytes(), name
    lines = list(fileio.iter_jsonl(d / "wifi.jsonl"))
    for line in lines:  # every malformed line, not only the first
        want = strict_error(reference.parse_wifi_log, [line])
        assert strict_error(parse_wifi_log, [line]) == want
    want = strict_error(reference.parse_wifi_log, lines)
    assert strict_error(parse_wifi_log, lines) == want
    assert cli.main(base + ["--strict-parse"]) == (cli.EXIT_DATA if want else cli.EXIT_OK)


@given(clean_case())
@settings(max_examples=300, deadline=None)
def test_drawn_logs_clean_as_the_reference_does(case):
    lines, conf_text = case
    with TemporaryDirectory() as tmp:
        d = Path(tmp)
        write_log(d, lines)
        (d / "world.conf").write_text(conf_text)
        assert_clean_matches_reference(d, d / "world.conf")


@pytest.mark.parametrize("line", [
    '{"user": "u1", "ts": ' + "9" * 5000 + ', "aps": []}',
    "[" * 100_000 + "]" * 100_000,
    '{"user": "u1", "ts": 5, "aps": [], "x": "\udcff"}',
], ids=["5000_digit_int", "deep_nesting", "not_utf8"])
def test_lines_json_loads_or_utf8_reject_fail_as_in_the_reference(line):
    """Lines that json.loads rejects without JSONDecodeError, and a line
    with a byte that is not UTF-8 (a lone surrogate, as iter_jsonl hands
    it over), are malformed with the reference's message."""
    want = strict_error(reference.parse_wifi_log, [(1, line)])
    assert want and strict_error(parse_wifi_log, [(1, line)]) == want


@pytest.mark.parametrize("extra", ["", "ambiguous_ssid_threshold = 2\ntz_offset_s = -3600\n"],
                         ids=["defaults", "threshold_2_tz_west"])
def test_tiny_world_cleans_as_the_reference_does(tmp_path, tiny_world, extra):
    conf = tmp_path / "world.conf"
    conf.write_text(world_conf(tiny_world) + extra)
    assert cli.main(["generate", "--dir", str(tmp_path), "--config", str(conf)]) == 0
    assert_clean_matches_reference(tmp_path, conf)
