"""The record-based ingest path that the columnar `clean` replaced, kept
as the reference it is compared with.

It parses each line into a `WifiScanRecord` of `ApObservation`s, filters
and finds homes on those objects, and builds the `ScanTable` from them.
`clean` below writes the four artifacts of the `clean` stage from this
path; the columnar stage must write the same bytes and raise the same
errors. The changes from the replaced code are the RSSI lower bound
(RSSI_MIN), which ingest now enforces because scans.npz stores RSSIs as
int16, and the lines that are malformed besides those `json.loads`
rejects with JSONDecodeError: a line that is not valid UTF-8, which
`fileio.iter_jsonl` hands over with lone surrogates, and the lines on
which `json.loads` raises a plain ValueError (an integer too long to
convert) or RecursionError (nesting too deep).

`parse_wifi_lines` and `parse_bluetooth_lines` are the columnar parsers
as they were before they read their lines in blocks.
"""

from __future__ import annotations

import json
import sys
from array import array
from dataclasses import asdict
from operator import attrgetter
from pathlib import Path

import numpy as np

from wifi_proximity import fileio
from wifi_proximity.ingest import (
    BluetoothSightings,
    CleaningReport,
    ParseResult,
    WifiScans,
    month_key,
)
from wifi_proximity.ingest import WifiScans as ScanTable
from wifi_proximity.records import (
    BSSID_RE,
    RSSI_MIN,
    TS_END,
    ApObservation,
    MalformedRecordError,
    WifiScanRecord,
    check_id,
)


def validate_record(user, ts, aps, line_no: int | None = None) -> WifiScanRecord:
    """Build a validated WifiScanRecord from raw parsed fields.

    Canonicalizes bssids to lowercase, collapses duplicate bssids keeping
    the strongest RSSI, and rejects records with a missing timestamp or
    out-of-schema fields, including a ts outside [0, TS_END) and user ids
    that contain a comma or a line break.

    Raises:
        MalformedRecordError: with line context when the record is invalid.
    """
    check_id(user, "user", line_no)
    if ts is None or isinstance(ts, bool) or not isinstance(ts, int):
        raise MalformedRecordError("missing or non-integer ts", line_no)
    if not 0 <= ts < TS_END:
        raise MalformedRecordError(f"ts {ts} outside [0, {TS_END})", line_no)

    best: dict[str, ApObservation] = {}
    for raw in aps:
        try:
            bssid, ssid, rssi = raw["bssid"], raw["ssid"], raw["rssi"]
        except (TypeError, KeyError) as exc:
            raise MalformedRecordError(f"ap entry missing field {exc}", line_no)
        if not isinstance(bssid, str):
            raise MalformedRecordError("bssid is not a string", line_no)
        bssid = sys.intern(bssid.lower())
        if not BSSID_RE.match(bssid):
            raise MalformedRecordError(f"bad bssid {bssid!r}", line_no)
        if not isinstance(ssid, str):
            raise MalformedRecordError("ssid is not a string", line_no)
        if isinstance(rssi, bool) or not isinstance(rssi, int):
            raise MalformedRecordError("rssi is not an integer", line_no)
        if rssi > 0:
            raise MalformedRecordError(f"positive rssi {rssi}", line_no)
        if rssi < RSSI_MIN:
            raise MalformedRecordError(f"rssi {rssi} below {RSSI_MIN}", line_no)
        prev = best.get(bssid)
        if prev is None or rssi > prev.rssi:
            best[bssid] = ApObservation(bssid, sys.intern(ssid), rssi)

    return WifiScanRecord(user=sys.intern(user), ts=ts, aps=tuple(best.values()))


def parse_wifi_line(line: str, line_no: int | None = None) -> WifiScanRecord:
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        raise MalformedRecordError("line is not valid UTF-8", line_no)
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedRecordError(f"invalid JSON ({exc.msg})", line_no)
    except (ValueError, RecursionError) as exc:
        raise MalformedRecordError(f"invalid JSON ({exc})", line_no)
    if not isinstance(obj, dict):
        raise MalformedRecordError("line is not a JSON object", line_no)
    aps = obj.get("aps")
    if not isinstance(aps, list):
        raise MalformedRecordError("missing aps list", line_no)
    return validate_record(obj.get("user"), obj.get("ts"), aps, line_no)


def parse_wifi_log(lines, strict: bool = False) -> ParseResult:
    """Parse WiFi JSONL lines into validated records.

    ``lines`` is an iterable of (line_no, text) pairs, e.g. from
    ``fileio.iter_jsonl``. Malformed lines are counted and skipped;
    in strict mode the first one aborts the parse.
    """
    records, skipped = [], 0
    for line_no, line in lines:
        try:
            records.append(parse_wifi_line(line, line_no))
        except MalformedRecordError:
            if strict:
                raise
            skipped += 1
    return ParseResult(records, skipped)


# ---------------------------------------------------------------------------
# The per-line columnar parsers
# ---------------------------------------------------------------------------
# `ingest.parse_wifi_log` and `parse_bluetooth_log` as they were before
# they read their lines in blocks, verbatim but for their names: every
# line is decoded and checked on its own. The block parsers must give
# the same tables, skip counts and strict-mode errors.

_scan_once = json.decoder.JSONDecoder().scan_once


def _load(line: str, line_no):
    """The JSON value of a log line. Malformed: bytes UTF-8 cannot decode (lone
    surrogates, see fileio.iter_jsonl), and all json.loads rejects, by
    JSONDecodeError, ValueError (too many digits) or RecursionError.

    An ASCII line is first decoded by the scanner behind json.loads, whose
    value is json.loads' when it spans the whole line; every other line,
    and every error, takes json.loads itself.
    """
    if line.isascii():
        try:
            obj, end = _scan_once(line, 0)
        except (StopIteration, ValueError, RecursionError):
            end = -1
        if end == len(line):
            return obj
    try:
        if not line.isascii():
            line.encode("utf-8")
        return json.loads(line)
    except UnicodeEncodeError:
        raise MalformedRecordError("line is not valid UTF-8", line_no)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise MalformedRecordError(f"invalid JSON ({getattr(exc, 'msg', exc)})", line_no)


def parse_wifi_lines(lines, strict: bool = False) -> ParseResult:
    """Parse WiFi JSONL lines into a WifiScans table.

    ``lines`` is an iterable of (line_no, text) pairs, e.g. from
    ``fileio.iter_jsonl``. A line is malformed unless it is a JSON object
    with a valid user id (see ``check_id``), an integer ts in [0, TS_END)
    and an aps list whose entries each hold a bssid of six colon-separated
    hex bytes in either case, a string ssid and an integer rssi in
    [RSSI_MIN, 0]. Malformed lines are counted and skipped; in strict
    mode the first one aborts the parse. Of the APs of one line that
    share a bssid, one entry is kept, at the first one's place: the
    strongest, the first of equals.
    """
    users: dict[str, int] = {}
    raw_bssids: dict[str, int] = {}  # raw string -> code of its lower-case form
    bssids: dict[str, int] = {}
    ssids: dict[str, int] = {}
    user, ts, counts = array("i"), array("q"), array("q")
    bssid, ssid, rssi = array("i"), array("i"), array("h")
    skipped = 0
    for line_no, line in lines:
        start = len(bssid)
        try:
            obj = _load(line, line_no)
            if type(obj) is not dict:
                raise MalformedRecordError("line is not a JSON object", line_no)
            aps = obj.get("aps")
            if type(aps) is not list:
                raise MalformedRecordError("missing aps list", line_no)
            name = obj.get("user")
            code = users.get(name) if type(name) is str else None
            if code is None:
                check_id(name, "user", line_no)
            t = obj.get("ts")
            if type(t) is not int:
                raise MalformedRecordError("missing or non-integer ts", line_no)
            if not 0 <= t < TS_END:
                raise MalformedRecordError(f"ts {t} outside [0, {TS_END})", line_no)
            for raw in aps:
                try:
                    b, s, r = raw["bssid"], raw["ssid"], raw["rssi"]
                except (TypeError, KeyError) as exc:
                    raise MalformedRecordError(f"ap entry missing field {exc}", line_no)
                bc = raw_bssids.get(b) if type(b) is str else None
                if bc is None:
                    bc = _bssid_code(b, raw_bssids, bssids, line_no)
                if type(s) is not str:
                    raise MalformedRecordError("ssid is not a string", line_no)
                sc = ssids.get(s)
                if sc is None:
                    sc = ssids[s] = len(ssids)
                if type(r) is not int or not RSSI_MIN <= r <= 0:
                    raise _bad_rssi(r, line_no)
                bssid.append(bc)
                ssid.append(sc)
                rssi.append(r)
            n = len(bssid) - start
            if n > 1 and len(set(bssid[start:])) < n:
                _keep_strongest(bssid, ssid, rssi, start)
        except MalformedRecordError:
            del bssid[start:], ssid[start:], rssi[start:]
            if strict:
                raise
            skipped += 1
            continue
        if code is None:
            code = users[name] = len(users)
        user.append(code)
        ts.append(t)
        counts.append(len(bssid) - start)
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(np.array(counts, dtype=np.int64), out=offsets[1:])
    scans = WifiScans(
        users=list(users), user=np.array(user, dtype=np.int32),
        ts=np.array(ts, dtype=np.int64), offsets=offsets,
        bssids=list(bssids), bssid=np.array(bssid, dtype=np.int32),
        ssids=list(ssids), ssid=np.array(ssid, dtype=np.int32),
        rssi=np.array(rssi, dtype=np.int16),
    )
    return ParseResult(scans, skipped)


def _bssid_code(raw, raw_bssids: dict, bssids: dict, line_no) -> int:
    """Check a raw bssid not seen before and return its code."""
    if not isinstance(raw, str):
        raise MalformedRecordError("bssid is not a string", line_no)
    bssid = raw.lower()
    if not BSSID_RE.match(bssid):
        raise MalformedRecordError(f"bad bssid {bssid!r}", line_no)
    code = raw_bssids[raw] = bssids.setdefault(bssid, len(bssids))
    return code


def _bad_rssi(rssi, line_no) -> MalformedRecordError:
    if isinstance(rssi, bool) or not isinstance(rssi, int):
        return MalformedRecordError("rssi is not an integer", line_no)
    if rssi > 0:
        return MalformedRecordError(f"positive rssi {rssi}", line_no)
    return MalformedRecordError(f"rssi {rssi} below {RSSI_MIN}", line_no)


def _keep_strongest(bssid: array, ssid: array, rssi: array, start: int) -> None:
    """Collapse the entries from start on to one per bssid, in place."""
    best: dict[int, tuple[int, int]] = {}
    for b, s, r in zip(bssid[start:], ssid[start:], rssi[start:]):
        kept = best.get(b)
        if kept is None or r > kept[1]:
            best[b] = (s, r)
    del bssid[start:], ssid[start:], rssi[start:]
    for b, (s, r) in best.items():
        bssid.append(b)
        ssid.append(s)
        rssi.append(r)


def parse_bluetooth_lines(lines, strict: bool = False) -> ParseResult:
    """Parse Bluetooth JSONL lines, taken as by parse_wifi_log, into a
    BluetoothSightings table. A line is malformed unless it is a JSON
    object with a valid user id, an integer ts in [0, TS_END) and a seen
    list of objects, each with an integer rssi in [RSSI_MIN, 0] and at
    most one of a valid peer id and a mac."""
    users: dict[str, int] = {}
    user, peer, ts, rssi = array("i"), array("i"), array("q"), array("h")
    skipped = 0
    for line_no, line in lines:
        start = len(ts)
        try:
            obj = _load(line, line_no)
            if type(obj) is not dict:
                raise MalformedRecordError("line is not a JSON object", line_no)
            name, t, seen = obj.get("user"), obj.get("ts"), obj.get("seen")
            check_id(name, "user", line_no)
            code = users.setdefault(name, len(users))
            if type(t) is not int or not 0 <= t < TS_END:
                raise MalformedRecordError("missing or invalid ts", line_no)
            if type(seen) is not list:
                raise MalformedRecordError("missing seen list", line_no)
            for entry in seen:
                if type(entry) is not dict:
                    raise MalformedRecordError("seen entry is not an object", line_no)
                p, r = entry.get("peer"), entry.get("rssi")
                if p is not None and entry.get("mac") is not None:
                    raise MalformedRecordError("both peer and mac set", line_no)
                if p is not None:
                    check_id(p, "peer", line_no)
                if type(r) is not int or not RSSI_MIN <= r <= 0:
                    raise MalformedRecordError("missing or out-of-range rssi", line_no)
                user.append(code)
                peer.append(-1 if p is None else users.setdefault(p, len(users)))
                ts.append(t)
                rssi.append(r)
        except MalformedRecordError:
            del user[start:], peer[start:], ts[start:], rssi[start:]
            if strict:
                raise
            skipped += 1
    return ParseResult(BluetoothSightings(
        list(users), np.array(user, dtype=np.int32), np.array(peer, dtype=np.int32),
        np.array(ts, dtype=np.int64), np.array(rssi, dtype=np.int16)), skipped)


# ---------------------------------------------------------------------------
# Ambiguous-router filter
# ---------------------------------------------------------------------------

def collect_ssid_sets(records) -> dict[str, set[str]]:
    """Global bssid -> set of distinct SSIDs seen anywhere in the input."""
    ssids: dict[str, set[str]] = {}
    for rec in records:
        for ap in rec.aps:
            ssids.setdefault(ap.bssid, set()).add(ap.ssid)
    return ssids


def ambiguous_macs(ssid_sets: dict[str, set[str]], max_ssids: int = 5) -> set[str]:
    if max_ssids < 1:
        raise ValueError("max_ssids must be >= 1")
    return {bssid for bssid, names in ssid_sets.items() if len(names) >= max_ssids}


def filter_ambiguous_macs(records, max_ssids: int = 5):
    """Drop every observation of a bssid seen with >= max_ssids SSIDs.

    The SSID census runs over the entire input, so the filter is a
    two-phase global pass. Returns (filtered records, CleaningReport).
    """
    bad = ambiguous_macs(collect_ssid_sets(records), max_ssids)
    total = sum(len(rec.aps) for rec in records)
    removed = 0
    out = []
    for rec in records:
        kept = tuple(ap for ap in rec.aps if ap.bssid not in bad)
        removed += len(rec.aps) - len(kept)
        out.append(rec if len(kept) == len(rec.aps)
                   else WifiScanRecord(rec.user, rec.ts, kept))
    report = CleaningReport(
        ambiguous_macs=len(bad),
        removed_observations=removed,
        total_observations=total,
    )
    return out, report


# ---------------------------------------------------------------------------
# Home-router detection
# ---------------------------------------------------------------------------

def detect_home_router(records, bin_minutes: int = 10) -> str | None:
    """Pick the router appearing in the most time bins of these records.

    Caller is expected to pass one user's records for one month. Bins are
    ``bin_minutes`` wide, aligned to the Unix epoch; a router counts once
    per bin regardless of how many observations fall inside. Ties break
    to the lexicographically smallest bssid; no observations -> None.
    """
    if bin_minutes <= 0:
        raise ValueError("bin_minutes must be > 0")
    bin_s = bin_minutes * 60
    bins: dict[str, set[int]] = {}
    for rec in records:
        b = rec.ts // bin_s
        for ap in rec.aps:
            bins.setdefault(ap.bssid, set()).add(b)
    if not bins:
        return None
    return min(bins, key=lambda bssid: (-len(bins[bssid]), bssid))


def build_home_router_map(records, bin_minutes: int = 10,
                          tz_offset_s: int = 0) -> dict[tuple[str, str], str]:
    """Home router per (user, calendar month), for all users in the input."""
    grouped: dict[tuple[str, str], list] = {}
    for rec in records:
        grouped.setdefault((rec.user, month_key(rec.ts, tz_offset_s)), []).append(rec)
    homes = {}
    for key, recs in grouped.items():
        home = detect_home_router(recs, bin_minutes)
        if home is not None:
            homes[key] = home
    return homes


# ---------------------------------------------------------------------------
# The scan table and the stage
# ---------------------------------------------------------------------------

def scan_table_from_records(records) -> ScanTable:
    """The ScanTable of these records (ScanTable.from_records, replaced)."""
    user_ids: dict[str, int] = {}
    bssid_ids: dict[str, int] = {}
    ssid_ids: dict[str, int] = {}
    by_bssid = attrgetter("bssid")
    aps = [ap for rec in records for ap in sorted(rec.aps, key=by_bssid)]
    first_seen = np.fromiter(
        (bssid_ids.setdefault(ap.bssid, len(bssid_ids)) for ap in aps),
        dtype=np.int32, count=len(aps))
    ssid = np.fromiter((ssid_ids.setdefault(ap.ssid, len(ssid_ids)) for ap in aps),
                       dtype=np.int32, count=len(aps))
    rssi = np.fromiter((ap.rssi for ap in aps), dtype=np.int16, count=len(aps))
    del aps
    bssids = sorted(bssid_ids)
    code = np.empty(len(bssids), dtype=np.int32)
    code[[bssid_ids[b] for b in bssids]] = np.arange(len(bssids))
    offsets = np.zeros(len(records) + 1, dtype=np.int64)
    np.cumsum(np.fromiter((len(rec.aps) for rec in records), dtype=np.int64,
                          count=len(records)), out=offsets[1:])
    user = np.fromiter((user_ids.setdefault(rec.user, len(user_ids)) for rec in records),
                       dtype=np.int32, count=len(records))
    return ScanTable(
        users=list(user_ids), user=user,
        ts=np.fromiter((rec.ts for rec in records), dtype=np.int64, count=len(records)),
        offsets=offsets, bssids=bssids, bssid=code[first_seen],
        ssids=list(ssid_ids), ssid=ssid, rssi=rssi,
    )


def clean(wifi_path, out_dir, cfg, strict: bool = False) -> None:
    """Write cleaned.jsonl, scans.npz, cleaning_report.json and
    home_routers.json into out_dir, as the replaced `clean` stage did.

    A malformed line under strict parsing raises MalformedRecordError
    before anything is written.
    """
    out_dir = Path(out_dir)
    h = cfg.data_hash()
    parsed = parse_wifi_log(fileio.iter_jsonl(wifi_path), strict)
    records, report = filter_ambiguous_macs(parsed.records, cfg.ambiguous_ssid_threshold)
    table = scan_table_from_records(records)
    homes = build_home_router_map(records, cfg.home_bin_minutes, cfg.tz_offset_s)
    rows = (json.dumps({"user": rec.user, "ts": rec.ts,
                        "aps": [{"bssid": ap.bssid, "ssid": ap.ssid, "rssi": ap.rssi}
                                for ap in rec.aps]}, separators=(",", ":"))
            for rec in records)
    n = fileio.write_jsonl(out_dir / "cleaned.jsonl", fileio.SCHEMA_WIFI, h, rows)
    table.save(out_dir / "scans.npz", h)
    fileio.write_json(out_dir / "cleaning_report.json", fileio.SCHEMA_CLEANING, h,
                      {**asdict(report), "skipped_lines": parsed.skipped, "records": n})
    fileio.write_json(out_dir / "home_routers.json", fileio.SCHEMA_HOMES, h, {
        "bin_minutes": cfg.home_bin_minutes,
        "homes": [{"user": user, "month": month, "bssid": bssid}
                  for (user, month), bssid in sorted(homes.items())],
    })
