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
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict
from operator import attrgetter
from pathlib import Path

import numpy as np

from wifi_proximity import fileio
from wifi_proximity.ingest import CleaningReport, ParseResult, month_key
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
