"""Scan-log ingestion: parsing, ambiguous-router filtering, home detection.

Routers that broadcast five or more distinct network names over the whole
input are treated as ambiguous (several physical devices sharing a MAC)
and dropped from every scan. Each user gets at most one home router per
calendar month: the bssid that shows up in the largest number of time
bins of their scan history.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timezone

from .records import (
    TS_END,
    BluetoothSighting,
    MalformedRecordError,
    WifiScanRecord,
    check_id,
    validate_record,
)


@dataclass(frozen=True, slots=True)
class ParseResult:
    records: list
    skipped: int  # malformed lines dropped in lenient mode


@dataclass(frozen=True, slots=True)
class CleaningReport:
    ambiguous_macs: int
    removed_observations: int
    total_observations: int

    def as_dict(self) -> dict:
        return {
            "ambiguous_macs": self.ambiguous_macs,
            "removed_observations": self.removed_observations,
            "total_observations": self.total_observations,
        }


def parse_wifi_line(line: str, line_no: int | None = None) -> WifiScanRecord:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedRecordError(f"invalid JSON ({exc.msg})", line_no)
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


def parse_bluetooth_log(lines, strict: bool = False) -> ParseResult:
    """Parse Bluetooth JSONL lines; one sighting per seen device."""
    sightings, skipped = [], 0
    for line_no, line in lines:
        try:
            sightings.extend(_parse_bt_line(line, line_no))
        except MalformedRecordError:
            if strict:
                raise
            skipped += 1
    return ParseResult(sightings, skipped)


def _parse_bt_line(line: str, line_no: int | None) -> list[BluetoothSighting]:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedRecordError(f"invalid JSON ({exc.msg})", line_no)
    if not isinstance(obj, dict):
        raise MalformedRecordError("line is not a JSON object", line_no)
    user, ts, seen = obj.get("user"), obj.get("ts"), obj.get("seen")
    check_id(user, "user", line_no)
    if isinstance(ts, bool) or not isinstance(ts, int) or not 0 <= ts < TS_END:
        raise MalformedRecordError("missing or invalid ts", line_no)
    if not isinstance(seen, list):
        raise MalformedRecordError("missing seen list", line_no)
    out = []
    for entry in seen:
        if not isinstance(entry, dict):
            raise MalformedRecordError("seen entry is not an object", line_no)
        peer, mac, rssi = entry.get("peer"), entry.get("mac"), entry.get("rssi")
        if peer is not None and mac is not None:
            raise MalformedRecordError("both peer and mac set", line_no)
        if peer is not None:
            check_id(peer, "peer", line_no)
        if isinstance(rssi, bool) or not isinstance(rssi, int) or rssi > 0:
            raise MalformedRecordError("missing or positive rssi", line_no)
        out.append(BluetoothSighting(user=user, ts=ts, peer=peer, mac=mac, rssi=rssi))
    return out


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

def month_key(ts: int, tz_offset_s: int = 0) -> str:
    """Calendar month of a timestamp in the configured fixed-offset zone."""
    dt = datetime.fromtimestamp(ts + tz_offset_s, tz=timezone.utc)
    return f"{dt.year:04d}-{dt.month:02d}"


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

