"""Record types of the per-pair feature reference and the tests, and the
id, bssid, RSSI and time checks that ingest applies; the stages keep
scans and candidates as arrays. All types are immutable after
construction, and the operations in this module are pure functions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

BSSID_RE = re.compile(r"[0-9a-f]{2}(:[0-9a-f]{2}){5}\Z")  # $ would match before "\n"
# ids are written unquoted into CSV artifacts
CSV_UNSAFE_RE = re.compile(r"[,\r\n]")

LABEL_POSITIVE = 1
LABEL_NEGATIVE = 0

DAY_S = 86400
# Timestamps lie in [0, TS_END): a day short of 10000-01-01T00:00:00Z
# (253402300800), where datetime's range ends, so that ts + tz_offset_s is
# a date for every offset the config accepts, and ts fits in an int64.
TS_END = 253402300800 - DAY_S
# RSSIs lie in [RSSI_MIN, 0] dBm: scans.npz stores them as int16
RSSI_MIN = -32768


class MalformedRecordError(ValueError):
    """A scan record that violates the schema, with line context when known."""

    def __init__(self, reason: str, line_no: int | None = None):
        self.reason = reason
        self.line_no = line_no
        where = f" (line {line_no})" if line_no is not None else ""
        super().__init__(f"malformed record{where}: {reason}")


@dataclass(frozen=True, slots=True)
class ApObservation:
    """One access point seen in a scan: identifier, broadcast name, signal."""

    bssid: str  # lowercase colon-separated hex, e.g. "aa:bb:cc:00:11:22"
    ssid: str   # may be empty
    rssi: int   # dBm, <= 0


@dataclass(frozen=True, slots=True)
class WifiScanRecord:
    """A single device's WiFi scan: who scanned, when, and what was seen.

    After validation, ``aps`` holds at most one observation per bssid
    (the strongest RSSI wins on duplicates).
    """

    user: str
    ts: int  # Unix seconds
    aps: tuple[ApObservation, ...]

    def bssids(self) -> frozenset[str]:
        return frozenset(ap.bssid for ap in self.aps)


@dataclass(frozen=True, slots=True)
class CandidatePair:
    """Two co-temporal scans from distinct users, to be tested for proximity.

    ``user_a < user_b`` lexicographically so a dyad has one identity.
    ``ts`` is the lower of the two scan timestamps. ``bt_rssi`` is present
    on positives only: the strongest supporting Bluetooth sighting.
    """

    user_a: str
    user_b: str
    scan_a: WifiScanRecord
    scan_b: WifiScanRecord
    ts: int
    label: int  # LABEL_POSITIVE / LABEL_NEGATIVE
    bt_rssi: int | None = None

    def __post_init__(self):
        if self.user_a >= self.user_b:
            raise ValueError(f"pair not canonical: {self.user_a!r} !< {self.user_b!r}")
        if self.label == LABEL_NEGATIVE and self.bt_rssi is not None:
            raise ValueError("negative pair must not carry bt_rssi")


@dataclass(frozen=True, slots=True)
class OverlapView:
    """The intersection of two scans' AP lists, with both sides' RSSIs.

    ``common`` holds one ``(bssid, rssi_a, rssi_b)`` triple per shared
    bssid; ``only_a``/``only_b`` count the APs exclusive to each side.
    """

    common: tuple[tuple[str, int, int], ...]
    only_a: int
    only_b: int

    size: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "size", len(self.common))


def check_id(value, what: str, line_no: int | None = None) -> None:
    """Reject a missing or empty id, one that would break a CSV row, or one
    that UTF-8 cannot encode (a lone surrogate)."""
    if not isinstance(value, str) or not value:
        raise MalformedRecordError(f"missing or empty {what}", line_no)
    if CSV_UNSAFE_RE.search(value):
        raise MalformedRecordError(f"{what} {value!r} contains a comma or newline",
                                   line_no)
    if not value.isascii():
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise MalformedRecordError(f"{what} {value!r} is not valid UTF-8", line_no)


def intersect(scan_a: WifiScanRecord, scan_b: WifiScanRecord) -> OverlapView:
    """Intersect two scans' AP sets, pairing up RSSIs of shared bssids.

    Symmetric up to swapping the rssi columns and the only_a/only_b
    counts. Common routers are ordered by bssid so float reductions over
    the view are exactly symmetric. Empty scans yield an empty
    intersection.
    """
    rssi_b = {ap.bssid: ap.rssi for ap in scan_b.aps}
    common = tuple(sorted(
        (ap.bssid, ap.rssi, rssi_b[ap.bssid])
        for ap in scan_a.aps
        if ap.bssid in rssi_b
    ))
    n_common = len(common)
    return OverlapView(
        common=common,
        only_a=len(scan_a.aps) - n_common,
        only_b=len(scan_b.aps) - n_common,
    )
