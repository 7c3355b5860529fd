"""Scan-log ingestion: parsing, ambiguous-router filtering, home detection.

``parse_wifi_log`` checks each WiFi log line and keeps the scans as
integer codes in flat typed buffers, a ``WifiScans`` table; it builds no
object per scan or per access point. Each distinct raw bssid string is
checked and lower-cased once. Both parsers share one block loop,
``_parse``, which reads PARSE_BLOCK_LINES lines at a time: a block of
lines in the form the ``lines()`` encoders write, each valid, is decoded
in bulk by one reader, ``_Written``, one check and decode per distinct
user token and entry text; any other block is parsed line by line, and
a rejected line's appends are undone. The bulk path gives the per-line
path's tables, skip counts and errors. Each parser keeps only its
tables, the code that takes a decoded block, its per-line checks and
its table assembly. The filter and the home detection count distinct
keys on those codes.
``WifiScans`` is the one scan table: ``by_bssid``, ``save`` and ``load``
give and check the bssid order of scans.npz, and ``common`` finds the
routers scan pairs share. ``parse_bluetooth_log`` keeps the sightings
the same way, as a ``BluetoothSightings`` table. Both tables' ``lines``
encode their log's rows, ``{"user":…,"ts":…,"<list>":[…]}``, with one
routine, ``_rows``. In both logs, a line that is not UTF-8, or that
``json.loads`` rejects, is malformed; ``fileio.iter_jsonl`` strips only
JSON's whitespace.

Routers that broadcast five or more distinct network names over the whole
input are treated as ambiguous (several physical devices sharing a MAC)
and dropped from every scan. Each user gets at most one home router per
calendar month: the bssid that shows up in the largest number of time
bins of their scan history.
"""

from __future__ import annotations

import json
import math
import re
from array import array
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from functools import partial
from itertools import islice, repeat
from operator import itemgetter

import numpy as np

from . import fileio
from .fileio import DataError
from .records import (
    BSSID_RE,
    DAY_S,
    RSSI_MIN,
    TS_END,
    MalformedRecordError,
    check_id,
)


@dataclass(frozen=True, slots=True)
class ParseResult:
    records: WifiScans | BluetoothSightings
    skipped: int  # malformed lines dropped in lenient mode


@dataclass(frozen=True, slots=True)
class CleaningReport:
    """What filter_ambiguous_macs removed: cleaning_report.json's first keys."""

    ambiguous_macs: int
    removed_observations: int
    total_observations: int


@dataclass(frozen=True, slots=True)
class WifiScans:
    """WiFi scans as codes: one row per scan, its APs in CSR layout.

    Row i's APs are entries ``offsets[i]:offsets[i + 1]``, one per bssid.
    Codes index the string tables. From parse_wifi_log, the APs keep the
    order in which the line first lists each bssid, and the tables hold
    users in order of first appearance and distinct lower-cased bssids
    and ssids in the order first read. synthgen's table uses the layout's
    router tables, in which an ssid may repeat. The bssid and ssid tables
    may hold strings that no entry uses. by_bssid gives the order of
    scans.npz, which ``pair`` and ``featurize`` load; candidates name
    their scans by its rows. The fields are scans.npz's form: see
    fileio.load_table.
    """

    users: list[str]
    user: np.ndarray = field(metadata={"dtype": np.int32, "group": "scans"})
    ts: np.ndarray = field(metadata={"dtype": np.int64, "group": "scans"})
    offsets: np.ndarray = field(metadata={"dtype": np.int64, "group": "scans", "extra": 1})
    bssids: list[str]
    bssid: np.ndarray = field(metadata={"dtype": np.int32, "group": "entries"})
    ssids: list[str]
    ssid: np.ndarray = field(metadata={"dtype": np.int32, "group": "entries"})
    rssi: np.ndarray = field(metadata={"dtype": np.int16, "group": "entries"})

    def __len__(self) -> int:
        return len(self.ts)

    def entry_rows(self) -> np.ndarray:
        """The row of every entry."""
        return np.repeat(np.arange(len(self.ts), dtype=np.int32), np.diff(self.offsets))

    def take(self, rows: np.ndarray) -> WifiScans:
        """The scans of rows, in that order, with the same string tables."""
        starts = self.offsets[rows]
        lengths = self.offsets[rows + 1] - starts
        _, entry = _ranges(starts, lengths)
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        return replace(self, user=self.user[rows], ts=self.ts[rows], offsets=offsets,
                       bssid=self.bssid[entry], ssid=self.ssid[entry], rssi=self.rssi[entry])

    def by_bssid(self) -> WifiScans:
        """The same scans in bssid order, as scans.npz holds them.

        ``bssids`` lists the bssids the entries use, sorted, and each
        row's entries are sorted by bssid. ``ssids`` lists the ssids the
        entries use, in order of first appearance in that entry order.
        """
        used = np.unique(self.bssid)
        by_name = sorted(used.tolist(), key=self.bssids.__getitem__)
        code = np.zeros(len(self.bssids), dtype=np.int32)
        code[by_name] = np.arange(len(by_name))
        bssid = code[self.bssid]
        order = np.lexsort((bssid, self.entry_rows()))
        bssid, ssid = bssid[order], self.ssid[order]
        ssid_used, first = np.unique(ssid, return_index=True)
        ssid_used = ssid_used[np.argsort(first)]
        ssid_code = np.zeros(len(self.ssids), dtype=np.int32)
        ssid_code[ssid_used] = np.arange(len(ssid_used))
        return replace(
            self, bssids=[self.bssids[c] for c in by_name], bssid=bssid,
            ssids=[self.ssids[c] for c in ssid_used.tolist()], ssid=ssid_code[ssid],
            rssi=self.rssi[order],
        )

    def save(self, path, cfg_hash: str) -> None:
        """Write the table as a scans.v1 archive stamped with cfg_hash."""
        fileio.save_table(path, fileio.SCHEMA_SCANS, cfg_hash, self)

    @classmethod
    def load(cls, path, expect_hash: str | None = None) -> WifiScans:
        """Read a table written by save, in bssid order.

        Raises DataError unless load_table accepts the archive and it
        holds a consistent table: bssids sorted; offsets rising from 0
        to the entry count; timestamps in [0, TS_END) and RSSIs of at
        most 0, as ingest accepts them; codes within their tables; and
        bssid codes rising strictly within each row, the order
        ``common`` needs.
        """
        _, table = fileio.load_table(cls, path, fileio.SCHEMA_SCANS, expect_hash)
        n_entries, offsets = len(table.bssid), table.offsets
        if table.bssids != sorted(table.bssids):
            raise DataError(f"{path}: bssids are not sorted")
        if offsets[0] != 0 or offsets[-1] != n_entries or (np.diff(offsets) < 0).any():
            raise DataError(f"{path}: offsets do not rise from 0 to {n_entries}")
        if ((table.ts < 0) | (table.ts >= TS_END)).any() or (table.rssi > 0).any():
            raise DataError(f"{path}: a ts lies outside [0, {TS_END}) or an RSSI above 0")
        for codes, names in ((table.user, table.users), (table.bssid, table.bssids),
                             (table.ssid, table.ssids)):
            if len(codes) and (codes.min() < 0 or codes.max() >= len(names)):
                raise DataError(f"{path}: a code lies outside its string table")
        if ((np.diff(table.bssid) <= 0) & (np.diff(table.entry_rows()) == 0)).any():
            raise DataError(f"{path}: a row's bssid codes do not rise strictly")
        return table

    def common(self, scan_a, scan_b):
        """The routers rows scan_a[i] and scan_b[i] share, for every i.

        Needs the bssid order of by_bssid. Returns (pair, entry_a,
        entry_b): one element per common router, grouped by pair in
        ascending order and in bssid order within a pair, the order in
        which ``intersect`` lists them.
        """
        offsets, n_bssid = self.offsets, max(len(self.bssids), 1)
        # both sides' (pair, bssid) keys are sorted, so one searchsorted
        # finds the common routers
        pa, ea = _ranges(offsets[scan_a], offsets[scan_a + 1] - offsets[scan_a])
        pb, eb = _ranges(offsets[scan_b], offsets[scan_b + 1] - offsets[scan_b])
        key_a = pa * n_bssid + self.bssid[ea]
        key_b = pb * n_bssid + self.bssid[eb]
        if len(key_b) == 0:
            return pa[:0], ea[:0], eb[:0]
        pos = np.minimum(np.searchsorted(key_b, key_a), len(key_b) - 1)
        hit = key_b[pos] == key_a
        return pa[hit], ea[hit], eb[pos[hit]]

    def lines(self):
        """Yield each scan as the JSON text of its cleaned.jsonl row (see
        _rows), with each distinct user, bssid and ssid encoded once."""
        users = [json.dumps(user) for user in self.users]
        bssids = [json.dumps(bssid) for bssid in self.bssids]
        ssids = [json.dumps(ssid) for ssid in self.ssids]
        return _rows(users, self.user, self.ts, self.offsets, "aps",
                     [(self.bssid, 0, len(bssids)), (self.ssid, 0, len(ssids)),
                      (self.rssi, RSSI_MIN, 1 - RSSI_MIN)],
                     lambda *values: [f'{{"bssid":{bssids[b]},"ssid":{ssids[s]},"rssi":{r}}}'
                                      for b, s, r in zip(*values)])


@dataclass(frozen=True, slots=True)
class BluetoothSightings:
    """Bluetooth sightings, one row per device seen, in log order. ``user``
    (who scanned) and ``peer`` (the participant seen, -1 for an outside
    device) index ``users``, which may hold ids of rejected lines."""

    users: list[str]
    user: np.ndarray  # per row, int32
    peer: np.ndarray  # per row, int32
    ts: np.ndarray    # per row, int64
    rssi: np.ndarray  # per row, int16

    def __len__(self) -> int:
        return len(self.ts)

    def lines(self):
        """Yield each run of rows with one (user, ts) as the JSON text of
        its bluetooth.jsonl line (see _rows), with each id encoded once. A
        peer of -1 is written without a peer, read back as -1."""
        users = [json.dumps(user) for user in self.users]
        # codes and times are >= 0, so the first row differs from -1 in both
        starts = np.flatnonzero(np.diff(self.user, prepend=-1) | np.diff(self.ts, prepend=-1))
        return _rows(users, self.user[starts], self.ts[starts],
                     np.append(starts, len(self)), "seen",
                     [(self.peer, -1, len(users) + 1), (self.rssi, RSSI_MIN, 1 - RSSI_MIN)],
                     lambda *values: [f'{{"peer":{users[p]},"rssi":{r}}}' if p >= 0
                                      else f'{{"rssi":{r}}}' for p, r in zip(*values)])


def _rows(users: list[str], user: np.ndarray, ts: np.ndarray, offsets: np.ndarray,
          name: str, fields: list[tuple], texts):
    """Yield each CSR row i as the text that compact ``json.dumps`` gives
    ``{"user":…,"ts":…,name:[…]}``: the JSON string ``users[user[i]]``,
    ``ts[i]`` and the texts of entries ``offsets[i]:offsets[i + 1]``.
    ``fields`` gives an entry's fields as (per-entry array, lowest value,
    number of values); ``texts`` maps one list of values per field to
    those entries' texts. Rows are built fileio.BLOCK_ROWS at a time, and
    each distinct entry of a block, found by one np.unique of its fields'
    mixed-radix int64 key, is formatted once."""
    if math.prod(size for _, _, size in fields) > 2 ** 63:
        raise ValueError(f"too many distinct {name} entries for an int64 key")
    for lo in range(0, len(ts), fileio.BLOCK_ROWS):
        hi = lo + fileio.BLOCK_ROWS
        bounds = offsets[lo:hi + 1]
        columns = [column[bounds[0]:bounds[-1]] for column, _, _ in fields]
        key = 0
        for column, (_, low, size) in zip(columns, fields):
            key = key * size + column.astype(np.int64) - low
        key, inverse = np.unique(key, return_inverse=True)
        first = np.empty(len(key), dtype=np.int64)  # an entry of each distinct key
        first[inverse] = np.arange(len(inverse))
        text = texts(*(column[first].tolist() for column in columns))
        text = np.array(text, dtype=object)[inverse].tolist()
        bounds = (bounds - bounds[0]).tolist()
        for u, t, a, b in zip(user[lo:hi].tolist(), ts[lo:hi].tolist(), bounds, bounds[1:]):
            yield f'{{"user":{users[u]},"ts":{t},"{name}":[{",".join(text[a:b])}]}}'


def _ranges(starts: np.ndarray, lengths: np.ndarray):
    """(owner, index) of every position in the ranges [start, start + length)."""
    owner = np.repeat(np.arange(len(starts)), lengths)
    first = np.cumsum(lengths) - lengths
    return owner, np.arange(len(owner)) - first[owner] + starts[owner]


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

PARSE_BLOCK_LINES = 256  # lines a parser reads, checks and codes at a time

# the written form: what WifiScans.lines and BluetoothSightings.lines give
_STRING = r'"[^"\\]*(?:\\.[^"\\]*)*"'  # a JSON string token; json.loads checks its escapes
_RSSI = r"0|-[1-9][0-9]{0,4}"
_WIFI_ENTRY = re.compile(
    rf'"bssid":"([0-9a-f]{{2}}(?::[0-9a-f]{{2}}){{5}})","ssid":({_STRING}),"rssi":({_RSSI})')
_BT_ENTRY = re.compile(rf'(?:"peer":({_STRING}),)?"rssi":({_RSSI})')


def _load(line: str, line_no):
    """The JSON value of a log line. Malformed: bytes UTF-8 cannot decode (lone
    surrogates, see fileio.iter_jsonl), and all json.loads rejects, by
    JSONDecodeError, ValueError (too many digits) or RecursionError."""
    try:
        if not line.isascii():
            line.encode("utf-8")
        return json.loads(line)
    except UnicodeEncodeError:
        raise MalformedRecordError("line is not valid UTF-8", line_no)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise MalformedRecordError(f"invalid JSON ({getattr(exc, 'msg', exc)})", line_no)


def _extend(out: array, values: np.ndarray) -> None:
    """Append values to out, cast to its type (a numpy dtype code too)."""
    out.frombytes(values.astype(out.typecode).tobytes())


def _json_string(token: str) -> str | None:
    """The string a JSON string token holds, None if json.loads rejects it."""
    if "\\" not in token and token.isprintable():
        return token[1:-1]  # no escape and no control character
    try:
        return json.loads(token)
    except ValueError:
        return None


def _checked_id(token: str, what: str) -> str | None:
    """The id a JSON string token holds, None if check_id rejects it."""
    name = _json_string(token)
    try:
        check_id(name, what)
    except MalformedRecordError:
        return None
    return name


class _Interned:
    """Distinct strings the bulk path has decoded, numbered in the order
    first decoded. ``codes`` holds each one's code in the parse's table,
    or -1 while no accepted line has used it."""

    def __init__(self):
        self.ids: dict[str, int] = {}
        self.values: list[str] = []
        self.codes = np.empty(0, dtype=np.int32)

    def id(self, value: str) -> int:
        i = self.ids.get(value)
        if i is None:
            i = self.ids[value] = len(self.values)
            self.values.append(value)
        return i

    def code(self, ids: np.ndarray, table: dict) -> np.ndarray:
        """The int32 codes of ids in table. A string new to table gets the
        next code there, in the order ids first hold it: the order in
        which the per-line path would meet it."""
        if len(self.codes) < len(self.values):  # grown to twice the need
            codes = np.full(2 * len(self.values), -1, dtype=np.int32)
            codes[:len(self.codes)] = self.codes
            self.codes = codes
        new = ids[self.codes[ids] < 0]
        if len(new):
            new, first = np.unique(new, return_index=True)
            for i in new[np.argsort(first)].tolist():
                self.codes[i] = table.setdefault(self.values[i], len(table))
        return self.codes[ids]


class _Decoded:
    """Distinct texts of one kind in written lines, each decoded and
    checked once by ``decode``: a tuple of ``width`` integers, or None
    where the per-line path would reject the line that holds the text.
    Rejections are cached too."""

    def __init__(self, decode, width: int):
        self.decode = decode
        self.row: dict[str, int] = {}  # text -> its row of fields, -1 if rejected
        self.fields = np.empty((0, width), dtype=np.int64)  # rows past n are room
        self.n = 0

    def __call__(self, texts) -> np.ndarray | None:
        """The fields of each text, a row per text; None if one is rejected."""
        try:
            rows = np.fromiter(map(self.row.__getitem__, texts), np.int64, len(texts))
        except KeyError:  # a text not seen before
            decoded = []
            for text in dict.fromkeys(texts):
                if text not in self.row:
                    fields = self.decode(text)
                    self.row[text] = -1 if fields is None else self.n + len(decoded)
                    if fields is not None:
                        decoded.append(fields)
            self._append(decoded)
            rows = np.fromiter(map(self.row.__getitem__, texts), np.int64, len(texts))
        if len(rows) and rows.min() < 0:
            return None
        return self.fields[rows]

    def _append(self, decoded: list) -> None:
        n, end = self.n, self.n + len(decoded)
        if end > len(self.fields):  # grown to twice the need
            fields = np.empty((2 * end, self.fields.shape[1]), dtype=np.int64)
            fields[:n] = self.fields[:n]
            self.fields = fields
        if decoded:
            self.fields[n:end] = decoded
        self.n = end


def _user_fields(names: _Interned, token: str):
    name = _checked_id(token, "user")
    return None if name is None else (names.id(name),)


def _ap_fields(bssids: _Interned, ssids: _Interned, text: str):
    """bssid id, ssid id, rssi. Written bssids are lower case."""
    match = _WIFI_ENTRY.fullmatch(text)
    if match is None:
        return None
    bssid, ssid, rssi = match.groups()
    ssid, rssi = _json_string(ssid), int(rssi)
    if ssid is None or rssi < RSSI_MIN:
        return None
    return bssids.id(bssid), ssids.id(ssid), rssi


def _sighting_fields(names: _Interned, text: str):
    """The peer's name id (-1 for an outside device), rssi."""
    match = _BT_ENTRY.fullmatch(text)
    if match is None:
        return None
    token, rssi = match.groups()
    rssi = int(rssi)
    if rssi < RSSI_MIN:
        return None
    if token is None:
        return -1, rssi
    peer = _checked_id(token, "peer")
    return None if peer is None else (names.id(peer), rssi)


class _Written:
    """The bulk path of a log parser, for blocks of written lines: the
    form ``lines()`` gives, with fields the per-line path accepts. It
    decodes each distinct user token, to an id in ``names``, and each
    distinct text of an entry of the ``key`` list, by ``entry`` to
    ``width`` integers, once. It assigns no code: the parser codes a
    block it accepts whole. The decoders get the parser's _Interned
    tables, never the reader, so no cache refers back to the reader and
    dropping the reader frees them all."""

    def __init__(self, key: str, names: _Interned, entry, width: int):
        # a written line: its user token, its ts (under 13 digits, so an
        # int64) and the text of its list between the brackets, "" or "{…}"
        self.head = re.compile(rf'\{{"user":({_STRING}),"ts":(0|[1-9][0-9]{{0,11}}),'
                               rf'"{key}":\[((?:\{{.*\}})?)\]\}}', re.DOTALL)
        self.users = _Decoded(partial(_user_fields, names), 1)
        self.entries = _Decoded(entry, width)

    def read(self, block):
        """(user name ids, ts, entry counts, entry fields) of the lines of
        block, or None unless every line is written and accepted."""
        if self.head.fullmatch(block[0][1]) is None:
            return None  # a log of another form pays one match per block
        texts = list(map(itemgetter(1), block))
        # written text is ASCII; other text may hold a lone surrogate
        if not all(map(str.isascii, texts)):
            return None
        heads = list(map(self.head.fullmatch, texts))
        if None in heads:
            return None
        tokens, times, lists = zip(*map(re.Match.groups, heads))
        users = self.users(tokens)
        if users is None:
            return None
        ts = np.array(list(map(int, times)), dtype=np.int64)
        if ts.max() >= TS_END:
            return None
        n = len(lists)
        counts = (np.fromiter(map(str.count, lists, repeat("},{")), np.int64, n)
                  + (np.fromiter(map(len, lists), np.int64, n) > 0))
        # joined with ",", the "{…}" lists hold "},{" between them and
        # nowhere else new, as "," lies only in the middle of a "},{"
        joined = ",".join(filter(None, lists))
        entries = self.entries(joined[1:-1].split("},{") if joined else [])
        if entries is None:
            return None
        return users[:, 0], ts, counts, entries


def _parse(lines, strict: bool, written: _Written, bulk, line, columns) -> int:
    """Read lines, (line_no, text) pairs, PARSE_BLOCK_LINES at a time, and
    return the count of malformed lines skipped. A block that
    ``written.read`` accepts goes to ``bulk(names, ts, counts, entries)``,
    which codes it and returns True, or declines it. Any other block goes
    line by line: each line's JSON object goes to ``line(obj, line_no)``.
    A line that raises MalformedRecordError leaves its columns, the
    parser's typed arrays, as they were before it; in strict mode the
    error aborts the parse."""
    skipped = 0
    lines = iter(lines)
    while block := list(islice(lines, PARSE_BLOCK_LINES)):
        read = written.read(block)
        if read is not None and bulk(*read):
            continue
        for line_no, text in block:
            ends = list(map(len, columns))
            try:
                obj = _load(text, line_no)
                if type(obj) is not dict:
                    raise MalformedRecordError("line is not a JSON object", line_no)
                line(obj, line_no)
            except MalformedRecordError:
                for column, end in zip(columns, ends):
                    del column[end:]
                if strict:
                    raise
                skipped += 1
    return skipped


def parse_wifi_log(lines, strict: bool = False) -> ParseResult:
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

    The lines are read by ``_parse``, PARSE_BLOCK_LINES at a time. A
    block whose every line is valid and in the form WifiScans.lines
    writes takes the bulk path: one regex match per line, one split for
    all entry texts, one check and decode per distinct user token and
    entry text, and numpy for the codes. The bulk path declines a block
    in which a line repeats a bssid. Any other block is parsed line by
    line. Codes are assigned only to a whole accepted block, in line
    order, so either path gives the same table, skip count and first
    strict error.
    """
    users: dict[str, int] = {}
    raw_bssids: dict[str, int] = {}  # raw string -> code of its lower-case form
    bssids: dict[str, int] = {}
    ssids: dict[str, int] = {}
    user, ts, counts = array("i"), array("q"), array("q")
    bssid, ssid, rssi = array("i"), array("i"), array("h")
    names, bssid_ids, ssid_ids = _Interned(), _Interned(), _Interned()

    def bulk(name_ids, times, n_aps, aps):
        if len(aps) > 1:  # the per-line path keeps a repeated bssid's strongest entry
            rows = np.repeat(np.arange(len(n_aps)), n_aps)
            line_bssid = np.sort(rows * len(bssid_ids.values) + aps[:, 0])
            if (line_bssid[1:] == line_bssid[:-1]).any():
                return False
        _extend(user, names.code(name_ids, users))
        _extend(ts, times)
        _extend(counts, n_aps)
        _extend(bssid, bssid_ids.code(aps[:, 0], bssids))
        _extend(ssid, ssid_ids.code(aps[:, 1], ssids))
        _extend(rssi, aps[:, 2])
        return True

    def line(obj, line_no):
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
        start = len(bssid)
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
        if code is None:
            code = users[name] = len(users)
        user.append(code)
        ts.append(t)
        counts.append(len(bssid) - start)

    skipped = _parse(
        lines, strict, _Written("aps", names, partial(_ap_fields, bssid_ids, ssid_ids), 3),
        bulk, line, (user, ts, counts, bssid, ssid, rssi))
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


def parse_bluetooth_log(lines, strict: bool = False) -> ParseResult:
    """Parse Bluetooth JSONL lines, taken as by parse_wifi_log, into a
    BluetoothSightings table. A line is malformed unless it is a JSON
    object with a valid user id, an integer ts in [0, TS_END) and a seen
    list of objects, each with an integer rssi in [RSSI_MIN, 0] and at
    most one of a valid peer id and a mac.

    The lines are read by ``_parse``, as in parse_wifi_log. Blocks of
    lines in the form BluetoothSightings.lines writes take the bulk path,
    with one decode per distinct ``{"peer":…,"rssi":…}`` or
    ``{"rssi":…}`` entry text. Each accepted line's user takes its code
    before the line's peers, as line by line.
    """
    users: dict[str, int] = {}
    user, peer, ts, rssi = array("i"), array("i"), array("q"), array("h")
    names = _Interned()

    def bulk(name_ids, times, n_seen, seen):
        rows = np.repeat(np.arange(len(name_ids)), n_seen)
        # name ids in the order the per-line path meets them: each line's
        # user, then the line's peers
        met = np.empty(len(name_ids) + len(seen), dtype=np.int64)
        met[np.arange(len(name_ids)) + np.cumsum(n_seen) - n_seen] = name_ids
        met[np.arange(len(seen)) + rows + 1] = seen[:, 0]
        names.code(met[met >= 0], users)
        codes = names.codes
        _extend(user, codes[name_ids][rows])
        _extend(peer, np.where(seen[:, 0] >= 0, codes[seen[:, 0]], -1))
        _extend(ts, times[rows])
        _extend(rssi, seen[:, 1])
        return True

    def line(obj, line_no):
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

    skipped = _parse(lines, strict, _Written("seen", names, partial(_sighting_fields, names), 2),
                     bulk, line, (user, peer, ts, rssi))
    return ParseResult(BluetoothSightings(
        list(users), np.array(user, dtype=np.int32), np.array(peer, dtype=np.int32),
        np.array(ts, dtype=np.int64), np.array(rssi, dtype=np.int16)), skipped)

# ---------------------------------------------------------------------------
# Ambiguous-router filter
# ---------------------------------------------------------------------------

def filter_ambiguous_macs(scans: WifiScans, max_ssids: int = 5):
    """Drop every entry of a bssid seen with >= max_ssids distinct SSIDs.

    The SSID census counts distinct (bssid, ssid) pairs over every entry
    of the input, so it sees only the observations that survived
    deduplication. Scans are never dropped, only entries. Returns
    (filtered WifiScans, CleaningReport).
    """
    if max_ssids < 1:
        raise ValueError("max_ssids must be >= 1")
    n_ssids = max(len(scans.ssids), 1)
    pairs = np.unique(scans.bssid.astype(np.int64) * n_ssids + scans.ssid)
    names = np.bincount(pairs // n_ssids, minlength=len(scans.bssids))
    bad = names >= max_ssids
    drop = bad[scans.bssid]
    removed = int(drop.sum())
    report = CleaningReport(
        ambiguous_macs=int(bad.sum()),
        removed_observations=removed,
        total_observations=len(scans.bssid),
    )
    if not removed:
        return scans, report
    dropped = np.zeros(len(scans.offsets), dtype=np.int64)
    np.cumsum(np.bincount(scans.entry_rows()[drop], minlength=len(scans)),
              out=dropped[1:])
    keep = ~drop
    return replace(scans, offsets=scans.offsets - dropped, bssid=scans.bssid[keep],
                   ssid=scans.ssid[keep], rssi=scans.rssi[keep]), report


# ---------------------------------------------------------------------------
# Home-router detection
# ---------------------------------------------------------------------------

def month_key(ts: int, tz_offset_s: int = 0) -> str:
    """Calendar month of a timestamp in the configured fixed-offset zone."""
    dt = datetime.fromtimestamp(ts + tz_offset_s, tz=timezone.utc)
    return f"{dt.year:04d}-{dt.month:02d}"


def month_codes(ts: np.ndarray, tz_offset_s: int = 0) -> tuple[list[str], np.ndarray]:
    """The distinct month_keys of timestamps, ascending, and each one's
    index into them; month_key runs once per distinct local day."""
    days, day_of = np.unique((ts + tz_offset_s) // DAY_S, return_inverse=True)
    day_months = [month_key(day * DAY_S) for day in days.tolist()]
    months = list(dict.fromkeys(day_months))  # days ascend, so months do
    month_ids = {month: i for i, month in enumerate(months)}
    return months, np.array([month_ids[m] for m in day_months], dtype=np.int64)[day_of]


def build_home_router_map(scans: WifiScans, bin_minutes: int = 10,
                          tz_offset_s: int = 0) -> dict[tuple[str, str], str]:
    """Home router per (user, calendar month), for all users in the input.

    The home of a user's month is the router seen in the most time bins
    of the user's scans that month. Bins are ``bin_minutes`` wide,
    aligned to the Unix epoch; a router counts once per bin however many
    observations fall inside. Ties break to the lexicographically
    smallest bssid. Months are taken at ``tz_offset_s``; a month without
    observations has no home.
    """
    if bin_minutes <= 0:
        raise ValueError("bin_minutes must be > 0")
    rows = scans.entry_rows()
    months, month = month_codes(scans.ts, tz_offset_s)
    # (user, month) codes, compacted so that code * n_bssids fits an int64
    n_months = max(len(months), 1)
    user_months, user_month_of = np.unique(
        scans.user.astype(np.int64) * n_months + month, return_inverse=True)
    by_name = sorted(range(len(scans.bssids)), key=scans.bssids.__getitem__)
    rank = np.empty(len(by_name), dtype=np.int64)
    rank[by_name] = np.arange(len(by_name))
    n_bssids = max(len(by_name), 1)
    # each per-entry array is dropped once used: together they set
    # clean's peak memory
    bins = (scans.ts // (bin_minutes * 60))[rows]
    group = user_month_of[rows]
    del rows
    group *= n_bssids
    group += rank[scans.bssid]
    order = np.lexsort((bins, group))
    bins = bins[order]
    group = group[order]
    del order
    distinct = np.ones(len(group), dtype=bool)
    distinct[1:] = (group[1:] != group[:-1]) | (bins[1:] != bins[:-1])
    del bins
    groups, n_bins = np.unique(group[distinct], return_counts=True)
    del group, distinct
    user_month, router = groups // n_bssids, groups % n_bssids
    # per (user, month): most bins first, then the smallest bssid
    best = np.lexsort((router, -n_bins, user_month))
    first = np.ones(len(best), dtype=bool)
    first[1:] = user_month[best][1:] != user_month[best][:-1]
    homes = {}
    for um, r in zip(user_month[best][first].tolist(), router[best][first].tolist()):
        key = int(user_months[um])
        homes[scans.users[key // n_months], months[key % n_months]] = \
            scans.bssids[by_name[r]]
    return homes
