"""Headers, hashing, and round trips for the pipeline's file formats."""

import json
import math

import numpy as np
import pytest

from wifi_proximity import fileio
from wifi_proximity.fileio import DataError
from wifi_proximity.ingest import parse_bluetooth_log, parse_wifi_log
from wifi_proximity.records import MalformedRecordError


class TestConfigHash:
    def test_deterministic_and_order_insensitive(self):
        a = fileio.config_hash({"x": 1, "y": "z"})
        b = fileio.config_hash({"y": "z", "x": 1})
        assert a == b and len(a) == 12

    def test_value_changes_hash(self):
        assert fileio.config_hash({"x": 1}) != fileio.config_hash({"x": 2})


class TestJsonl:
    def test_roundtrip_with_header(self, tmp_path):
        p = tmp_path / "rows.jsonl"
        rows = [json.dumps(row, separators=(",", ":")) for row in ({"a": 1}, {"a": 2})]
        n = fileio.write_jsonl(p, fileio.SCHEMA_WIFI, "h" * 12, iter(rows))
        assert n == 2
        header = fileio.read_jsonl_header(p, fileio.SCHEMA_WIFI, "h" * 12)
        assert header["schema"] == fileio.SCHEMA_WIFI
        lines = list(fileio.iter_jsonl(p))
        assert [ln for _, ln in lines] == ['{"a":1}', '{"a":2}']
        assert [no for no, _ in lines] == [2, 3]  # 1-based, header skipped

    def test_schema_mismatch_raises(self, tmp_path):
        p = tmp_path / "rows.jsonl"
        fileio.write_jsonl(p, fileio.SCHEMA_WIFI, "h", [])
        with pytest.raises(DataError, match="schema"):
            fileio.read_jsonl_header(p, fileio.SCHEMA_BLUETOOTH)

    def test_hash_mismatch_raises(self, tmp_path):
        p = tmp_path / "rows.jsonl"
        fileio.write_jsonl(p, fileio.SCHEMA_WIFI, "aaa", [])
        with pytest.raises(DataError, match="hash"):
            fileio.read_jsonl_header(p, fileio.SCHEMA_WIFI, "bbb")

    def test_missing_file_raises_dataerror(self, tmp_path):
        with pytest.raises(DataError, match="missing input file"):
            fileio.read_jsonl_header(tmp_path / "nope.jsonl", fileio.SCHEMA_WIFI)

    @pytest.mark.parametrize("log", ["wifi", "bluetooth"])
    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1f", "\x85", "\xa0", "\u2028"],
                             ids=["vt", "ff", "us", "nel", "nbsp", "line_sep"])
    def test_a_line_ending_in_other_whitespace_is_malformed(self, tmp_path, log, char):
        """str.strip() would remove these characters, json.loads rejects them."""
        parse, line = self.logs[log]
        p = tmp_path / "log.jsonl"
        p.write_text(self.header + line + char + "\n" + line + "\n", encoding="utf-8")
        assert [text for _, text in fileio.iter_jsonl(p)] == [line + char, line]
        assert parse(fileio.iter_jsonl(p)).skipped == 1
        with pytest.raises(MalformedRecordError, match=r"line 2\).*invalid JSON"):
            parse(fileio.iter_jsonl(p), strict=True)

    @pytest.mark.parametrize("log", ["wifi", "bluetooth"])
    def test_json_whitespace_around_a_line_is_stripped(self, tmp_path, log):
        parse, line = self.logs[log]
        p = tmp_path / "log.jsonl"
        p.write_bytes((self.header + f" {line}\t\r\n\t{line} \r\n \t\r\n{line}\n").encode())
        assert [text for _, text in fileio.iter_jsonl(p)] == [line] * 3
        result = parse(fileio.iter_jsonl(p), strict=True)
        assert len(result.records) == 3 and result.skipped == 0

    header = json.dumps({"schema": "s", "config_hash": "h"}) + "\n"
    logs = {"wifi": (parse_wifi_log, '{"user":"u1","ts":5,"aps":[]}'),
            "bluetooth": (parse_bluetooth_log,
                          '{"user":"u1","ts":5,"seen":[{"peer":"u2","rssi":-1}]}')}

    def test_headerless_file_raises(self, tmp_path):
        p = tmp_path / "rows.jsonl"
        p.write_text('{"a": 1}\n')
        with pytest.raises(DataError, match="header"):
            fileio.read_jsonl_header(p, fileio.SCHEMA_WIFI)


class TestCsv:
    def test_roundtrip_and_missing_cells(self, tmp_path):
        p = tmp_path / "t.csv"
        columns = [np.array(["u1", "u2", "u3"], dtype=object), np.array([1, 2, 3]),
                   np.array([0.5, np.nan, -0.0])]
        n = fileio.write_csv(p, fileio.SCHEMA_FEATURES, "h", ["user", "n", "v"],
                             fileio.column_blocks(columns))
        meta, names, out = fileio.read_csv(p, fileio.SCHEMA_FEATURES, "h")
        assert n == 3
        assert meta["schema"] == fileio.SCHEMA_FEATURES
        assert names == ["user", "n", "v"]
        assert out == [["u1", "1", "0.5"], ["u2", "2", ""], ["u3", "3", "-0.0"]]

    def test_float_cells_roundtrip_exactly(self, tmp_path):
        p = tmp_path / "t.csv"
        val = 0.1 + 0.2  # not representable prettily; repr must round-trip
        fileio.write_csv(p, fileio.SCHEMA_FEATURES, "h", ["v"],
                         fileio.column_blocks([np.array([val])]))
        _, _, rows = fileio.read_csv(p, fileio.SCHEMA_FEATURES)
        assert float(rows[0][0]) == val

    def test_block_size_does_not_change_the_bytes(self, tmp_path):
        rng = np.random.default_rng(3)
        x = rng.normal(size=1000)
        x[rng.random(1000) < 0.3] = np.nan
        columns = [np.array([f"u{i}\x00" for i in range(1000)], dtype=object),
                   np.arange(1000) * 10 ** 9, x, x * 1e300]
        blobs = set()
        for size in (1, 7, 999, 1000, fileio.BLOCK_ROWS):
            p = tmp_path / f"{size}.csv"
            n = fileio.write_csv(p, fileio.SCHEMA_FEATURES, "h", ["u", "t", "x", "y"],
                                 fileio.column_blocks(columns, size))
            assert n == 1000
            blobs.add(p.read_bytes())
        assert len(blobs) == 1
        lines = blobs.pop().decode().splitlines()
        for i in (0, 1, 500, 999):
            want = [f"u{i}\x00", str(i * 10 ** 9)] + [
                "" if np.isnan(v) else repr(float(v)) for v in (x[i], x[i] * 1e300)]
            assert lines[2 + i].split(",") == want

    def test_cells_formats_each_distinct_value_as_every_cell_did(self):
        rng = np.random.default_rng(5)
        other_nan = np.array([0x7FF8000000000001]).view(np.float64)[0]
        pool = np.array([0.0, -0.0, np.nan, other_nan, np.inf, -np.inf, 0.1 + 0.2,
                         1e-300, -1.5, 5e-324])
        floats = pool[rng.integers(0, len(pool), 500)]
        ints = rng.integers(-3, 4, 500)
        ids = np.array(["", "u1", "u1\x00", "u\u00e9"], dtype=object)[
            rng.integers(0, 4, 500)]
        assert fileio._cells(floats) == [
            "" if math.isnan(v) else repr(v) for v in floats.tolist()]
        assert fileio._cells(ints) == [str(v) for v in ints.tolist()]
        assert fileio._cells(ids) == ids.tolist()
        assert fileio._cells(floats[:0]) == []

    def test_zero_rows_write_the_header_only(self, tmp_path):
        p = tmp_path / "t.csv"
        n = fileio.write_csv(p, fileio.SCHEMA_FEATURES, "h", ["a", "b"],
                             fileio.column_blocks([np.array([]), np.array([])]))
        assert n == 0
        assert p.read_text() == f"# schema={fileio.SCHEMA_FEATURES} config_hash=h\na,b\n"

    def test_schema_mismatch_raises(self, tmp_path):
        p = tmp_path / "t.csv"
        fileio.write_csv(p, fileio.SCHEMA_FEATURES, "h", ["v"], [])
        with pytest.raises(DataError):
            fileio.read_csv(p, fileio.SCHEMA_CANDIDATES)


class TestJson:
    def test_roundtrip(self, tmp_path):
        p = tmp_path / "d.json"
        payload = {"a": [1, 2], "b": {"c": 0.25}}
        fileio.write_json(p, fileio.SCHEMA_EVAL, "h", payload)
        out = fileio.read_json(p, fileio.SCHEMA_EVAL, "h")
        assert {k: out[k] for k in payload} == payload
        assert out["schema"] == fileio.SCHEMA_EVAL and out["config_hash"] == "h"

    def test_non_finite_floats_survive(self, tmp_path):
        p = tmp_path / "d.json"
        payload = {"pos": float("inf"), "neg": float("-inf"),
                   "nan": float("nan"), "nested": [float("inf"), 1.0]}
        fileio.write_json(p, fileio.SCHEMA_EVAL, "h", payload)
        out = fileio.read_json(p, fileio.SCHEMA_EVAL)
        assert out["pos"] == math.inf and out["neg"] == -math.inf
        assert math.isnan(out["nan"])
        assert out["nested"] == [math.inf, 1.0]

    def test_hash_round_trips_in_header(self, tmp_path):
        p = tmp_path / "d.json"
        fileio.write_json(p, fileio.SCHEMA_EVAL, "abc123", {})
        with pytest.raises(DataError):
            fileio.read_json(p, fileio.SCHEMA_EVAL, "different")


    @pytest.mark.parametrize("text", [
        '{"schema": "eval.v1", "config_hash": "h", "auc": ',  # cut short
        "[]", "null", '"text"',
        '{"schema": "eval.v1", "x": {"__float__": []}}',
    ])
    def test_unreadable_document_raises_dataerror_naming_the_file(self, tmp_path, text):
        p = tmp_path / "eval.json"
        p.write_text(text)
        with pytest.raises(DataError, match="eval.json: "):
            fileio.read_json(p, fileio.SCHEMA_EVAL)

    def test_document_that_is_not_utf8_raises_dataerror(self, tmp_path):
        p = tmp_path / "eval.json"
        p.write_bytes(b'{"schema": "eval.v1", "x": "\xff"}')
        with pytest.raises(DataError, match="eval.json: "):
            fileio.read_json(p, fileio.SCHEMA_EVAL)


class TestAtomicWrites:
    """A writer that fails leaves the previous artifact, never part of one."""

    @staticmethod
    def failing_rows(row, n_good=3):
        for _ in range(n_good):
            yield row
        raise RuntimeError("generator failed partway")

    @pytest.mark.parametrize("kind", ["jsonl", "csv"])
    def test_failing_generator_leaves_no_file(self, tmp_path, kind):
        p = tmp_path / f"out.{kind}"
        with pytest.raises(RuntimeError, match="partway"):
            if kind == "jsonl":
                row = json.dumps({"a": 1}, separators=(",", ":"))
                fileio.write_jsonl(p, fileio.SCHEMA_WIFI, "h", self.failing_rows(row))
            else:
                fileio.write_csv(p, fileio.SCHEMA_FEATURES, "h", ["a"],
                                 self.failing_rows([np.array([1])]))
        assert sorted(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", ["jsonl", "csv"])
    def test_failing_generator_keeps_older_artifact(self, tmp_path, kind):
        p = tmp_path / f"out.{kind}"
        if kind == "jsonl":
            fileio.write_jsonl(p, fileio.SCHEMA_WIFI, "old",
                               [json.dumps({"a": 0}, separators=(",", ":"))])
        else:
            fileio.write_csv(p, fileio.SCHEMA_FEATURES, "old", ["a"], [[np.array([0])]])
        before = p.read_bytes()
        with pytest.raises(RuntimeError):
            if kind == "jsonl":
                row = json.dumps({"a": 1}, separators=(",", ":"))
                fileio.write_jsonl(p, fileio.SCHEMA_WIFI, "new", self.failing_rows(row))
            else:
                fileio.write_csv(p, fileio.SCHEMA_FEATURES, "new", ["a"],
                                 self.failing_rows([np.array([1])]))
        assert p.read_bytes() == before
        assert not p.with_name(p.name + ".tmp").exists()

    def test_unencodable_json_keeps_older_document(self, tmp_path):
        p = tmp_path / "d.json"
        fileio.write_json(p, fileio.SCHEMA_EVAL, "old", {"a": 1})
        before = p.read_bytes()
        with pytest.raises(TypeError):
            fileio.write_json(p, fileio.SCHEMA_EVAL, "new", {"a": object()})
        assert p.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == [p]

    @staticmethod
    def write_pair(tmp_path, text):
        """Write text over a.json and b.csv in tmp_path."""
        fileio.write_json(tmp_path / "a.json", fileio.SCHEMA_EVAL, "h", {"text": text})
        fileio.write_csv(tmp_path / "b.csv", fileio.SCHEMA_FEATURES, "h", ["text"],
                         [[np.array([text], dtype=object)]])

    def test_a_failed_commit_keeps_every_target(self, tmp_path):
        self.write_pair(tmp_path, "old")
        before = {p: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(RuntimeError, match="after both writes"):
            with fileio.committed():
                self.write_pair(tmp_path, "new")
                raise RuntimeError("after both writes")
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_a_commit_replaces_its_targets_when_it_ends(self, tmp_path):
        self.write_pair(tmp_path, "old")
        before = {p: p.read_bytes() for p in tmp_path.iterdir()}
        with fileio.committed():
            self.write_pair(tmp_path, "new")
            assert all(p.read_bytes() == blob for p, blob in before.items())
        assert sorted(tmp_path.iterdir()) == sorted(before)
        assert fileio.read_json(tmp_path / "a.json", fileio.SCHEMA_EVAL)["text"] == "new"
        assert fileio.read_csv(tmp_path / "b.csv", fileio.SCHEMA_FEATURES)[2] == [["new"]]
        # outside a commit, a write replaces its target at once
        self.write_pair(tmp_path, "newer")
        assert fileio.read_json(tmp_path / "a.json", fileio.SCHEMA_EVAL)["text"] == "newer"

    def test_success_replaces_and_leaves_no_temp(self, tmp_path):
        p = tmp_path / "t.csv"
        fileio.write_csv(p, fileio.SCHEMA_FEATURES, "old", ["a"], [[np.array([0])]])
        fileio.write_csv(p, fileio.SCHEMA_FEATURES, "new", ["a"], [[np.array([1, 2])]])
        meta, _, rows = fileio.read_csv(p, fileio.SCHEMA_FEATURES, "new")
        assert rows == [["1"], ["2"]]
        assert sorted(tmp_path.iterdir()) == [p]
