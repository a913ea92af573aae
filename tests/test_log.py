"""The trace log: read_traces and explain read lines through one reader, so
they accept exactly the same lines, and a line that cannot be read is
refused by its number."""

import json
from pathlib import Path

import pytest

from fetchguard import read_traces, write_traces
from fetchguard.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
LINES = (GOLDEN / "vehicle_ban.jsonl").read_bytes().splitlines(keepends=True)
IDS = [json.loads(line)["request_id"] for line in LINES]


def _edited(edit):
    def apply(line):
        doc = json.loads(line)
        edit(doc)
        return json.dumps(doc).encode() + b"\n"
    return apply


UNREADABLE = {
    "unknown_zone": _edited(lambda doc: doc["decision"].__setitem__("effective_zone", "purple")),
    "missing_key": _edited(lambda doc: doc.pop("request")),
    "unknown_key": _edited(lambda doc: doc.__setitem__("foo", 1)),
    "not_an_object": lambda line: json.dumps([json.loads(line)]).encode() + b"\n",
    "not_json": lambda line: line[:40] + b"\n",
    "not_utf8": lambda line: line[:40] + b"\xff" + line[40:],
    "too_deep": lambda line: b"[" * 200_000 + b"\n",
}


def log_with(tmp_path, lines):
    path = tmp_path / "log.jsonl"
    path.write_bytes(b"".join(lines))
    return path


def log_with_line_edited(tmp_path, k, edit):
    lines = list(LINES)
    lines[k - 1] = edit(lines[k - 1])
    return log_with(tmp_path, lines)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("edit", UNREADABLE.values(), ids=UNREADABLE.keys())
def test_read_traces_names_the_first_unreadable_line(tmp_path, edit, k):
    path = log_with_line_edited(tmp_path, k, edit)
    with pytest.raises(ValueError, match=f"^line {k}: ") as refused:
        read_traces(path)
    assert refused.value.__cause__ is not None


@pytest.mark.parametrize("edit", UNREADABLE.values(), ids=UNREADABLE.keys())
def test_explain_after_an_unreadable_line_exits_2_naming_it(tmp_path, capsys, edit):
    path = log_with_line_edited(tmp_path, 2, edit)
    assert main(["explain", "--trace", str(path), "--request", IDS[2]]) == 2
    err = capsys.readouterr().err
    assert "cannot read trace" in err
    assert "line 2: " in err


@pytest.mark.parametrize("garbage", [b"garbage\n", b"\xff\xfe\n", b'{"request_id": "vehicle_ban:002"}\n'])
def test_explain_before_a_garbage_last_line_still_explains(tmp_path, capsys, garbage):
    path = log_with(tmp_path, [*LINES[:2], garbage])
    assert main(["explain", "--trace", str(path), "--request", IDS[1]]) == 0
    assert "verdict: DENY" in capsys.readouterr().out
    with pytest.raises(ValueError, match="^line 3: "):
        read_traces(path)


def test_blank_lines_are_skipped_and_counted(tmp_path, capsys):
    path = log_with(tmp_path, [b"\n", LINES[0], b"  \t\r\n", LINES[1], b"\n", b"[]\n"])
    with pytest.raises(ValueError, match="^line 6: "):
        read_traces(path)
    assert main(["explain", "--trace", str(path), "--request", IDS[1]]) == 0
    assert "verdict: DENY" in capsys.readouterr().out


@pytest.mark.parametrize(
    "path",
    sorted(GOLDEN.glob("*.jsonl")) + sorted((GOLDEN / "audit").glob("*.jsonl")),
    ids=lambda p: str(p.relative_to(GOLDEN).with_suffix("")),
)
def test_writing_a_golden_log_read_back_gives_its_bytes(tmp_path, path):
    copy = tmp_path / "copy.jsonl"
    write_traces(read_traces(path), copy)
    assert copy.read_bytes() == path.read_bytes()
