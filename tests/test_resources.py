import json
import os
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

import persian_norm
from persian_norm.resources import MappingTable, rows, table

DATA = Path(persian_norm.__file__).parent / "data"

# Runs in a fresh interpreter: records, per phase, every file opened under
# the package's data directory, then prints the records as JSON.
_PROBE = r"""
import json, os, sys

marker = os.path.join("persian_norm", "data") + os.sep
phase = ["import"]
opened = []

def hook(event, args):
    if event == "open" and isinstance(args[0], (str, os.PathLike)):
        path = os.fspath(args[0])
        if isinstance(path, str) and marker in path:
            opened.append([phase[0], path.split(marker, 1)[1]])

sys.addaudithook(hook)
import persian_norm as pn

phase[0] = "calls"
verb = "رفت"
texts = [
    "سایت www.example.com و https://a.ir/x و ali@example.com",
    "دکتر Ph.D از NASA و ر.ک و ج.ا.ا آمد",
    "تاریخ 1397/7/9 ساعت 8:00 قیمت 25$ و ½ و 20% 😀 علي",
    " ".join(["کتاب", "را", "خواند", "و", "او", verb] * 10),
]
for text in texts:
    pn.normalize_speech(text)
    pn.split_sentences(text)
    pn.enumerate_verbalizations(text)
print(json.dumps(opened))
"""


def _opened_files():
    env = dict(os.environ, PYTHONPATH=str(DATA.parent.parent))
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def test_each_data_file_is_read_once_at_import():
    files = (p.relative_to(DATA).as_posix() for p in DATA.rglob("*") if p.is_file())
    bundled = sorted(f for f in files if not f.startswith("fixtures/"))
    opened = _opened_files()
    assert sorted(path.replace(os.sep, "/") for _, path in opened) == bundled
    assert [path for phase, path in opened if phase != "import"] == []


def test_rows_drop_blank_and_comment_lines():
    lines = rows("templates/date.txt")
    assert lines
    assert all(ln and not ln.startswith("#") for ln in lines)


def test_line_without_tab_maps_to_empty_string():
    # punct_map lists the tatweel alone: it is deleted
    assert table("punct_map")["\u0640"] == ""
    assert ("%", "درصد") in table("symbols").entries


def test_longest_surface_wins():
    tbl = MappingTable(entries=(("a", "x"), ("ab", "")))
    assert tbl.pattern.pattern == "ab|a"
    assert tbl.apply("aab") == "x"


def test_pattern_compiles_when_first_read():
    tbl = MappingTable(entries=(("a", "x"), ("ab", "")))
    assert "pattern" not in tbl.__dict__
    assert tbl.pattern is tbl.pattern
    with pytest.raises(FrozenInstanceError):
        tbl.pattern = None
