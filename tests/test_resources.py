import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import persian_norm
from persian_norm import PipelineConfig, normalize_general, resources
from persian_norm.resources import alternation, rows, table

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


def _run_fresh(code):
    """The standard output of ``code`` run in a fresh interpreter that
    imports this package."""
    env = dict(os.environ, PYTHONPATH=str(DATA.parent.parent))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def _opened_files():
    return json.loads(_run_fresh(_PROBE))


def test_each_data_file_is_read_once_at_import():
    files = (p.relative_to(DATA).as_posix() for p in DATA.rglob("*") if p.is_file())
    bundled = sorted(f for f in files if not f.startswith("fixtures/"))
    opened = _opened_files()
    assert sorted(path.replace(os.sep, "/") for _, path in opened) == bundled
    assert [path for phase, path in opened if phase != "import"] == []


# modules that ``import dataclasses`` loads, as does ``importlib.resources``
# on Python 3.12 and later, and ``string``; the package needs none of them
_NOT_IMPORTED = {"dataclasses", "inspect", "ast", "dis", "string"}


def test_import_loads_no_dataclasses_machinery():
    added = _run_fresh(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import persian_norm\n"
        "print(*sorted(set(sys.modules) - before))\n"
    ).split()
    assert "persian_norm" in added
    assert _NOT_IMPORTED.isdisjoint(added), sorted(_NOT_IMPORTED.intersection(added))


def test_rows_drop_blank_and_comment_lines():
    lines = rows("templates/date.txt")
    assert lines
    assert all(ln and not ln.startswith("#") for ln in lines)


def test_line_without_tab_maps_to_empty_string():
    # punct_map lists the tatweel alone: it is deleted
    assert table("punct_map")["\u0640"] == ""
    assert ("%", "درصد") in table("symbols").items()


def test_longest_surface_wins():
    assert alternation(["a", "ab"]).pattern == "ab|a"
    # the ligature wins over char_map's fold of its last letter, "ے" -> "ی"
    one = PipelineConfig(enabled_passes={"fold_characters"})
    assert normalize_general("صلـے", one) == "صلی"


def _tables_in(tmp_path, monkeypatch, **files):
    for name, text in files.items():
        (tmp_path / f"{name}.tsv").write_text(text, encoding="utf-8")
    monkeypatch.setattr(resources, "_data_root", lambda: tmp_path)


def test_table_keeps_file_order_across_files(tmp_path, monkeypatch):
    _tables_in(tmp_path, monkeypatch, one="b\tB\n# note\n\na\n", two="c\tC\n")
    assert list(table("one", "two").items()) == [("b", "B"), ("a", ""), ("c", "C")]


def test_a_row_that_maps_the_hash_sign_is_data(tmp_path, monkeypatch):
    # a comment is a lone "#" or opens on "# "
    assert table("symbols")["#"] == "مربع"
    assert table("url_words_latin")["#"] == "hash"
    _tables_in(tmp_path, monkeypatch, one="# note\n#\n#\tmark\n##\tx\n#y\n")
    assert table("one") == {"#": "mark", "##": "x", "#y": ""}


def test_bundled_lines_that_open_on_a_hash_are_comments_or_hash_rows():
    for path in DATA.rglob("*"):
        if path.is_file() and not path.is_relative_to(DATA / "fixtures"):
            lines = path.read_text(encoding="utf-8").splitlines()
            assert [ln for ln in lines if ln.startswith("#")
                    and ln != "#" and not ln.startswith(("# ", "#\t"))] == [], path


def test_table_empty_surface_raises(tmp_path, monkeypatch):
    _tables_in(tmp_path, monkeypatch, one="a\tA\n\tB\n")
    with pytest.raises(ValueError, match="empty surface"):
        table("one")


def test_table_surface_repeated_in_a_file_raises(tmp_path, monkeypatch):
    _tables_in(tmp_path, monkeypatch, one="a\tA\nb\tB\na\tC\n")
    with pytest.raises(ValueError, match="duplicate surface 'a' in one.tsv"):
        table("one")


def test_table_surface_repeated_across_files_raises(tmp_path, monkeypatch):
    _tables_in(tmp_path, monkeypatch,
               ligature_map="ﷲ\tالله\n", char_map="ك\tک\nﷲ\tالله\n")
    assert table("ligature_map") == {"ﷲ": "الله"}
    with pytest.raises(ValueError, match="in char_map.tsv"):
        table("ligature_map", "char_map")
