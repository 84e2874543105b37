import io
import warnings

import pytest

from persian_norm.cli import evaluate_gold_fixture, read_gold_fixture, run_cli
from persian_norm.resources import fixture_path


def run(argv, stdin=""):
    import sys
    old = sys.stdin
    sys.stdin = io.StringIO(stdin) if isinstance(stdin, str) else stdin
    try:
        return run_cli(argv)
    finally:
        sys.stdin = old


def test_normalize_stdin_speech(capsys):
    assert run(["normalize"], stdin="ساعت 8:00\n") == 0
    assert capsys.readouterr().out == "ساعت هشت\n"


def test_normalize_general_mode(capsys):
    assert run(["normalize", "--mode", "general"], stdin="عدد ⑥ ٪😀\n") == 0
    assert capsys.readouterr().out == "عدد ۶ %\n"


def test_normalize_file_input(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("قیمت 25$ بود\n", encoding="utf-8")
    assert run(["normalize", str(src)]) == 0
    assert capsys.readouterr().out == "قیمت بیست و پنج دلار بود\n"


def test_normalize_out_file(tmp_path, capsys):
    dst = tmp_path / "out.txt"
    assert run(["normalize", "--out", str(dst)], stdin="ساعت 8:00\n") == 0
    assert capsys.readouterr().out == ""
    assert dst.read_text(encoding="utf-8") == "ساعت هشت\n"


def test_normalize_multiline_streaming(capsys):
    assert run(["normalize"], stdin="ساعت 8:00\nمتن ساده\n") == 0
    assert capsys.readouterr().out == "ساعت هشت\nمتن ساده\n"


@pytest.mark.parametrize("argv, first, first_out, second, second_out", [
    (["normalize"], "ساعت 8:00\n", "ساعت هشت\n", "متن ساده\n", "متن ساده\n"),
    (["split"], "هوا سرد بود. بچه‌ها ماندند.\n", "هوا سرد بود.\nبچه‌ها ماندند.\n",
     "متن ساده\n", "متن ساده\n"),
    (["scan"], "ساعت 11:35\n", "5\t10\tTIME\t11:35\n", "25$\n",
     "0\t3\tCURRENCY\t25$\n"),
], ids=["normalize", "split", "scan"])
def test_commands_stream_line_by_line(capsys, argv, first, first_out,
                                      second, second_out):
    def stdin():
        yield first
        # the second line is served only once the first one's output is out
        assert capsys.readouterr().out == first_out
        yield second

    assert run(argv, stdin=stdin()) == 0
    assert capsys.readouterr().out == second_out


def test_lines_split_like_str_splitlines(capsys):
    text = "الف\u2028ب\r\nج\x85د"
    assert run(["normalize", "--mode", "general"], stdin=text) == 0
    assert capsys.readouterr().out.split("\n") == text.splitlines() + [""]


def test_normalize_seed_deterministic(capsys):
    argv = ["normalize", "--seed", "42"]
    text = "در 1400-07-25 ساعت 11:35 تماس بگیرید\n"
    assert run(argv, stdin=text) == 0
    first = capsys.readouterr().out
    assert run(argv, stdin=text) == 0
    assert capsys.readouterr().out == first


def test_normalize_template_index(capsys):
    base = ["normalize"]
    assert run(base + ["--template-index", "0"], stdin="1397/7/9\n") == 0
    fixed0 = capsys.readouterr().out
    assert fixed0 == "نهم مهر سال هزار و سیصد و نود و هفت\n"
    assert run(base + ["--template-index", "1"], stdin="1397/7/9\n") == 0
    assert capsys.readouterr().out != fixed0


def test_negative_template_index_is_an_error(capsys):
    assert run(["normalize", "--template-index", "-100"], stdin="ساعت 8:00\n") == 1
    assert capsys.readouterr().err.startswith("error:")


def test_normalize_enumerate(capsys):
    assert run(["normalize", "--enumerate"], stdin="ساعت 11:35\n") == 0
    lines = capsys.readouterr().out.splitlines()
    assert "ساعت یازده و سی و پنج" in lines
    assert "ساعت یازده و سی و پنج دقیقه" in lines
    assert len(lines) == len(set(lines))


def test_normalize_general_enumerate_prints_the_general_line(capsys):
    text = "ساعت 11:35 ⑥\n"
    assert run(["normalize", "--mode", "general"], stdin=text) == 0
    general = capsys.readouterr().out
    assert run(["normalize", "--mode", "general", "--enumerate"], stdin=text) == 0
    assert capsys.readouterr().out == general == "ساعت ۱۱:۳۵ ۶\n"


def test_normalize_disable_pass(capsys):
    assert run(["normalize", "--mode", "general",
                "--disable", "strip_emojis"], stdin="سلام 😀\n") == 0
    assert "😀" in capsys.readouterr().out


def test_normalize_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("mode = general\ndisable = strip_emojis\n", encoding="utf-8")
    assert run(["normalize", "--config", str(cfg)], stdin="عدد ⑥ 😀\n") == 0
    assert capsys.readouterr().out == "عدد ۶ 😀\n"


def test_config_file_skips_blank_and_comment_lines(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("# general mode\n\nmode = general\n", encoding="utf-8")
    assert run(["normalize", "--config", str(cfg)], stdin="عدد ⑥\n") == 0
    assert capsys.readouterr().out == "عدد ۶\n"


def test_config_file_may_start_with_a_bom(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("\ufeffmode = general\n", encoding="utf-8")
    assert run(["normalize", "--config", str(cfg)], stdin="ساعت 8:00\n") == 0
    assert capsys.readouterr().out == "ساعت ۸:۰۰\n"


def test_cli_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("mode = general\n", encoding="utf-8")
    assert run(["normalize", "--config", str(cfg), "--mode", "speech"],
               stdin="ساعت 8:00\n") == 0
    assert capsys.readouterr().out == "ساعت هشت\n"


@pytest.mark.parametrize("line, flags", [
    ("seed = 3", ["--template-index", "1"]),
    ("template_index = 1", ["--seed", "3"]),
])
def test_cli_policy_flag_replaces_config_policy(tmp_path, capsys, line, flags):
    text = "1397/7/9 09121234567\n"
    cfg = tmp_path / "cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    assert run(["normalize", "--config", str(cfg), *flags], stdin=text) == 0
    combined = capsys.readouterr().out
    assert run(["normalize", *flags], stdin=text) == 0
    assert combined == capsys.readouterr().out
    assert run(["normalize", "--config", str(cfg)], stdin=text) == 0
    assert combined != capsys.readouterr().out


def test_seed_and_template_index_are_exclusive(capsys):
    assert run(["normalize", "--seed", "3", "--template-index", "1"],
               stdin="ساعت 8:00\n") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")
    assert "--seed" in captured.err and "--template-index" in captured.err


@pytest.mark.parametrize("lines, flags", [
    ("disable = strip_emojis\ndisable = fold_digits\n", []),
    ("disable = strip_emojis\n", ["--disable", "fold_digits"]),
])
def test_config_file_disable_lines_add_up(tmp_path, capsys, lines, flags):
    cfg = tmp_path / "cfg"
    cfg.write_text("mode = general\n" + lines, encoding="utf-8")
    assert run(["normalize", "--config", str(cfg), *flags],
               stdin="عدد 6 😀\n") == 0
    assert capsys.readouterr().out == "عدد 6 😀\n"


def test_config_file_mode_is_checked(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("mode = genral\n", encoding="utf-8")
    assert run(["normalize", "--config", str(cfg)], stdin="ساعت 8:00\n") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "'genral'" in captured.err


def test_config_file_unknown_key_is_an_error(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("mode = general\ntemplte_index = 1\n", encoding="utf-8")
    assert run(["normalize", "--config", str(cfg)], stdin="ساعت 8:00\n") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "'templte_index'" in captured.err


def test_config_file_disable_names_are_stripped(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("mode = general\ndisable = strip_emojis, fold_digits\n",
                   encoding="utf-8")
    assert run(["normalize", "--config", str(cfg)], stdin="عدد 6 😀\n") == 0
    assert capsys.readouterr().out == "عدد 6 😀\n"


def test_config_file_line_without_equals_is_an_error(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("mode = general\ndisable strip_emojis\n", encoding="utf-8")
    assert run(["normalize", "--config", str(cfg)], stdin="ساعت 8:00\n") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {cfg}: ")
    assert "'disable strip_emojis'" in captured.err


@pytest.mark.parametrize("line, named", [
    ("seed = abc", "seed"),
    ("template_index = 1.5", "template_index"),
    ("template_index = -1", "template_index"),
])
def test_config_file_integer_values_are_checked(tmp_path, capsys, line, named):
    cfg = tmp_path / "cfg"
    cfg.write_text(f"mode = speech\n{line}\n", encoding="utf-8")
    assert run(["normalize", "--config", str(cfg)], stdin="ساعت 8:00\n") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {cfg}: ") and named in captured.err


def test_config_file_integer_values_are_read(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("template_index = 2\n", encoding="utf-8")
    assert run(["normalize", "--config", str(cfg)], stdin="ساعت 11:35\n") == 0
    from_file = capsys.readouterr().out
    assert run(["normalize", "--template-index", "2"], stdin="ساعت 11:35\n") == 0
    assert capsys.readouterr().out == from_file
    assert run(["normalize"], stdin="ساعت 11:35\n") == 0
    assert capsys.readouterr().out != from_file


@pytest.mark.parametrize("names, named", [
    ("strip_emojis,", "''"),
    ("strip_emoji", "'strip_emoji'"),
])
def test_config_file_disable_names_are_checked(tmp_path, capsys, names, named):
    cfg = tmp_path / "cfg"
    cfg.write_text(f"mode = general\ndisable = {names}\n", encoding="utf-8")
    assert run(["normalize", "--config", str(cfg)], stdin="سلام 😀\n") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {cfg}: ")
    assert "disable" in captured.err and named in captured.err


def test_unknown_disable_flag_is_a_usage_error(capsys):
    assert run(["normalize", "--disable", "bogus"], stdin="سلام\n") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ") and "'bogus'" in captured.err


def test_split_command(capsys):
    assert run(["split"], stdin="هوا سرد بود. بچه‌ها ماندند.\n") == 0
    assert capsys.readouterr().out == "هوا سرد بود.\nبچه‌ها ماندند.\n"


def test_split_protects_decimal_dot(capsys):
    assert run(["split"], stdin="عدد 3.14 است. تمام شد.\n") == 0
    assert capsys.readouterr().out == "عدد 3.14 است.\nتمام شد.\n"


def test_split_threshold_flag(capsys):
    text = "دانش‌آموزان به مدرسه رفتند معلم درس داد\n"
    assert run(["split", "--threshold", "3"], stdin=text) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_eval_split_bundled_fixture(capsys):
    path = str(fixture_path("segmentation_gold.txt"))
    assert run(["eval-split", path]) == 0
    out = capsys.readouterr().out.strip()
    assert float(out) >= 0.85
    # printed with four decimals
    assert len(out.split(".")[1]) == 4


def test_gold_fixture_may_start_with_a_bom(tmp_path):
    gold = tmp_path / "gold.txt"
    gold.write_text("\ufeff# header\nسلام.\nخوبی؟\n", encoding="utf-8")
    assert read_gold_fixture(gold) == [["سلام.", "خوبی؟"]]
    assert evaluate_gold_fixture(gold) == 1.0


def test_gold_fixture_trailing_blank_lines_add_no_paragraph(tmp_path):
    gold = tmp_path / "gold.txt"
    gold.write_text("سلام.\n\nخوبی؟\n\n\n", encoding="utf-8")
    assert read_gold_fixture(gold) == [["سلام."], ["خوبی؟"]]


def test_scan_command(capsys):
    assert run(["scan"], stdin="ساعت 11:35 و 25$\n") == 0
    lines = capsys.readouterr().out.splitlines()
    fields = [ln.split("\t") for ln in lines]
    assert [f[2] for f in fields] == ["TIME", "CURRENCY"]
    assert fields[0][3] == "11:35"
    assert int(fields[0][0]) < int(fields[0][1])


def test_scan_plain_text_silent(capsys):
    assert run(["scan"], stdin="متن ساده\n") == 0
    assert capsys.readouterr().out == ""


def test_normalize_year_zero_date(capsys):
    assert run(["normalize"], stdin="تاریخ 0000/01/01 بود\n") == 0
    assert capsys.readouterr().out


def test_usage_error_exit_code(capsys):
    assert run(["no-such-command"]) == 1
    assert run([]) == 1
    assert run(["normalize", "--mode", "bogus"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_io_error_exit_code(capsys):
    assert run(["normalize", "/no/such/file.txt"]) == 2
    assert "I/O error" in capsys.readouterr().err


def test_unreadable_input_creates_no_output_file(tmp_path, capsys):
    dst = tmp_path / "out.txt"
    assert run(["normalize", "--out", str(dst), "/no/such/file.txt"]) == 2
    assert not dst.exists()


def test_eval_split_closes_gold_file():
    path = str(fixture_path("segmentation_gold.txt"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        evaluate_gold_fixture(path)
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_eval_split_missing_gold(capsys):
    assert run(["eval-split", "/no/such/gold.txt"]) == 2


def test_console_script_installed():
    import shutil
    exe = shutil.which("persian-norm")
    assert exe is not None
