import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("src_lines", ROOT / "scripts" / "src_lines.py")
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)


def test_line_kinds_sum_to_each_files_lines():
    # every physical line of every module is counted as exactly one kind
    counts = src_lines.count_tree()
    files = sorted(p.name for p in src_lines.SRC.glob("*.py"))
    assert sorted(counts) == sorted(files + ["total"])
    for name in files:
        c = counts[name]
        assert c["physical"] == len((src_lines.SRC / name).read_text().splitlines())
        assert c["code"] + c["docstring"] + c["comment"] + c["blank"] == c["physical"], name
    assert counts["total"]["code"] > 0 and counts["total"]["docstring"] > 0


def test_line_kinds_of_a_small_module():
    source = '''"""Module docstring,

on three lines."""

import os  # a trailing comment leaves the line code
# a comment line


def f():
    """One-line docstring."""
    s = """a string that is not a docstring

keeps its blank line as code"""
    return s
'''
    assert src_lines.count(source) == {"physical": 14, "code": 6, "docstring": 4,
                                       "comment": 1, "blank": 3}
