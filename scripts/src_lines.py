"""Line counts of src/onebit_mimo, per module and in total.

Every physical line is counted once, as exactly one of:
  docstring  a line of a module, class or function docstring;
  comment    a line whose only token is a comment;
  blank      an empty or whitespace-only line outside a docstring;
  code       every other line, including any line of code that ends in a
             comment and every line of a string that is not a docstring.
So physical = code + docstring + comment + blank for each file.

Run from the repository root:  python scripts/src_lines.py [directory]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "onebit_mimo"
KINDS = ("physical", "code", "docstring", "comment", "blank")


def _docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> dict:
    """The five counts of one module's source text."""
    lines = source.splitlines()
    docstring = _docstring_lines(ast.parse(source))
    comment, code = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                              tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring
    comment -= code | docstring
    blank = {i for i, line in enumerate(lines, 1) if not line.strip()} - docstring - code
    return {"physical": len(lines), "code": len(code), "docstring": len(docstring),
            "comment": len(comment), "blank": len(blank)}


def count_tree(root: Path = SRC) -> dict:
    """Counts per module of root/*.py, by file name, and their total under "total"."""
    counts = {p.name: count(p.read_text()) for p in sorted(root.glob("*.py"))}
    counts["total"] = {k: sum(c[k] for c in counts.values()) for k in KINDS}
    return counts


def main(argv=None) -> None:
    args = sys.argv[1:] if argv is None else argv
    counts = count_tree(Path(args[0]) if args else SRC)
    width = max(len(name) for name in counts)
    print(f"{'module':<{width}}" + "".join(f"{k:>11}" for k in KINDS))
    for name, c in counts.items():
        print(f"{name:<{width}}" + "".join(f"{c[k]:>11,}" for k in KINDS))


if __name__ == "__main__":
    main()
