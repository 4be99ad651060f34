"""Lines of the package's source, split into code and prose.

    python3 tools/src_lines.py [FILE ...]

Prints, for each file (default: every ``src/uavswarm/*.py``) and in total,
its code, docstring, comment and blank lines, which add up to ``wc -l``:

* a docstring line is a line of a module, class or function docstring;
* a code line is any other line that holds a token other than a comment;
* a comment line is a line whose only token is a comment;
* a blank line is any other line.

So a change that cuts code shows apart from one that cuts prose.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def count_lines(source: str) -> dict[str, int]:
    """The code, docstring, comment and blank lines of ``source``."""
    docs: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and \
                ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docs.update(range(first.lineno, first.end_lineno + 1))
    code: set[int] = set()
    comments: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docs
    comments -= docs | code
    total = len(source.splitlines())
    return {"code": len(code), "docstring": len(docs),
            "comment": len(comments),
            "blank": total - len(code) - len(docs) - len(comments)}


def _row(cells, name: str) -> str:
    return "".join(f"{c:>{w}}" for c, w in zip(cells, (6, 8, 11, 9, 7))) \
        + f"  {name}"


def main(argv: list[str]) -> int:
    files = [Path(a) for a in argv] or sorted(
        (ROOT / "src" / "uavswarm").glob("*.py"))
    total = dict.fromkeys(KINDS, 0)
    print(_row(("lines", *KINDS), "file"))
    for path in files:
        counts = count_lines(path.read_text(encoding="utf-8"))
        for kind in KINDS:
            total[kind] += counts[kind]
        print(_row((sum(counts.values()), *counts.values()), path.name))
    print(_row((sum(total.values()), *total.values()), "total"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
