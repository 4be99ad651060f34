"""tools/src_lines.py's split of source lines into code and prose."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / \
    "src_lines.py"
spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)

# each line's kind: (line, kind)
MODULE = [
    ('"""A module docstring', "docstring"),
    ("", "docstring"),
    ('over three lines."""', "docstring"),
    ("", "blank"),
    ("# a comment alone", "comment"),
    ("import math  # a comment after code", "code"),
    ("", "blank"),
    ("", "blank"),
    ("class Cell:", "code"),
    ('    """A class docstring."""', "docstring"),
    ("", "blank"),
    ("    def reach(self, r):", "code"),
    ('        """A function docstring', "docstring"),
    ('        over two lines."""', "docstring"),
    ("        # an indented comment", "comment"),
    ('        text = """a string that is', "code"),
    ('        not a docstring"""', "code"),
    ("        return (math.pi", "code"),
    ("                * r * r)", "code"),
    ("", "blank"),
    ("    async def later(self):", "code"),
    ('        "an async function docstring"', "docstring"),
    ("        'a second string is code'", "code"),
]


def test_each_line_counts_as_its_kind():
    source = "\n".join(line for line, _ in MODULE) + "\n"
    want = {kind: sum(k == kind for _, k in MODULE)
            for kind in src_lines.KINDS}
    assert src_lines.count_lines(source) == want
    assert sum(want.values()) == len(MODULE)


def test_files_and_total_are_printed(tmp_path, capsys):
    source = "\n".join(line for line, _ in MODULE) + "\n"
    for name in ("a.py", "b.py"):
        (tmp_path / name).write_text(source)
    assert src_lines.main([str(tmp_path / "a.py"),
                           str(tmp_path / "b.py")]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].split() == ["lines", "code", "docstring", "comment",
                               "blank", "file"]
    one = src_lines.count_lines(source)
    assert rows[1].split() == [str(len(MODULE)),
                               *map(str, one.values()), "a.py"]
    assert rows[3].split() == [str(2 * len(MODULE)),
                               *(str(2 * v) for v in one.values()), "total"]
