"""The README's library example runs against the package as it is."""

import ast
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_readme_example_prints_what_its_comments_say():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    fibre, morphisms = out.getvalue().splitlines()
    assert len(ast.literal_eval(fibre)) == 2  # two tuples: one per way bob can combine the words
    comment = re.search(r"print\(report\.new_morphisms\)\s*# (.*)", block).group(1)
    assert morphisms == comment == "('cat→black', 'cat→feline')"
