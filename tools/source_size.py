"""Print the size of the `src/tourmat` package as a Markdown summary.

Code lines are non-blank lines that are neither comment-only nor inside a
docstring.  Run from the repository root:

    python tools/source_size.py
"""

import ast
import glob


def sizes(path):
    lines = open(path).read().splitlines()
    docs = set()
    for node in ast.walk(ast.parse("\n".join(lines))):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docs.update(range(body[0].lineno, body[0].end_lineno + 1))
    nonblank = [i for i, ln in enumerate(lines, 1) if ln.strip()]
    code = [i for i in nonblank
            if i not in docs and not lines[i - 1].lstrip().startswith("#")]
    return len(nonblank), len(code)


counts = {f: sizes(f) for f in sorted(glob.glob("src/tourmat/*.py"))}
print(f"src/tourmat non-blank lines: {sum(nb for nb, _ in counts.values())},"
      f" code lines: {sum(c for _, c in counts.values())}")
print()
for f, (nb, c) in counts.items():
    print(f"- {f}: {nb} non-blank, {c} code")
