#!/usr/bin/env python3
"""Count raw lines and code lines of each Python module under a source tree.

A code line holds at least one token of code: blank lines, comment lines
and the lines of module, class and function docstrings do not count.  One
row is printed per module, then the total:

    python3 scripts/src_lines.py            # src/ of this checkout
    python3 scripts/src_lines.py path/to/src
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree) -> set:
    """Line numbers spanned by the docstrings of the tree's module, classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(raw lines, code lines) of one module's source."""
    skip = docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            code.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return len(source.splitlines()), len(code)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("root", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src")
    args = parser.parse_args()

    total_raw = total_code = 0
    print(f"{'module':<40} {'raw':>6} {'code':>6}")
    for path in sorted(args.root.rglob("*.py")):
        raw, code = count(path.read_text(encoding="utf-8"))
        total_raw += raw
        total_code += code
        print(f"{path.relative_to(args.root).as_posix():<40} {raw:>6} {code:>6}")
    print(f"{'total':<40} {total_raw:>6} {total_code:>6}")


if __name__ == "__main__":
    main()
