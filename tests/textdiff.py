"""Exact comparison of long texts such as verdict JSON.

pytest's assertion rewriting diffs the whole of two unequal strings, which
takes minutes on multi-KB verdicts; `assert_same_text` fails at once with
the first line that differs instead.
"""

import pytest


def assert_same_text(got: str, want: str, context: object = None) -> None:
    """Fail unless `got == want`, naming the first differing line."""
    if got == want:
        return
    got_lines = got.splitlines(keepends=True)
    want_lines = want.splitlines(keepends=True)
    n = next((i for i, (g, w) in enumerate(zip(got_lines, want_lines)) if g != w),
             min(len(got_lines), len(want_lines)))

    def line(lines):
        return repr(lines[n]) if n < len(lines) else "(end of text)"
    where = "" if context is None else f"{context}: "
    pytest.fail(f"{where}texts differ first at line {n + 1}\n"
                f"  got:  {line(got_lines)}\n  want: {line(want_lines)}", pytrace=False)
