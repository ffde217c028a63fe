"""Per-line pragma suppressions.

``# cedarlint: disable=CDL013`` silences a finding on its own line;
several codes may be comma-separated (``disable=CDL013,CDL014``).

Pragmas are strictly per-line (the line the diagnostic points at) and
never silence unsuppressible codes (CDL001, CDL015).
"""

from __future__ import annotations

import re

from .diagnostics import CODES

_DISABLE = re.compile(r"#\s*cedarlint:\s*disable=([A-Z0-9,\s]+)")


def suppressed_codes(line: str) -> frozenset[str]:
    """The codes a source line's pragmas silence (empty when none)."""
    codes: set[str] = set()
    match = _DISABLE.search(line)
    if match:
        codes.update(
            token for token in re.split(r"[,\s]+", match.group(1))
            if token
        )
    return frozenset(
        code for code in codes
        if code in CODES and CODES[code].suppressible
    )


def suppresses(line: str, code: str) -> bool:
    return code in suppressed_codes(line)
