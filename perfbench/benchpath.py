"""Locate the source tree the benchmark measures: ``src/`` of the checkout
this directory sits in, never an installed copy."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_source() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``; exit with code 2
    when it is missing, so a bare benchmark directory fails fast."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no source tree at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
