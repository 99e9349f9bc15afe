"""Locate the detreact sources of the checkout this benchmark sits in.

The benchmark always measures the runtime next to it (``../src``), never an
installed copy, so a checkout without sources must fail instead of silently
measuring something else.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingSources(RuntimeError):
    """The checkout holds no ``src/detreact`` package."""


def use_checkout_sources() -> None:
    """Put ``<checkout>/src`` first on ``sys.path``; raise MissingSources
    when the package is not there."""
    if not (SRC / "detreact" / "__init__.py").is_file():
        raise MissingSources(f"no detreact sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
