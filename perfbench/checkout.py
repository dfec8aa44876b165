"""Make ``import gapgauge`` load the package from this checkout's ``src/``."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src"


def use_checkout_source() -> None:
    """Put ``src/`` first on the path; exit with an error if it is not there."""
    if not (SOURCE / "gapgauge" / "__init__.py").is_file():
        sys.exit(f"perfbench: no gapgauge package under {SOURCE}; run from a full checkout")
    sys.path.insert(0, str(SOURCE))
