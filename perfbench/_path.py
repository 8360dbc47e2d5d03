"""Makes ``import pbtally`` load this checkout's ``src/`` tree, or stop."""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

if not (SRC / "pbtally" / "__init__.py").is_file():
    raise SystemExit("perfbench: no pbtally sources at %s" % SRC)
sys.path.insert(0, str(SRC))
