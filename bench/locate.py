"""Where the benchmark finds the program: the ``src/`` tree of its own checkout."""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Results, spans and scratch files; ignored by git.
OUT = BENCH_DIR / "out"

#: Native thread pools are held to one thread, so the run stays within its core budget.
_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def use_source_tree() -> None:
    """Make ``import keyedmod`` load this checkout's sources; exit if they are absent."""
    if not (SRC / "keyedmod" / "__init__.py").is_file():
        raise SystemExit(f"keyedmod sources not found at {SRC}; run from a full checkout")
    for name in _THREAD_VARIABLES:
        os.environ[name] = "1"
    sys.path.insert(0, str(SRC))
