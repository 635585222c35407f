"""Reproducible process environment and the host fingerprint.

``pin()`` must run before numpy is first imported: BLAS reads its thread
count once, at import. ``NovaConfig`` silently defaults two of its fields
from the ``NOVA_*`` variables, so they are dropped as well — the ledger
pins every such field explicitly (see ``pinned_config``).
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, Optional

#: The checkout root: ``<root>/benchmarks/ledger/env.py``.
ROOT = Path(__file__).resolve().parents[2]

#: Scratch space for archives and child results, inside the checkout.
WORK_DIR = ROOT / ".ledger_tmp"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
DROPPED_VARS = ("NOVA_EXECUTION_BACKEND", "NOVA_PACKING_WORKERS", "NOVA_BENCH_FULL")

#: The planner settings every workload runs under (plus ``seed``).
PINNED_CONFIG = {"packing_workers": 1, "execution_backend": "serial"}


def pin() -> None:
    """Pin BLAS to one thread and drop the NOVA_* defaults, for this process
    and every child it starts."""
    for name in THREAD_VARS:
        os.environ[name] = "1"
    for name in DROPPED_VARS:
        os.environ.pop(name, None)


@contextmanager
def scratch_dir() -> Iterator[Path]:
    """A temporary directory under the checkout, gone when the block ends."""
    WORK_DIR.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=WORK_DIR) as path:
            yield Path(path)
    finally:
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run's scratch is still in there


def use_source_tree() -> None:
    """Put ``<root>/src`` first on ``sys.path`` so ``repro`` is the checkout's."""
    source = str(ROOT / "src")
    if source not in sys.path:
        sys.path.insert(0, source)


def pinned_config(seed: int):
    """The ``NovaConfig`` of every ledger run: serial, one worker, seeded."""
    from repro.core.config import NovaConfig

    return NovaConfig(seed=seed, **PINNED_CONFIG)


def git_commit() -> Optional[str]:
    """HEAD of the checkout, or None outside a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def fingerprint() -> Dict[str, object]:
    """Host, toolchain and commit — recorded with every result set."""
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "blas_threads": {name: os.environ.get(name) for name in THREAD_VARS},
    }
