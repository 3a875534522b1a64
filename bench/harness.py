"""Shared pieces of the ctcsim benchmark: environment, machine facts, statistics.

The benchmark loads ctcsim from the `src/` directory of the checkout it lives
in, never from an installed copy, so a run always measures the code next to it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import random
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

# One process does one operation at a time and starts no worker threads, so
# BLAS is pinned to a single thread (at most nproc).  With two threads the
# first large matmul of a process also pays ~0.9 s of thread start-up.
BLAS_THREADS = 1
BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


def pin_blas_threads():
    """Set the BLAS thread count for this process (before numpy loads) and children."""
    for var in BLAS_ENV_VARS:
        os.environ[var] = str(BLAS_THREADS)


def child_env():
    """Environment for child interpreters: this checkout's src first, pinned BLAS."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in BLAS_ENV_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def import_ctcsim():
    """Import ctcsim from this checkout's src/; exit 2 if it is not there."""
    if not (SRC / "ctcsim" / "__init__.py").is_file():
        print("bench: no ctcsim sources under %s" % SRC, file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import ctcsim

    if Path(ctcsim.__file__).resolve().parent != SRC / "ctcsim":
        print("bench: ctcsim was imported from %s, not from %s"
              % (ctcsim.__file__, SRC), file=sys.stderr)
        sys.exit(2)
    return ctcsim


def digest(obj):
    """sha256 of the canonical JSON form of generated inputs."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _read_first(path, prefix):
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _llc_size():
    best = (-1, None)
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        indices = sorted(base.glob("index*"))
    except OSError:
        return None
    for idx in indices:
        try:
            level = int((idx / "level").read_text())
            size = (idx / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if level > best[0]:
            best = (level, "L%d %s" % (level, size))
    return best[1]


def machine_facts(ctcsim):
    import numpy as np

    from ctcsim.states import MAX_QUBITS

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "cpu_model": _read_first("/proc/cpuinfo", "model name") or platform.processor(),
        "llc": _llc_size(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
        "max_qubits": MAX_QUBITS,
        "ctcsim": ctcsim.__version__,
        "platform": platform.platform(),
    }


def interleave(jobs, name):
    """Put a job list in a fixed order that does not depend on the seed.

    Jobs of one kind are spread over the pass, so a percentile that falls
    among them samples the whole pass rather than one stretch of it.
    """
    random.Random(name).shuffle(jobs)


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def nearest_rank(values, p):
    """The smallest value with at least p percent of the values at or below it."""
    xs = sorted(values)
    # the tolerance keeps p * n / 100 from rounding up past a whole rank
    return xs[max(0, math.ceil(p / 100.0 * len(xs) - 1e-9) - 1)]


def tail_percentile(ops_per_pass):
    """Highest percentile with at least 10 operations beyond it (nearest rank).

    It is set by one pass of the fixed job list, so it depends only on the
    workload: in a run of P passes exactly 10 * P operations lie beyond it.
    """
    return max(50.0, 100.0 * (ops_per_pass - 10) / ops_per_pass)
