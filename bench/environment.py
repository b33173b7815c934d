"""Environment record printed with every benchmark result."""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _commit(root: Path) -> str:
    """HEAD commit read from .git, or "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _filesystem(path: Path) -> str:
    """Type of the filesystem holding ``path``, from the longest mount match."""
    best, fstype = "", "unknown"
    target = str(path.resolve())
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def _blas(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def record(root: Path, tmp_dir: Path, seed: int) -> dict:
    import numpy as np

    return {
        "commit": _commit(root),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas(np),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "tmp_fs": _filesystem(tmp_dir),
        "seed": seed,
    }
