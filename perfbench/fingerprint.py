"""Machine and library fingerprint recorded with every benchmark run."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from pathlib import Path

import numpy as np
import scipy


def _git_commit(root: Path) -> str:
    """HEAD of a git checkout at ``root``, read from ``.git`` directly."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def _openblas(package, symbol_prefix) -> dict:
    """OpenBLAS build and thread count of a package's bundled library."""
    libs = glob.glob(os.path.join(os.path.dirname(package.__file__), "..",
                                  package.__name__ + ".libs", "*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        suffix = "64_" if "openblas64" in os.path.basename(path) else ""
        threads = getattr(lib, f"{symbol_prefix}get_num_threads{suffix}", None)
        config = getattr(lib, f"{symbol_prefix}get_config{suffix}", None)
        if threads is None or config is None:
            continue
        threads.restype = ctypes.c_int
        threads.argtypes = []
        config.restype = ctypes.c_char_p
        config.argtypes = []
        return {"library": config().decode(), "threads": threads()}
    return {"library": "unknown", "threads": None}


def fingerprint(root: Path) -> dict:
    import coesolve

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "coesolve": coesolve.__version__,
        "commit": _git_commit(root),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "caches": _caches(),
        "numpy_blas": {"name": blas.get("name"), "version": blas.get("version"),
                       **_openblas(np, "scipy_openblas_")},
        "scipy_blas": _openblas(scipy, "scipy_openblas_"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }
