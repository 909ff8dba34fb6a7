"""Environment record written with every benchmark output."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import sys

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _git_sha(root: str):
    if not os.path.exists(os.path.join(root, ".git")):
        return None  # not a git checkout; src_sha256 identifies the sources
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_digest(root: str) -> str:
    """sha256 over the package sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    base = os.path.join(root, "src", "affinepr")
    for name in sorted(os.listdir(base)):
        if name.endswith(".py"):
            h.update(name.encode("utf-8") + b"\0")
            with open(os.path.join(base, name), "rb") as fh:
                h.update(fh.read() + b"\0")
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _loaded_blas_libraries() -> list:
    """Paths of OpenBLAS builds mapped into this process (Linux only)."""
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return []
    return sorted(p for p in paths if os.path.isfile(p))


def _openblas_call(lib, stem: str, restype):
    for name in (f"scipy_{stem}64_", f"scipy_{stem}", f"{stem}64_", stem):
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = restype
            fn.argtypes = []
            return fn()
    return None


def blas_threads() -> list:
    """Effective thread count reported by each loaded OpenBLAS."""
    out = []
    for path in _loaded_blas_libraries():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        config = _openblas_call(lib, "openblas_get_config", ctypes.c_char_p)
        out.append(
            {
                "library": os.path.basename(path),
                "threads": _openblas_call(lib, "openblas_get_num_threads", ctypes.c_int),
                "config": config.decode("utf-8", "replace").strip() if config else None,
            }
        )
    return out


def environment(root: str) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "git_sha": _git_sha(root),
        "src_sha256": src_digest(root),
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_runtime": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }
