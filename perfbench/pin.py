"""Pin mfclab's kernel backend before the package is first imported.

The compiled backend is built with gcc from the tracked ``_kernels.c`` into
``perfbench/_build/`` and registered as ``mfclab._kernels``, so nothing is
written under ``src/``.  A failed build is an error: the benchmark never
falls back to the pure-Python kernels on a workload pinned to ``compiled``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import subprocess
import sys
import sysconfig
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BUILD_DIR = BENCH_DIR / "_build"
WORK_DIR = BENCH_DIR / "_work"  # logs and configs of a run, removed at its end

# Each workload runs on one backend; ``run.py`` asserts it after import.
WORKLOAD_BACKEND = {
    "pendulum_python": "python",
    "synthetic_sine": "python",
    "sweep_compiled": "compiled",
}


class PinError(RuntimeError):
    """The pinned backend could not be built, loaded or confirmed."""


def build_compiled() -> Path:
    """Compile ``src/mfclab/_kernels.c``; reuse an earlier build of the same
    source, compiler command and interpreter."""
    source = SRC / "mfclab" / "_kernels.c"
    if not source.is_file():
        raise PinError(f"compiled backend source {source} is missing")
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    include = sysconfig.get_paths()["include"]
    flags = ["-O2", "-shared", "-fPIC", f"-I{include}"]
    key = hashlib.sha256(
        source.read_bytes() + " ".join(flags + [suffix]).encode()
    ).hexdigest()[:16]
    target = BUILD_DIR / key / f"_kernels{suffix}"
    if target.is_file():
        return target
    target.parent.mkdir(parents=True, exist_ok=True)
    partial = target.with_name(f"partial-{os.getpid()}.so")
    try:
        proc = subprocess.run(
            ["gcc", *flags, str(source), "-lm", "-o", str(partial)],
            capture_output=True,
            text=True,
            timeout=600,
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise PinError(f"gcc could not build the compiled backend: {exc}") from exc
    if proc.returncode != 0:
        partial.unlink(missing_ok=True)
        lines = proc.stderr.strip().splitlines() or ["(no output)"]
        raise PinError(f"gcc failed to build the compiled backend: {lines[-1]}")
    os.replace(partial, target)
    return target


def pin(backend: str):
    """Import mfclab from this checkout on ``backend`` and return the package."""
    sys.path.insert(0, str(SRC))
    # every workload is serial; a second OpenBLAS thread only adds start-up
    # time and noise on a small machine
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if backend == "python":
        os.environ["MFCLAB_PURE_PYTHON"] = "1"
    else:
        os.environ.pop("MFCLAB_PURE_PYTHON", None)
        spec = importlib.util.spec_from_file_location("mfclab._kernels", build_compiled())
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    import mfclab

    if mfclab.BACKEND != backend:
        raise PinError(f"mfclab.BACKEND is {mfclab.BACKEND!r}, expected {backend!r}")
    return mfclab
