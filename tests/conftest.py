import importlib.util
import shlex
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest

from mfclab import _kernels_py

KERNELS_C = Path(__file__).resolve().parents[1] / "src" / "mfclab" / "_kernels.c"


def _compile_kernels(target, *flags):
    """gcc's run on the tracked ``_kernels.c``, writing ``target``, with the
    flags that ``setup.py`` compiles it with (Python's own ``CFLAGS``, such
    as ``-O3 -fwrapv``), then ``-Wextra -Werror`` and ``flags``.  The test
    skips only when gcc is not found."""
    gcc = shutil.which("gcc")
    if gcc is None:
        pytest.skip("gcc not found")
    return subprocess.run(
        [gcc, *shlex.split(sysconfig.get_config_var("CFLAGS") or ""), "-shared", "-fPIC",
         "-Wall", "-Wextra", "-Werror", *flags,
         f"-I{sysconfig.get_paths()['include']}", str(KERNELS_C), "-lm", "-o", str(target)],
        capture_output=True,
        text=True,
    )


def _build_kernels(tmp_path_factory, *flags):
    """The tracked ``_kernels.c`` built by ``_compile_kernels`` into a
    temporary directory and loaded as ``mfclab._kernels``.  Any compiler
    warning fails the build."""
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    target = tmp_path_factory.mktemp("kernels") / f"_kernels{suffix}"
    proc = _compile_kernels(target, *flags)
    if proc.returncode != 0:
        pytest.fail(f"gcc could not build {KERNELS_C.name}:\n{proc.stderr}")
    spec = importlib.util.spec_from_file_location("mfclab._kernels", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def compiled_kernels(tmp_path_factory):
    """The compiled twin as ``setup.py`` builds it."""
    return _build_kernels(tmp_path_factory)


@pytest.fixture(scope="session")
def contracting_kernels(tmp_path_factory):
    """The compiled twin built for this CPU with contraction asked for: on a
    CPU with FMA, gcc fuses a*b + c into one multiply-add wherever the
    source lets it."""
    return _build_kernels(tmp_path_factory, "-march=native", "-ffp-contract=fast")


@pytest.fixture
def build_without_int128(tmp_path):
    """gcc's run on ``_kernels.c`` as a compiler without ``unsigned
    __int128`` sees it."""
    return _compile_kernels(tmp_path / "_kernels.so", "-U__SIZEOF_INT128__")


@pytest.fixture(params=["python", "compiled"])
def kernels(request):
    """Each kernel twin in turn: ``mfclab._kernels_py``, then the compiled one."""
    if request.param == "python":
        return _kernels_py
    return request.getfixturevalue("compiled_kernels")
