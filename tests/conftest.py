import importlib.util
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest

from mfclab import _kernels_py

KERNELS_C = Path(__file__).resolve().parents[1] / "src" / "mfclab" / "_kernels.c"


@pytest.fixture(scope="session")
def compiled_kernels(tmp_path_factory):
    """The tracked ``_kernels.c`` built by gcc into a temporary directory and
    loaded as ``mfclab._kernels``, with the no-FMA flag that ``setup.py``
    passes.  Any compiler warning fails the build;
    the tests that use it skip only when gcc is not found."""
    gcc = shutil.which("gcc")
    if gcc is None:
        pytest.skip("gcc not found")
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    target = tmp_path_factory.mktemp("kernels") / f"_kernels{suffix}"
    proc = subprocess.run(
        [gcc, "-O2", "-shared", "-fPIC", "-Wall", "-Wextra", "-Werror", "-ffp-contract=off",
         f"-I{sysconfig.get_paths()['include']}", str(KERNELS_C), "-lm",
         "-o", str(target)],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        pytest.fail(f"gcc could not build {KERNELS_C.name}:\n{proc.stderr}")
    spec = importlib.util.spec_from_file_location("mfclab._kernels", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(params=["python", "compiled"])
def kernels(request):
    """Each kernel twin in turn: ``mfclab._kernels_py``, then the compiled one."""
    if request.param == "python":
        return _kernels_py
    return request.getfixturevalue("compiled_kernels")
