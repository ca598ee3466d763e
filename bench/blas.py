"""BLAS thread pinning and the run-environment record.

numpy and scipy each bundle their own OpenBLAS.  numpy's copy is built
with 64-bit integers and exports its symbols with a `64_` suffix;
scipy's copy exports the same names without it.  Both are pinned through
the environment before numpy is first imported, and both are read back
through ctypes, because a copy that kept its default thread count would
change timings several-fold on a small machine.
"""

import ctypes
import glob
import os
import platform
from pathlib import Path

PIN_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS")

# (package, library directory next to the package, file pattern, suffix)
OPENBLAS_COPIES = (
    ("numpy", "numpy.libs", "libscipy_openblas64_*.so", "64_"),
    ("scipy", "scipy.libs", "libscipy_openblas-*.so", ""),
)


class BlasPinError(RuntimeError):
    """A bundled OpenBLAS copy is missing or runs more than one thread."""


def pin_threads():
    """Ask every BLAS for one thread; effective only before numpy loads."""
    for name in PIN_VARIABLES:
        os.environ[name] = "1"


def _read_copy(package, libdir, pattern, suffix):
    module = __import__(package)
    site = Path(module.__file__).resolve().parent.parent
    paths = sorted(glob.glob(str(site / libdir / pattern)))
    if len(paths) != 1:
        raise BlasPinError(f"expected one {package} OpenBLAS in "
                           f"{site / libdir}, found {len(paths)}")
    # dlopen of an already loaded library returns that same copy
    lib = ctypes.CDLL(paths[0])
    get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
    get_threads.argtypes = []
    get_threads.restype = ctypes.c_int
    get_config = getattr(lib, f"scipy_openblas_get_config{suffix}")
    get_config.argtypes = []
    get_config.restype = ctypes.c_char_p
    return {
        "package": package,
        "library": Path(paths[0]).name,
        "config": get_config().decode().strip(),
        "threads": int(get_threads()),
    }


def openblas_copies():
    """Build string and live thread count of both bundled OpenBLAS copies."""
    import numpy  # noqa: F401  (loads numpy's copy)
    import scipy.linalg  # noqa: F401  (loads scipy's copy)
    return [_read_copy(*copy) for copy in OPENBLAS_COPIES]


def check_pinned(copies):
    """Raise unless every copy reads back exactly one thread."""
    loose = [c for c in copies if c["threads"] != 1]
    if loose:
        raise BlasPinError("BLAS is not pinned to one thread: " + ", ".join(
            f"{c['package']} OpenBLAS runs {c['threads']}" for c in loose))


def git_commit(root):
    """HEAD commit of a checkout, read from .git; 'unknown' outside git."""
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root, copies):
    """Everything a timing depends on besides the code under test."""
    import numpy
    import scipy
    return {
        "blas": copies,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(root),
        "machine": platform.machine(),
    }
