"""Run metadata: source revision, machine, and numerical library versions."""

import ctypes
import glob
import hashlib
import os
import platform

KEYS = ["git_commit", "src_sha256", "nproc", "cpu_model", "l3_cache",
        "python", "numpy", "openblas", "blas_threads_requested",
        "blas_threads_used"]


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def git_commit(root):
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    head = _read(os.path.join(root, ".git", "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(os.path.join(root, ".git", ref))
    if commit:
        return commit
    for line in (_read(os.path.join(root, ".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def source_digest(src):
    """sha256 over the package sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "xlab", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def cpu_model():
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def l3_cache():
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        if _read(os.path.join(index, "level")) == "3":
            return _read(os.path.join(index, "size"))
    return None


def steal_seconds():
    """CPU time the hypervisor has taken from this machine, over all CPUs."""
    fields = (_read("/proc/stat") or "").split("\n", 1)[0].split()
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def openblas():
    """(version, threads in use) of the OpenBLAS that numpy loaded."""
    import numpy as np
    version = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 has no mode="dicts"
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return version, fn()
    return version, None


def collect(root, src, threads_requested):
    import numpy as np
    version, used = openblas()
    return {
        "git_commit": git_commit(root),
        "src_sha256": source_digest(src),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "l3_cache": l3_cache(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": version,
        "blas_threads_requested": threads_requested,
        "blas_threads_used": used,
    }
