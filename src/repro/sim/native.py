"""Loader of the C simulation kernels (``kernels.c`` beside this file).

Importing this module does nothing but bind names: no hashing, no file
system access, no compiler. The first :func:`library` call compiles
``kernels.c`` with the system ``cc`` into the user cache directory
(``$XDG_CACHE_HOME/repro/``, default ``~/.cache/repro/``), under a name
keyed by a hash of the source and the flags, and loads it through
ctypes. A later process finds the file and only loads it.

The build goes to a temporary file that :func:`os.replace` installs, so
two processes building at once each install a complete file and neither
can load a half-written one. A cached file that fails to load is
rebuilt once. When there is no compiler, or the build or load fails
again, :func:`library` returns ``None`` for the rest of the process and
logs one warning; the callers then run the same loops in Python
(:func:`repro.predictors.counters.drive_automata`,
:func:`repro.predictors.bht.drive_history`,
:meth:`repro.predictors.bht.BranchHistoryTable.miss_stream`), which give
the same results more slowly.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import tempfile
from pathlib import Path
from typing import Optional, Union

from repro.obs.logging import get_logger

SOURCE = Path(__file__).with_name("kernels.c")
FLAGS = ("-O2", "-shared", "-fPIC")

_I64 = ctypes.c_int64
_U64 = ctypes.c_uint64
_PTR = ctypes.c_void_p
_SIGNATURES = {
    "repro_automaton": (_PTR, _PTR, _I64, _PTR, _I64, _PTR, _PTR),
    "repro_lru": (_PTR, _I64, _U64, _I64, _PTR, _PTR, _PTR),
    "repro_history": (_PTR, _PTR, _PTR, _I64, _I64, _U64, _U64, _PTR, _PTR),
}

#: ``None`` until the first :func:`library` call, then the loaded
#: library or ``False`` when it is unavailable in this process.
_lib: Union[ctypes.CDLL, bool, None] = None


def compiler() -> Optional[str]:
    """Path of the C compiler, or ``None`` when there is none."""
    return shutil.which("cc")


def cache_dir() -> Path:
    """Where built libraries are kept."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro"


def library_path(source: bytes) -> Path:
    """The cached library built from ``source`` with :data:`FLAGS`."""
    import hashlib

    digest = hashlib.sha256(source + " ".join(FLAGS).encode()).hexdigest()
    return cache_dir() / f"kernels-{digest[:16]}.so"


def build(cc: str, target: Path) -> None:
    """Compile :data:`SOURCE` into ``target``, installed atomically."""
    import subprocess

    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=target.parent, prefix=".build-", suffix=".so"
    )
    os.close(fd)
    try:
        subprocess.run(
            [cc, *FLAGS, "-o", tmp, str(SOURCE)],
            check=True, capture_output=True, timeout=120,
        )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _open(path: Path) -> ctypes.CDLL:
    lib = ctypes.CDLL(str(path))
    for name, argtypes in _SIGNATURES.items():
        function = getattr(lib, name)
        function.argtypes = argtypes
        function.restype = None
    return lib


def _load() -> ctypes.CDLL:
    target = library_path(SOURCE.read_bytes())
    if target.exists():
        try:
            return _open(target)
        except OSError:
            pass  # damaged or foreign file: rebuild it once
    cc = compiler()
    if cc is None:
        raise OSError("no C compiler ('cc') on PATH")
    build(cc, target)
    return _open(target)


def library() -> Optional[ctypes.CDLL]:
    """The kernels library, or ``None`` when it cannot be had here."""
    global _lib
    if _lib is None:
        try:
            _lib = _load()
        except Exception as exc:  # any failure means: use the fallback
            _lib = False
            get_logger("repro.sim.native").warning(
                "native kernels unavailable (%s); using the Python "
                "counter, history and LRU loops, which are much slower", exc,
            )
    return _lib if isinstance(_lib, ctypes.CDLL) else None
