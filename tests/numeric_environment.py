"""The numeric environment the golden digests and the indexed-trajectory pins were recorded in.

``golden_environment.json`` holds it; a failing golden or pin test names it beside
the current one (``mismatch_note``), since another OpenBLAS core or SIMD level
changes the last bits of a run. The OpenBLAS core is read as CI's "Numeric
environment" step reads it: from the library bundled with the numpy wheel.
"""

import ctypes
import functools
import glob
import json
import os
import platform
from pathlib import Path

import numpy as np

RECORDED = json.loads(Path(__file__).with_name("golden_environment.json").read_text())


def _openblas(symbol: str, restype):
    """``symbol()`` of the wheel's bundled OpenBLAS, or "unknown" where there is none."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs",
                                       "*openblas*")):
        try:
            function = getattr(ctypes.CDLL(path), symbol)
        except (OSError, AttributeError):
            continue
        function.argtypes, function.restype = [], restype
        return function()
    return "unknown"


@functools.cache
def current() -> dict:
    """The fields of ``golden_environment.json`` as this process sees them."""
    core = _openblas("scipy_openblas_get_corename64_", ctypes.c_char_p)
    return {
        "openblas_core": core.decode() if isinstance(core, bytes) else core,
        "numpy": np.__version__,
        "simd": np.show_config(mode="dicts").get("SIMD Extensions", "unknown"),
        "glibc": "-".join(platform.libc_ver()) or "unknown",
        "blas_threads": _openblas("scipy_openblas_get_num_threads64_", ctypes.c_int),
    }


def mismatch_note() -> str:
    """The recorded and the current environment, for a failing digest's message."""
    recorded = {key: value for key, value in RECORDED.items() if key != "description"}
    return f"digests recorded under {recorded}; this run: {current()}"
