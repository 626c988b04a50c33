"""Kernel backend selection.

Prefers the compiled extension (``_native``) and falls back to the
pure-Python twin when the extension was not built.  Set the environment
variable ``PKTSAMPLE_KERNELS`` to ``pure`` or ``native`` to force a
backend (useful for benchmarks and the equivalence tests).
"""

from __future__ import annotations

import os

from pktsample.kernels import pure as _pure_module

_requested = os.environ.get("PKTSAMPLE_KERNELS", "").strip().lower()

if _requested == "pure":
    _impl = _pure_module
elif _requested == "native":
    from pktsample.kernels import _native as _impl  # type: ignore[no-redef]
elif _requested == "":
    try:
        from pktsample.kernels import _native as _impl  # type: ignore[no-redef]
    except ImportError:
        _impl = _pure_module
else:
    raise ImportError(
        f"PKTSAMPLE_KERNELS={_requested!r} is not a backend (use 'pure' or 'native')"
    )

BACKEND = "pure" if _impl is _pure_module else "native"

derive_seed = _impl.derive_seed
permutation = _impl.permutation
sample_without_replacement = _impl.sample_without_replacement
sample_with_replacement = _impl.sample_with_replacement
missing_class_trials = _impl.missing_class_trials
class_total_trials = _impl.class_total_trials


def backend_name() -> str:
    """Name of the active kernel backend ('pure' or 'native')."""
    return BACKEND


def available_backends() -> list[str]:
    """Backends importable in this environment."""
    names = ["pure"]
    try:
        from pktsample.kernels import _native  # noqa: F401
    except ImportError:
        pass
    else:
        names.append("native")
    return names
