"""Kernel backend selection.

Prefers the compiled extension (``_native``) and falls back to the
pure-Python twin when the extension was not built.  Set the environment
variable ``PKTSAMPLE_KERNELS`` to ``pure`` or ``native`` to force a
backend (useful for benchmarks and the equivalence tests).
"""

from __future__ import annotations

import os
from operator import add

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
group_by_code = _impl.group_by_code
# Label scanners exist only in C; without them ``pktsample.dataset`` parses
# with its Python parser, which is also the reference the scanners follow.
scan_csv_labels = None if _impl is _pure_module else _impl.scan_csv_labels
scan_ndjson_labels = None if _impl is _pure_module else _impl.scan_ndjson_labels


_TRIAL_BLOCK = 1024  # trials per kernel call: the rows held at once


def _trial_blocks(counts, draw, trials, seed, with_replacement):
    """``class_count_trials`` rows, ``_TRIAL_BLOCK`` trials at a time, so
    memory does not grow with ``trials``.  Trial ``t`` keeps its substream,
    so the rows are those of one call.  No trials still makes one call,
    which checks the other arguments."""
    _pure_module._check_sizes(trials=trials)
    for first in range(0, trials or 1, _TRIAL_BLOCK):
        yield _impl.class_count_trials(
            counts, draw, min(_TRIAL_BLOCK, trials - first), seed, with_replacement, first
        )


def missing_class_trials(counts, draw, trials, seed, with_replacement=False) -> list[int]:
    """Per-trial missing-class counts (see ``class_count_trials``)."""
    return [
        row.count(0)
        for rows in _trial_blocks(counts, draw, trials, seed, with_replacement)
        for row in rows
    ]


def class_total_trials(counts, draw, trials, seed, with_replacement=False) -> list[int]:
    """Per-class sampled counts summed over ``trials`` substream runs."""
    totals = [0] * len(counts)
    for rows in _trial_blocks(counts, draw, trials, seed, with_replacement):
        for row in rows:
            totals = list(map(add, totals, row))
    return totals


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
