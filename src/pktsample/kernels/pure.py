"""Pure-Python sampling kernels.

This module is the reference implementation of the deterministic core
every sampler builds on.  A compiled twin lives in ``_native.c``; the
two must produce bit-identical output for equal inputs, which the test
suite enforces whenever the extension is importable.

PRNG contract
-------------
All randomness comes from SplitMix64 (Steele, Lea & Flood): the state
advances by the 64-bit golden-ratio constant and each output is the
standard two-round multiply-xorshift finalizer.  Seeds are taken modulo
2**64.  Bounded draws use mask-and-reject: draw 64 bits, mask down to
the smallest covering power of two, reject values >= bound.  A bound
lies in [1, 2**64), else ``ValueError``; a bound of 1 consumes no PRNG
output.  Substreams (one per stratum, one per Monte Carlo trial) are
derived as ``mix64(seed + GAMMA * (index + 1))`` so that adding a
stratum or trial never perturbs earlier streams.
Population, count, draw, trials and the number of classes must lie in
[0, 2**63); seeds and indices are any ints, taken modulo 2**64.

Two kernels build output from class codes.  ``shuffled_codes`` is the
code column of a synthesized dataset: the grouped codes of a class
histogram in ``permutation`` order.  ``csv_rows`` writes a header and
one CSV row per code (a position, then a pre-rendered cell per class)
as one ``str``; the synthesized dataset's CSV and every sample CSV
come from it.  Class codes are unsigned arrays of typecode B, H or I, as
``code_array`` picks them.

Every function here is a pure function of its arguments; golden output
vectors for pinned seeds are committed under ``tests/golden/``.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_right
from collections import Counter
from itertools import accumulate, islice
from operator import add, itemgetter

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15

_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
_BOUND_LIMIT = 1 << 64


def mix64(z: int) -> int:
    """SplitMix64 output finalizer (two multiply-xorshift rounds)."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MUL1) & MASK64
    z = ((z ^ (z >> 27)) * _MUL2) & MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, index: int) -> int:
    """Derive the substream seed for ``index`` (stratum or trial number)."""
    return mix64((seed + GAMMA * (index + 1)) & MASK64)


class Rng:
    """SplitMix64 stream over a 64-bit seed."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GAMMA) & MASK64
        return mix64(self.state)

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound) via mask-and-reject."""
        if not 1 <= bound < _BOUND_LIMIT:
            raise ValueError(f"bound must lie in [1, 2**64), got {bound!r}")
        return self._below(bound)

    def _below(self, bound: int) -> int:
        """``randbelow`` for a bound the caller knows lies in [1, 2**64)."""
        if bound == 1:
            return 0
        mask = (1 << (bound - 1).bit_length()) - 1
        while True:
            value = self.next_u64() & mask
            if value < bound:
                return value


_LIMIT = 1 << 63


def _check_sizes(**sizes: int) -> None:
    """Population, count, draw and trials must lie in [0, 2**63)."""
    for name, value in sizes.items():
        if not 0 <= value < _LIMIT:
            raise ValueError(f"{name} must lie in [0, 2**63), got {value!r}")


def _check_nonempty(population: int, count: int) -> None:
    if count > 0 and population == 0:
        raise ValueError("cannot draw from an empty population")


def permutation(count: int, seed: int) -> list[int]:
    """Fisher-Yates permutation of 0..count-1, high index downward."""
    _check_sizes(count=count)
    items = list(range(count))
    rng = Rng(seed)
    for i in range(count - 1, 0, -1):
        j = rng._below(i + 1)
        items[i], items[j] = items[j], items[i]
    return items


def code_array(codes, nclasses: int) -> array:
    """Class codes in the narrowest unsigned ``array`` that holds
    ``nclasses`` codes: typecode B up to 256 classes, H up to 65536, else I."""
    if nclasses <= 0x100:
        return array("B", bytes(codes))  # bytes() converts a list of ints in C
    return array("H" if nclasses <= 0x10000 else "I", codes)


_CLASS_LIMIT = 1 << 32  # codes lie in [0, 2**32): typecode I
_RECORD_LIMIT = sys.maxsize // 8  # the records a list (8 bytes each) can hold


def shuffled_codes(counts, seed: int) -> array:
    """The class codes of the grouped arrangement (``counts[c]`` records of
    class ``c``, classes in order) shuffled by ``permutation``: item i is
    ``grouped[permutation(total, seed)[i]]``.  Returned as ``code_array``
    returns them.  A total of more than ``sys.maxsize // 8`` records
    raises ``MemoryError`` before anything is allocated."""
    counts = tuple(counts)
    for count in counts:
        _check_sizes(counts=count)
    total = sum(counts)
    if total >= _LIMIT:
        raise ValueError("counts must total less than 2**63")
    if len(counts) > _CLASS_LIMIT:
        raise ValueError("counts must hold at most 2**32 classes")
    if total > _RECORD_LIMIT:
        raise MemoryError()
    grouped: list[int] = []
    for code, count in enumerate(counts):
        grouped += [code] * count
    if total > 1:
        # itemgetter gathers in C; given one index it returns the item
        # itself, and one record has nothing to shuffle
        grouped = itemgetter(*permutation(total, seed))(grouped)
    return code_array(grouped, len(counts))


_JOIN_ROWS = 8192  # rows joined per step


def csv_rows(codes, cells, positions=None, head: str = "") -> str:
    """``head``, then one CSV row per code: row i is the decimal
    ``positions[i]`` (or ``i + 1`` when ``positions`` is None) followed
    by ``cells[codes[i]]``.

    ``codes`` is a one-dimensional buffer of B, H or I codes, ``cells`` a
    sequence of ``str`` (each the rest of a row, line end included) and
    ``positions`` an ``array('q')`` as long as ``codes``.  Rows are joined
    a few thousand at a time, so the text is held about twice, not as
    one string object per row.
    """
    if not isinstance(head, str):
        raise TypeError(f"head must be str, not {type(head).__name__}")
    view = memoryview(codes)
    if view.ndim != 1 or view.format not in ("B", "H", "I"):
        raise TypeError("codes must be a one-dimensional buffer of B, H or I codes")
    cells = tuple(cells)
    for cell in cells:
        if not isinstance(cell, str):
            raise TypeError(f"cells must be str, not {type(cell).__name__}")
    if positions is None:
        numbers = range(1, len(view) + 1)
    else:
        numbers = memoryview(positions)
        if numbers.ndim != 1 or numbers.format != "q":
            raise TypeError("positions must be a one-dimensional buffer of q ints")
        if len(numbers) != len(view):
            raise ValueError(
                f"positions and codes differ in length ({len(numbers)} != {len(view)})"
            )
    if view and max(view) >= len(cells):
        code = next(code for code in view if code >= len(cells))
        raise ValueError(f"codes must lie in [0, {len(cells)}), got {code}")
    rows = map(add, map(str, numbers), map(cells.__getitem__, view))
    chunks = iter(lambda: "".join(islice(rows, _JOIN_ROWS)), "")
    return "".join([head, *chunks])


def _drawn(below, population: int, count: int):
    """The 0-based positions that ``count`` steps of a partial Fisher-Yates
    over the virtual array 0..population-1 take, in step order; step i
    swaps slot i with slot ``i + below(population - i)``.  Only touched
    slots are tracked, so memory follows ``count``."""
    swaps: dict[int, int] = {}
    get = swaps.get
    for i in range(count):
        j = i + below(population - i)
        taken = get(j, j)
        swaps[j] = get(i, i)
        yield taken


def sample_without_replacement(population: int, count: int, seed: int) -> list[int]:
    """Uniform simple random sample of distinct 1-based positions, ascending:
    ``_drawn``'s positions, sorted.  When ``count >= population`` the whole
    population is returned and no PRNG output is consumed.
    """
    _check_sizes(population=population, count=count)
    if count >= population:
        return list(range(1, population + 1))
    return sorted(taken + 1 for taken in _drawn(Rng(seed)._below, population, count))


def sample_with_replacement(population: int, count: int, seed: int) -> list[int]:
    """``count`` independent uniform draws of 1-based positions, draw order."""
    _check_sizes(population=population, count=count)
    _check_nonempty(population, count)
    rng = Rng(seed)
    return [rng._below(population) + 1 for _ in range(count)]


def class_count_trials(
    counts: list[int],
    draw: int,
    trials: int,
    seed: int,
    with_replacement: bool = False,
    first: int = 0,
) -> list[list[int]]:
    """Per-class sampled counts of trials ``first .. first + trials - 1``
    of uniform sampling.

    The population is the concatenation of class blocks sized by
    ``counts``; trial ``t`` runs on the substream ``derive_seed(seed, t)``,
    so a run of trials split into blocks gives the rows of one call.
    Exchangeability makes the block layout statistically identical to any
    record ordering for uniform draws.  A position's class is found by
    bisecting the cumulative block ends, so memory follows the class and
    draw counts, not the population.
    """
    for count in counts:
        _check_sizes(counts=count)
    ends = list(accumulate(counts))
    population = ends[-1] if ends else 0
    _check_sizes(population=population, draw=draw, trials=trials)
    if with_replacement:
        _check_nonempty(population, draw)
    else:
        draw = min(draw, population)
    rows = []
    for trial in range(first, first + trials):
        randbelow = Rng(derive_seed(seed, trial))._below
        row = [0] * len(ends)
        if with_replacement:
            for _ in range(draw):
                row[bisect_right(ends, randbelow(population))] += 1
        else:
            for taken in _drawn(randbelow, population, draw):
                row[bisect_right(ends, taken)] += 1
        rows.append(row)
    return rows


_CODE_FORMATS = ("B", "H", "I", "L", "Q")


def count_codes(codes, nclasses: int) -> list[int]:
    """The number of records of each code.

    ``codes`` is a one-dimensional buffer of unsigned ints (an ``array``
    of typecode B, H, I, L or Q) whose every code lies in [0, nclasses).
    """
    _check_sizes(nclasses=nclasses)
    view = memoryview(codes)
    if view.ndim != 1 or view.format not in _CODE_FORMATS:
        raise TypeError("codes must be a one-dimensional buffer of unsigned ints")
    counted = Counter(view)
    if counted and max(counted) >= nclasses:
        code = next(code for code in view if code >= nclasses)
        raise ValueError(f"codes must lie in [0, {nclasses}), got {code}")
    counts = [0] * nclasses
    for code, count in counted.items():
        counts[code] = count
    return counts


def group_by_code(codes, nclasses: int) -> tuple[list[int], array]:
    """Stable counting sort of class codes.

    ``codes`` is a buffer as ``count_codes`` takes it.  Returns the number
    of records of each code and the 1-based positions of the records
    grouped by code, ascending within a code, as ``array('q')``.
    """
    counts = count_codes(codes, nclasses)
    view = memoryview(codes)
    starts = [0, *accumulate(counts)]
    positions = array("q", bytes(8 * len(view)))
    for position, code in enumerate(view, start=1):
        positions[starts[code]] = position
        starts[code] += 1
    return counts, positions
