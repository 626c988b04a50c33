"""Exception hierarchy for pktsample.

Contract violations raise dedicated subclasses so callers can tell data
problems from configuration problems.  The CLI exits 2 on a
``UsageError`` (a bad flag, spec or runs file) and 1 on any other
``PktSampleError``.
"""

from __future__ import annotations


class PktSampleError(Exception):
    """Base class for all pktsample errors."""


class MissingLabelColumn(PktSampleError):
    """The input header/object lacks the requested label column."""


class EmptyLabel(PktSampleError):
    """A row's label is blank after trimming; the whole file is rejected."""


class MalformedRow(PktSampleError):
    """A row cannot be parsed (column-count mismatch or bad JSON line)."""


class InvalidUtf8(MalformedRow):
    """Input bytes are not valid UTF-8."""


class SourceChanged(PktSampleError):
    """A file changed after it was loaded, so its records' attributes can no
    longer be read from it."""


class EmptyDataset(PktSampleError):
    """An operation requires at least one record."""


class ZeroTotal(PktSampleError):
    """A histogram spec with zero total cannot be synthesized."""


class UsageError(PktSampleError):
    """A flag, spec or runs file the user gave is invalid (exit code 2)."""


class HistogramSpecError(UsageError):
    """A histogram spec file is malformed."""


class ZeroPopulation(PktSampleError):
    """A ratio over an empty population was requested."""


class CountExceedsPopulation(PktSampleError):
    """A count larger than the population was passed where impossible."""


class TargetExceedsPopulation(PktSampleError):
    """A sample size target exceeds the population."""


class UnknownLabelInSample(PktSampleError):
    """A sample references a label absent from the source histogram."""


class EmptySeries(PktSampleError):
    """A series export needs at least one point."""


class NonMonotonicAxis(PktSampleError):
    """Series x-values must be strictly increasing."""
