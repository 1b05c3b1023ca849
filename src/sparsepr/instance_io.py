"""SPR1 instance files: a textual interchange format for problem instances.

Layout (UTF-8, space-separated, floats at 17 significant digits):

    SPR1 n m s
    x_1 ... x_n          dense ground-truth signal, zeros included
    A_11 ... A_1n        m rows of sensing vectors
    ...
    A_m1 ... A_mn
    y_1 ... y_m          magnitude observations

The header sparsity s must equal the number of nonzeros on the signal
line (s >= 1: the zero signal is not representable). Readers reject
mismatched counts, non-finite values, and negative observations, naming
the offending 1-based line number.
"""

from __future__ import annotations

import numpy as np

from .model import Ensemble, SparseSignal


class InstanceFormatError(ValueError):
    """Malformed SPR1 content; ``line`` is the 1-based offending line."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


def format_row(values) -> str:
    """One space-separated line of floats at 17 significant digits."""
    return " ".join(format(float(v), ".17g") for v in values)


def save_instance(path, signal: SparseSignal, ensemble: Ensemble) -> None:
    """Write one instance; dimensions are taken from the arguments."""
    if signal.n != ensemble.n:
        raise ValueError("signal and ensemble dimensions disagree")
    lines = [f"SPR1 {signal.n} {ensemble.m} {signal.s}",
             format_row(signal.to_dense())]
    lines.extend(format_row(row) for row in ensemble.A)
    lines.append(format_row(ensemble.y))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_floats(token_line: str, count: int, line_no: int,
                  what: str) -> np.ndarray:
    tokens = token_line.split()
    if len(tokens) != count:
        raise InstanceFormatError(
            line_no, f"expected {count} {what} values, found {len(tokens)}")
    try:
        values = np.array([float(t) for t in tokens])
    except ValueError:
        raise InstanceFormatError(line_no, f"unparseable {what} value") from None
    if not np.all(np.isfinite(values)):
        raise InstanceFormatError(line_no, f"non-finite {what} value")
    return values


def load_instance(path) -> tuple[Ensemble, SparseSignal]:
    """Read one instance back as (Ensemble, SparseSignal)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise InstanceFormatError(1, "empty file")

    header = lines[0].split()
    if len(header) != 4 or header[0] != "SPR1":
        raise InstanceFormatError(1, "header must read 'SPR1 n m s'")
    try:
        n, m, s = (int(t) for t in header[1:])
    except ValueError:
        raise InstanceFormatError(1, "header dimensions must be integers") from None
    if n < 1 or m < 1 or s < 1 or s > n:
        raise InstanceFormatError(1, "header dimensions out of range")

    expected_lines = 2 + m + 1
    if len(lines) < expected_lines:
        raise InstanceFormatError(
            len(lines) + 1, f"file truncated: expected {expected_lines} lines")
    if any(lines[i].strip() for i in range(expected_lines, len(lines))):
        raise InstanceFormatError(expected_lines + 1, "trailing content")

    x = _parse_floats(lines[1], n, 2, "signal")
    support = np.flatnonzero(x)
    if support.size != s:
        raise InstanceFormatError(
            2, f"signal has {support.size} nonzeros, header says {s}")
    signal = SparseSignal(n=n, support=support, values=x[support])

    A = np.empty((m, n))
    for i in range(m):
        A[i] = _parse_floats(lines[2 + i], n, 3 + i, "sensing")
    y = _parse_floats(lines[2 + m], m, 3 + m, "observation")
    if np.any(y < 0):
        raise InstanceFormatError(3 + m, "observations must be nonnegative")

    A.flags.writeable = False
    y.flags.writeable = False
    ensemble = Ensemble(n=n, m=m, A=A, y=y)
    return ensemble, signal
