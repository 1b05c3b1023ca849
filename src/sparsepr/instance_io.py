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

The writer formats each row with one ``%`` call of repeated ``%.17g``,
the same conversion as ``format(v, ".17g")``, and streams the rows to
disk. So files are byte for byte those of the per-value join, and every
finite double reads back bit for bit. The reader parses the sensing
block in one ``np.loadtxt`` call and keeps the result only if it has
the expected shape and every value is finite; otherwise it reads the
block line by line with ``float``. So it accepts exactly the tokens
Python's ``float()`` accepts (``1_0`` and non-ASCII digits included),
and every error, bytes that are not UTF-8 included, is an
``InstanceFormatError`` naming its line.
"""

from __future__ import annotations

import warnings

import numpy as np

from .model import Ensemble, SparseSignal


class InstanceFormatError(ValueError):
    """Malformed SPR1 content; ``line`` is the 1-based offending line."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


def format_row(values) -> str:
    """One space-separated line of floats at 17 significant digits."""
    row = np.asarray(values, dtype=float).tolist()
    return " ".join(["%.17g"] * len(row)) % tuple(row)


def save_instance(path, signal: SparseSignal, ensemble: Ensemble) -> None:
    """Write one instance; dimensions are taken from the arguments."""
    if signal.n != ensemble.n:
        raise ValueError("signal and ensemble dimensions disagree")
    # row by row, so the whole file is never held in memory
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"SPR1 {signal.n} {ensemble.m} {signal.s}\n")
        fh.write(format_row(signal.to_dense()) + "\n")
        fh.writelines(format_row(row) + "\n" for row in ensemble.A)
        fh.write(format_row(ensemble.y) + "\n")


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


def _sensing_block(block: list[str], n: int) -> np.ndarray:
    """The m x n sensing matrix from its m lines (file lines 3..m+2)."""
    try:
        with warnings.catch_warnings():
            # an all-blank block parses to no rows, which the shape rejects
            warnings.filterwarnings("ignore", "loadtxt: input contained no",
                                    UserWarning)
            A = np.loadtxt(block, dtype=float, comments=None, ndmin=2)
    except ValueError:
        pass
    else:
        if A.shape == (len(block), n) and np.isfinite(A).all():
            return A
    # loadtxt rejects some tokens float() takes (1_0, non-ASCII digits) and
    # names no line; this loop accepts those and raises the line's error
    A = np.empty((len(block), n))
    for i, line in enumerate(block):
        A[i] = _parse_floats(line, n, 3 + i, "sensing")
    return A


def _read_lines(path) -> list[str]:
    """The file's lines as ``str.splitlines`` splits its text, read without
    holding the whole text; a byte that is not UTF-8 raises with its line."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        # universal newlines end each line at \n; splitlines then splits
        # it at the rarer breaks (\v, \f, \x1c, \u2028, ...)
        lines = [part for line in fh for part in line.splitlines()]
    for i, line in enumerate(lines, 1):
        # surrogateescape turns each bad byte into a lone surrogate, which
        # no valid UTF-8 decodes to, so only such a line fails to encode
        if not line.isascii():
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise InstanceFormatError(i, "not valid UTF-8") from None
    return lines


def load_instance(path) -> tuple[Ensemble, SparseSignal]:
    """Read one instance back as (Ensemble, SparseSignal)."""
    lines = _read_lines(path)
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

    A = _sensing_block(lines[2:2 + m], n)
    y = _parse_floats(lines[2 + m], m, 3 + m, "observation")
    if np.any(y < 0):
        raise InstanceFormatError(3 + m, "observations must be nonnegative")

    return Ensemble(n=n, m=m, A=A, y=y), signal
