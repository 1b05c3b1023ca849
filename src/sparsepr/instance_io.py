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

Every value is written as ``format(v, ".17g")`` writes it, so every
finite double reads back bit for bit. A numpy kernel writes 8 rows at a
time (17 digits from an exact 128-bit product of the significand and a
power of five, laid out by ``%g``'s rules), exactly for 0 and 2^-30 <=
|v| < 2^49; a row holding any other value is formatted by one ``%``
call of repeated ``%.17g``. The reader parses the sensing block in one
``np.loadtxt`` call and keeps the result only if it has the expected
shape and every value is finite; otherwise it reads the block line by
line with ``float``. So it accepts exactly the tokens Python's
``float()`` accepts (``1_0`` and non-ASCII digits included), and every
error, bytes that are not UTF-8 included, is an ``InstanceFormatError``
naming its line.
"""

from __future__ import annotations

import functools
import warnings

import numpy as np

from .model import Ensemble, SparseSignal


class InstanceFormatError(ValueError):
    """Malformed SPR1 content; ``line`` is the 1-based offending line."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


_U = np.uint64
_POW5 = 5 ** np.arange(28, dtype=_U)


def _scaled(a, X):
    """Floor and round-half-even of a 10^(16-X), exactly: a = M 2^(E-53),
    so it is M 5^(16-X) / 2^r, a 128-bit product shifted by r >= 1."""
    f, E = np.frexp(a)
    M, P = (f * 2.0 ** 53).astype(_U), _POW5[16 - X]
    r, low, w = (37 - E + X).astype(_U), _U(2 ** 32 - 1), _U(32)
    ml, mh, pl, ph = M & low, M >> w, P & low, P >> w
    ll, lh, hl = ml * pl, ml * ph, mh * pl
    mid = (ll >> w) + (lh & low) + (hl & low)
    lo = (ll & low) | (mid << w)
    hi = mh * ph + (lh >> w) + (hl >> w) + (mid >> w)
    q = (hi << (_U(64) - r)) | (lo >> r)
    rem, half = lo & ((_U(1) << r) - _U(1)), _U(1) << (r - _U(1))
    return q, q + ((rem > half) | ((rem == half) & (q & _U(1) == 1)))


@functools.cache
def _tables():
    """The kernel's group digits, trailing zeros, prefix, suffix, masks."""
    groups = np.arange(10 ** 4)[:, None]
    quads = (groups // 10 ** np.arange(3, -1, -1) % 10 + 48).astype(np.uint8)
    quads = quads.view("<u4").ravel().astype(_U)
    trailing = (groups % 10 ** np.arange(1, 5) == 0).sum(axis=1)
    head = b"".join(b"\0" + (b"0." + b"0" * (-x - 1)).ljust(7, b"\0")
                    if -4 <= x < 0 else bytes(8) for x in range(-10, 15))
    tail = b"".join((b"\0e-%02d " % -x if x < -4 else b"\0\0\0\0\0 ")
                    + bytes(2) for x in range(-10, 15))
    below = (np.arange(1, 25) < np.arange(20)[:, None]) * np.uint8(255)
    words = [np.frombuffer(t, "<u8").astype(_U) for t in (head, tail)]
    return quads, trailing, *words, below.view("<u8").T.astype(_U)


def _kernel(rows: np.ndarray) -> bytes:
    """The lines of rows of fast-range values. Each v = q 10^(X-16) with
    10^16 <= q < 10^17 (no such double is within 10^(X-16)/2 below a power
    of ten, so rounding never carries into X; 0 is q = X = 0) fills four
    words: the sign at byte 0, the '0.000' of -4 <= X < 0 at 1..5, digit
    position j < K at 7 + j (digit j before the point at P, j - 1 after),
    'e-XX' of X < -4 at 25..28, the separator at 29; zero bytes drop."""
    quads, trailing, head, tail, masks = _tables()
    v = rows.ravel()
    nz = v != 0
    a = np.where(nz, np.abs(v), 1.0)
    X = np.floor(np.log10(a)).astype(np.int64)
    q0, q = _scaled(a, X)
    # log10 can miss by one next to a power of ten
    if (fix := (q0 >= _U(10 ** 17)) | (q0 < _U(10 ** 16))).any():
        X[fix] += np.where(q0[fix] < _U(10 ** 16), -1, 1)
        q[fix] = _scaled(a[fix], X[fix])[1]
    hi, lo = np.divmod(np.where(nz, q, _U(0)), _U(10 ** 8))
    first, hi = np.divmod(hi, _U(10 ** 8))
    g = (*np.divmod(hi, _U(10 ** 4)), *np.divmod(lo, _U(10 ** 4)))
    nd = 17 - trailing[g[3]] - (g[3] == 0) * (trailing[g[2]] + (g[2] == 0) * (
        trailing[g[1]] + (g[1] == 0) * trailing[g[0]]))  # significant digits
    P = np.where(X >= 0, X + 1, np.where(X < -4, 1, 17))
    K = np.maximum(nd + (nd > P), np.maximum(X + 1, 1))
    first += _U(48)
    w1, w2 = (quads[g[k]] | quads[g[k + 1]] << _U(32) for k in (0, 2))
    # words 1..3 with digit j, and with digit j - 1, at byte 7 + j
    after = (w1 << _U(8) | first, w2 << _U(8) | w1 >> _U(56), w2 >> _U(56))
    points = _U(0x2E2E2E2E2E2E2E2E)
    cells = np.empty((v.size, 4), "<u8")
    cells[:, 0] = head[X + 10] | np.signbit(v) * _U(45) | first << _U(56)
    for i, (at, below) in enumerate(zip((w1, w2, 0), masks)):
        before, through = below[P], below[P + 1]
        cells[:, i + 1] = below[K] & (at & before | after[i] & ~through
                                      | points & (before ^ through))
    cells[:, 3] |= tail[X + 10]
    cells[rows.shape[1] - 1::rows.shape[1], 3] ^= _U(0x2A << 40)  # '\n'
    return cells.tobytes().translate(None, b"\0")


def _lines(rows: np.ndarray) -> str:
    """Each row of a 2-d float block as one SPR1 line, newline included."""
    a = np.abs(rows)
    if rows.size and np.all((a == 0) | ((a >= 2.0 ** -30) & (a < 2.0 ** 49))):
        return _kernel(rows).decode("ascii")
    if len(rows) > 1:
        return "".join(_lines(row[None]) for row in rows)
    return " ".join(["%.17g"] * rows.shape[1]) % tuple(rows[0].tolist()) + "\n"


def format_row(values) -> str:
    """One space-separated line of floats at 17 significant digits."""
    return _lines(np.asarray(values, dtype=float).reshape(1, -1))[:-1]


def save_instance(path, signal: SparseSignal, ensemble: Ensemble) -> None:
    """Write one instance; dimensions are taken from the arguments."""
    if signal.n != ensemble.n:
        raise ValueError("signal and ensemble dimensions disagree")
    # 8 rows at a time, so the whole file is never held in memory
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"SPR1 {signal.n} {ensemble.m} {signal.s}\n")
        fh.write(format_row(signal.to_dense()) + "\n")
        for i in range(0, ensemble.m, 8):
            fh.write(_lines(ensemble.A[i:i + 8]))
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
