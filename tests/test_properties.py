"""Property tests: malformed outside input and the one ranking rule.

Grid configs arrive as JSON and instances as SPR1 text. The CLI maps
ConfigError and InstanceFormatError to exit code 2, so any other
exception from these two readers would end in a traceback. The SPR1
reader's bulk parse must do what a line-by-line ``float`` parse does,
and the SPR1 writer must write what ``format(v, ".17g")`` writes.
No solver runs here. The one ranking rule that TP, HTP and the
anchored initializers select with (top-k, truncation and the diagonal
anchor order) is checked against a full sort on tie-heavy inputs.
"""

import contextlib
import copy
import io
import json
import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402
from test_instance_io import spec_lines  # noqa: E402

from sparsepr import (cli, diagonal_anchors, harness,  # noqa: E402
                      truncate)
from sparsepr.harness import ConfigError, grid_from_dict  # noqa: E402
from sparsepr.initializers import (_ranked,  # noqa: E402
                                   top_magnitude_indices)
from sparsepr.instance_io import (InstanceFormatError,  # noqa: E402
                                  _parse_floats, format_row, load_instance,
                                  save_instance)
from sparsepr.model import Ensemble, SparseSignal  # noqa: E402

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner,
                                     max_size=3)),
    max_leaves=8)
edge_values = st.sampled_from([None, True, 0, -1, 1.5, 50.0, 2**64, 10**400,
                               math.nan, math.inf, "1", [], {}])

VALID_GRID = {"n": 16, "s_list": [2], "m_list": [40], "trials": 1, "seed": 1,
              "methods": ["tp"], "success_threshold": 1e-3,
              "configs": {"restarts": 2}}
# (path to a dict inside VALID_GRID, key in it); "init" and "htp" are
# retired sections
TARGETS = ([((), key) for key in [*VALID_GRID, "bogus"]]
           + [(("configs",), key) for key in ("init", "htp", "restarts",
                                                "bogus")])


@st.composite
def grid_configs(draw):
    """The valid grid with one key dropped or set to another value."""
    data = copy.deepcopy(VALID_GRID)
    path, key = draw(st.sampled_from(TARGETS))
    where = data
    for step in path:
        where = where[step]
    if draw(st.booleans()):
        where[key] = draw(edge_values | json_values)
    else:
        where.pop(key, None)
    return data


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.one_of(grid_configs(), json_values))
def test_grid_config_errors_are_config_errors(data):
    try:
        grid_from_dict(data)
    except ConfigError:
        pass


def _no_run(grid, parallelism=1, record_timing=True):
    return harness.GridResult(records=[], cells=[])


def _grid_cli(config_path, out_path):
    """Exit code and stderr of `sparsepr grid` with no grid run."""
    err = io.StringIO()
    with mock.patch.object(harness, "run_grid", _no_run), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(["grid", "--config", config_path, "--threads", "1",
                         "--out", out_path])
    return code, err.getvalue()


@settings(derandomize=True, deadline=None, max_examples=200)
@given(grid_configs())
def test_grid_cli_exits_0_or_2_with_one_error_line(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "grid.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        code, err = _grid_cli(path, os.path.join(tmp, "r.csv"))
    assert code in (0, 2)
    if code == 0:
        assert err == ""
    else:
        assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_grid_cli_missing_config_exits_3(tmp_path):
    code, err = _grid_cli(str(tmp_path / "absent.json"),
                          str(tmp_path / "r.csv"))
    assert code == 3
    assert len(err.splitlines()) == 1 and err.startswith("error:")


VALID_SPR1 = ["SPR1 3 2 1", "0 1.5 0", "1 2 3", "-1 0.5 2", "3 0.75"]

# tokens aimed at the C parser (np.loadtxt) that reads the sensing block
C_PARSER_TOKENS = ["#", "1#2", '"1"', "'1'", "1,5", "\t1", "+nan", "0x1p3"]
tokens = (st.sampled_from(["0", "1", "-1", "2.5", "-0", "nan", "inf",
                           "1e999", "SPR1", "x", "1_0", "٣",
                           *C_PARSER_TOKENS])
          | st.text(st.characters(exclude_categories=("Cs",)), max_size=4))
lines = st.lists(tokens, max_size=5).map(" ".join)


@st.composite
def mutated_instance(draw):
    """The valid instance with one token or line replaced, dropped or
    added."""
    out = [line.split() for line in VALID_SPR1]
    row = draw(st.integers(0, len(out) - 1))
    col = draw(st.integers(0, len(out[row]) - 1))
    action = draw(st.sampled_from(["token", "line", "drop", "insert"]))
    if action == "token":
        out[row][col] = draw(tokens)
    elif action == "line":
        out[row] = draw(lines).split(" ")
    elif action == "drop":
        del out[row]
    else:
        out.insert(row, draw(lines).split(" "))
    return "\n".join(" ".join(line) for line in out) + "\n"


spr1_texts = st.one_of(
    mutated_instance(),
    st.builds(lambda dims, body: "\n".join(
        ["SPR1 %d %d %d" % dims] + body),
        st.tuples(*[st.integers(-1, 4)] * 3), st.lists(lines, max_size=7)),
    st.text(st.characters(exclude_categories=("Cs",)), max_size=60))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(spr1_texts)
def test_spr1_errors_are_instance_format_errors(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "inst.spr1")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            load_instance(path)
        except InstanceFormatError:
            pass


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def mutated_block_instance(draw):
    """A valid instance of drawn size with up to three tokens or lines of
    its sensing block replaced, so the reader's bulk parse meets them."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 5))
    x = [0.0] * n
    x[draw(st.integers(0, n - 1))] = 1.0
    A = draw(st.lists(st.lists(finite.map(repr), min_size=n, max_size=n),
                      min_size=m, max_size=m))
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.integers(0, m - 1))
        if draw(st.booleans()):
            A[row][draw(st.integers(0, len(A[row]) - 1))] = draw(
                st.sampled_from(C_PARSER_TOKENS) | tokens)
        else:
            A[row] = draw(lines).split(" ")
    body = [" ".join(map(repr, x))] + [" ".join(r) for r in A]
    return "\n".join([f"SPR1 {n} {m} 1", *body, " ".join(["1"] * m)]) + "\n"


def per_line_load(path):
    """The reader with every line parsed by ``float`` alone: (x, A, y)."""
    with open(path, "r", encoding="utf-8") as fh:
        text_lines = fh.read().splitlines()
    if not text_lines:
        raise InstanceFormatError(1, "empty file")
    header = text_lines[0].split()
    if len(header) != 4 or header[0] != "SPR1":
        raise InstanceFormatError(1, "header must read 'SPR1 n m s'")
    try:
        n, m, s = (int(t) for t in header[1:])
    except ValueError:
        raise InstanceFormatError(1, "header dimensions must be integers")
    if n < 1 or m < 1 or s < 1 or s > n:
        raise InstanceFormatError(1, "header dimensions out of range")
    if len(text_lines) < m + 3:
        raise InstanceFormatError(len(text_lines) + 1,
                                  f"file truncated: expected {m + 3} lines")
    if any(line.strip() for line in text_lines[m + 3:]):
        raise InstanceFormatError(m + 4, "trailing content")
    x = _parse_floats(text_lines[1], n, 2, "signal")
    if np.count_nonzero(x) != s:
        raise InstanceFormatError(
            2, f"signal has {np.count_nonzero(x)} nonzeros, header says {s}")
    A = np.array([_parse_floats(text_lines[2 + i], n, 3 + i, "sensing")
                  for i in range(m)])
    y = _parse_floats(text_lines[2 + m], m, 3 + m, "observation")
    if np.any(y < 0):
        raise InstanceFormatError(3 + m, "observations must be nonnegative")
    return x, A, y


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.one_of(spr1_texts, mutated_block_instance()))
def test_bulk_reader_matches_per_line_reader(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "inst.spr1")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            expected = per_line_load(path)
        except InstanceFormatError as exc:
            with pytest.raises(InstanceFormatError) as err:
                load_instance(path)
            assert (err.value.line, str(err.value)) == (exc.line, str(exc))
            return
        e, signal = load_instance(path)
    x, A, y = expected
    support = np.flatnonzero(x)
    assert np.array_equal(signal.support, support)
    assert signal.values.tobytes() == x[support].tobytes()
    assert e.A.tobytes() == A.tobytes()
    assert e.y.tobytes() == y.tobytes()


fast_range = (st.floats(2.0 ** -30, 2.0 ** 49, exclude_max=True)
              | st.floats(-(2.0 ** 49), -(2.0 ** -30), exclude_min=True)
              | st.sampled_from([0.0, -0.0]))


def matrices(elements):
    # more than 8 rows spans blocks of the writer
    return hnp.arrays(np.float64, st.tuples(st.integers(1, 20),
                                            st.integers(1, 8)),
                      elements=elements)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.one_of(matrices(st.floats(allow_nan=False, allow_infinity=False,
                                    width=64)),
                 matrices(fast_range)))
def test_writer_bytes_are_the_per_value_format(A):
    # any finite values, subnormals included, and arrays whose rows all
    # lie in the range the kernel writes
    x = SparseSignal(n=A.shape[1], support=[0], values=[1.0])
    # y clipped, so that nu = rms(y) stays finite
    e = Ensemble.from_measurements(A, np.abs(A[:, 0]).clip(max=1e150))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "inst.spr1")
        save_instance(path, x, e)
        with open(path, "rb") as fh:
            data = fh.read()
    assert data == ("\n".join(spec_lines(x, e)) + "\n").encode("utf-8")
    for row, line in zip(A, spec_lines(x, e)[2:]):
        assert format_row(row) == line


@st.composite
def negative_observation_instances(draw):
    """(text, m) of an SPR1 file that is valid except for one negative
    observation."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    x = draw(st.lists(finite, min_size=n, max_size=n))
    x[draw(st.integers(0, n - 1))] = draw(finite.filter(bool))
    A = draw(st.lists(st.lists(finite, min_size=n, max_size=n),
                      min_size=m, max_size=m))
    y = draw(st.lists(st.floats(0, 1e300), min_size=m, max_size=m))
    y[draw(st.integers(0, m - 1))] = draw(
        st.floats(max_value=0.0, exclude_max=True, allow_infinity=False))
    s = sum(v != 0.0 for v in x)
    rows = [x, *A, y]
    text = "\n".join([f"SPR1 {n} {m} {s}"]
                     + [" ".join(repr(float(v)) for v in row) for row in rows])
    return text + "\n", m


@settings(derandomize=True, deadline=None, max_examples=100)
@given(negative_observation_instances())
def test_negative_observation_names_the_observation_line(case):
    text, m = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "inst.spr1")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with pytest.raises(InstanceFormatError) as err:
            load_instance(path)
    assert err.value.line == m + 3


@st.composite
def tie_heavy_vectors(draw):
    """(values, k): a vector of small signed integers and signed zeros, so
    many entries and magnitudes tie, and k from 0 to n + 1."""
    n = draw(st.integers(1, 12))
    values = draw(st.lists(st.sampled_from(
        [-3.0, -2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0]),
        min_size=n, max_size=n))
    return np.array(values), draw(st.integers(0, n + 1))


def _sort_rule(values, k):
    # largest first, ties to the smaller index, first k kept
    return sorted(range(values.size), key=lambda j: (-values[j], j))[:k]


@settings(derandomize=True, deadline=None, max_examples=400)
@given(tie_heavy_vectors())
def test_top_magnitude_mask_is_the_lexsort_rule(case):
    # top_magnitude_indices and truncate keep the k largest magnitudes
    values, k = case
    top = sorted(_sort_rule(np.abs(values), k))
    assert top_magnitude_indices(values, k).tolist() == top
    kept = np.zeros(values.size)
    kept[top] = values[top]
    truncated = truncate(values, k)
    np.testing.assert_array_equal(truncated, kept)
    assert np.array_equal(np.signbit(truncated), np.signbit(kept))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(tie_heavy_vectors())
def test_diagonal_anchors_is_the_sort_rule(case):
    # the anchor order is the same rule on the signed values
    values, k = case
    assert diagonal_anchors(values, k).tolist() == _sort_rule(values, k)
    assert diagonal_anchors(values, 1)[0] == np.argmax(values)


@st.composite
def special_value_vectors(draw):
    """(values, k): ties, signed zeros, infinities and NaNs, with k from 0
    to n + 2."""
    n = draw(st.integers(0, 16))
    values = draw(st.lists(st.sampled_from(
        [-np.inf, -2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, np.inf, np.nan]),
        min_size=n, max_size=n))
    return np.array(values, dtype=float), draw(st.integers(0, n + 2))


@settings(derandomize=True, deadline=None, max_examples=600)
@given(special_value_vectors())
def test_partition_ranking_is_the_stable_sort(case):
    # the partition shortcut keeps exactly the full sort's first k
    values, k = case
    want = np.argsort(-values, kind="stable")[:k]
    got = _ranked(values, k)
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()
