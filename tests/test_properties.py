"""Malformed outside input fails with the package's own error types.

Grid configs arrive as JSON and instances as SPR1 text. The CLI maps
ConfigError and InstanceFormatError to exit code 2, so any other
exception from these two readers would end in a traceback. No solver
runs here.
"""

import copy
import math
import os
import tempfile
from dataclasses import fields

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from sparsepr import HtpConfig, InitConfig  # noqa: E402
from sparsepr.harness import ConfigError, grid_from_dict  # noqa: E402
from sparsepr.instance_io import (InstanceFormatError,  # noqa: E402
                                  load_instance)

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
              "configs": {"init": {}, "htp": {}, "restarts": 2}}
# (path to a dict inside VALID_GRID, key in it)
TARGETS = ([((), key) for key in [*VALID_GRID, "bogus"]]
           + [(("configs",), key) for key in ("init", "htp", "restarts",
                                                "bogus")]
           + [(("configs", section), f.name)
              for section, cls in (("init", InitConfig), ("htp", HtpConfig))
              for f in fields(cls)]
           + [(("configs", "init"), "bogus")])


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


VALID_SPR1 = ["SPR1 3 2 1", "0 1.5 0", "1 2 3", "-1 0.5 2", "3 0.75"]

tokens = (st.sampled_from(["0", "1", "-1", "2.5", "-0", "nan", "inf",
                           "1e999", "SPR1", "x", "1_0", "٣"])
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
