import numpy as np
import pytest

import sparsepr as sp
from sparsepr import harness
from sparsepr.instance_io import InstanceFormatError


@pytest.fixture
def saved(tmp_path):
    rng = sp.trial_rng(500)
    x = sp.sample_signal(12, 3, rng)
    e = sp.measure(x, 8, rng)
    path = tmp_path / "instance.spr1"
    sp.save_instance(path, x, e)
    return path, x, e


class TestRoundTrip:
    def test_fields_reproduced(self, saved):
        path, x, e = saved
        e2, x2 = sp.load_instance(path)
        # .17g round-trips every finite double exactly
        assert e2.A.tobytes() == e.A.tobytes()
        assert e2.y.tobytes() == e.y.tobytes()
        np.testing.assert_array_equal(x2.support, x.support)
        assert x2.values.tobytes() == x.values.tobytes()
        assert e2.nu == e.nu

    def test_measurements_consistent(self, saved):
        path, _, _ = saved
        e2, x2 = sp.load_instance(path)
        np.testing.assert_allclose(
            e2.y, np.abs(e2.A[:, x2.support] @ x2.values), atol=1e-12)

    def test_hand_written_fixture(self, tmp_path):
        text = ("SPR1 2 2 1\n"
                "0 1.5\n"
                "1 0\n"
                "0 2\n"
                "0 3\n")
        path = tmp_path / "hand.spr1"
        path.write_text(text)
        e, x = sp.load_instance(path)
        assert (e.n, e.m, x.s) == (2, 2, 1)
        np.testing.assert_allclose(x.to_dense(), [0.0, 1.5])
        np.testing.assert_allclose(e.A, [[1.0, 0.0], [0.0, 2.0]])
        np.testing.assert_allclose(e.y, [0.0, 3.0])


class TestErrors:
    def write(self, tmp_path, text):
        path = tmp_path / "bad.spr1"
        path.write_text(text)
        return path

    def test_truncated_file_names_line(self, saved, tmp_path):
        path, _, _ = saved
        lines = path.read_text().splitlines()
        clipped = self.write(tmp_path, "\n".join(lines[:-2]) + "\n")
        with pytest.raises(InstanceFormatError) as err:
            sp.load_instance(clipped)
        # one past the last line present
        assert err.value.line == len(lines) - 1

    @pytest.mark.parametrize("data, line", [
        (b"SPR1 2 1 1\n0 1\n1 \xff0\n1\n", 3),
        (b"SPR1 2 1 1\r\n0 1\r1 \xed\xa0\x800\n1\n", 3),  # CR ends, surrogate
        (b"\xe2\x82", 1),  # cut inside a character
    ])
    def test_undecodable_bytes_name_line(self, tmp_path, data, line):
        path = tmp_path / "bad.spr1"
        path.write_bytes(data)
        with pytest.raises(InstanceFormatError) as err:
            sp.load_instance(path)
        assert err.value.line == line

    def test_bad_header(self, tmp_path):
        with pytest.raises(InstanceFormatError) as err:
            sp.load_instance(self.write(tmp_path, "SPRX 2 2 1\n"))
        assert err.value.line == 1

    def test_count_mismatch_names_line(self, tmp_path):
        text = "SPR1 2 1 1\n0 1\n1 0 3\n1\n"
        with pytest.raises(InstanceFormatError) as err:
            sp.load_instance(self.write(tmp_path, text))
        assert err.value.line == 3

    def test_nonfinite_rejected(self, tmp_path):
        text = "SPR1 2 1 1\n0 inf\n1 0\n1\n"
        with pytest.raises(InstanceFormatError) as err:
            sp.load_instance(self.write(tmp_path, text))
        assert err.value.line == 2

    def test_sparsity_mismatch(self, tmp_path):
        text = "SPR1 2 1 2\n0 1\n1 0\n1\n"
        with pytest.raises(InstanceFormatError) as err:
            sp.load_instance(self.write(tmp_path, text))
        assert err.value.line == 2

    def test_negative_observation(self, tmp_path):
        text = "SPR1 2 1 1\n0 1\n1 0\n-1\n"
        with pytest.raises(InstanceFormatError) as err:
            sp.load_instance(self.write(tmp_path, text))
        assert err.value.line == 4

    def test_zero_signal_not_representable(self, tmp_path):
        text = "SPR1 2 1 0\n0 0\n1 0\n1\n"
        with pytest.raises(InstanceFormatError):
            sp.load_instance(self.write(tmp_path, text))

    def test_trailing_content_rejected(self, saved, tmp_path):
        path, _, _ = saved
        extra = self.write(tmp_path, path.read_text() + "stray\n")
        with pytest.raises(InstanceFormatError):
            sp.load_instance(extra)


def spec_lines(x, e):
    """The file as the format spec writes it, one value at a time."""
    def join(row):
        return " ".join(format(float(v), ".17g") for v in row)
    return ([f"SPR1 {x.n} {e.m} {x.s}", join(x.to_dense())]
            + [join(row) for row in e.A] + [join(e.y)])


class TestWriter:
    def test_edge_values_written_as_spec(self, tmp_path):
        # the fast range's ends and their neighbours, the switch to
        # exponent notation, powers of ten past the range and an exact
        # tie (...345.12)
        low, high = 2.0 ** -30, 2.0 ** 49
        edges = [-0.0, 5e-324, 1.7976931348623157e308, 0.1, 1e-300,
                 low, np.nextafter(low, 0), np.nextafter(low, 1),
                 high, np.nextafter(high, 0), np.nextafter(high, np.inf),
                 1e-5, np.nextafter(1e-5, 0), 9.9999999999999995e-5,
                 1e16, 1e17, 123456789012345.125]
        # rows of the in-range edges alone, which the kernel writes, and
        # of each power of ten in the range with two neighbours each side
        fast = [v for v in edges if v == 0 or low <= abs(v) < high]
        for p in 10.0 ** np.arange(-9, 15):
            near = np.nextafter(p, [0, np.inf])
            fast += [p, *near, *np.nextafter(near, [0, np.inf])]
        fast = np.resize(fast, (len(fast) // len(edges) + 1, len(edges)))
        A = np.vstack([edges, [-v for v in edges[::-1]], fast, -fast])
        x = sp.SparseSignal(n=len(edges), support=[1, 3, 4],
                            values=edges[1:4][::-1])
        e = sp.Ensemble.from_measurements(A, np.abs(A[:, 5]))
        path = tmp_path / "edges.spr1"
        sp.save_instance(path, x, e)
        assert path.read_text(encoding="utf-8").splitlines() == \
            spec_lines(x, e)
        e2, x2 = sp.load_instance(path)
        assert e2.A.tobytes() == e.A.tobytes()
        assert x2.to_dense().tobytes() == x.to_dense().tobytes()

    def test_workload_size_instance_written_as_spec(self, tmp_path):
        # n=1000, m=900: 112 blocks of 8 rows, then one of 4
        rng = sp.trial_rng(harness.derive_trial_seed(1, 1000, 15, 900, 0))
        x = sp.sample_signal(1000, 15, rng)
        e = sp.measure(x, 900, rng)
        path = tmp_path / "full.spr1"
        sp.save_instance(path, x, e)
        assert path.read_bytes() == (
            "\n".join(spec_lines(x, e)) + "\n").encode("utf-8")

    def test_sampled_instance_written_as_spec(self, tmp_path):
        rng = sp.trial_rng(7)
        x = sp.sample_signal(50, 5, rng)
        e = sp.measure(x, 40, rng)
        path = tmp_path / "sampled.spr1"
        sp.save_instance(path, x, e)
        assert path.read_bytes() == (
            "\n".join(spec_lines(x, e)) + "\n").encode("utf-8")


class TestBulkReader:
    """A 40 x 30 instance with row 17 of A (file line 19) altered: the
    bulk parse of the sensing block must give way to the line-by-line one
    exactly where the latter accepts or names a line."""

    def edited(self, tmp_path, edit):
        rng = sp.trial_rng(3)
        x = sp.sample_signal(30, 4, rng)
        e = sp.measure(x, 40, rng)
        path = tmp_path / "inst.spr1"
        sp.save_instance(path, x, e)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[18] = edit(lines[18].split())
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path, e

    def test_float_only_token_accepted(self, tmp_path):
        path, e = self.edited(
            tmp_path, lambda row: " ".join(["1_0"] + row[1:]))
        e2, _ = sp.load_instance(path)
        expected = np.array(e.A)
        expected[16, 0] = 10.0
        assert e2.A.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("edit, message", [
        (lambda row: " ".join(row[:5] + ["nan"] + row[6:]),
         "non-finite sensing value"),
        (lambda row: " ".join(row[:5] + ["#"] + row[6:]),
         "unparseable sensing value"),
        (lambda row: " ".join(row[:-1] + ["1#2"]),
         "unparseable sensing value"),
        (lambda row: "", "expected 30 sensing values, found 0"),
        (lambda row: " ".join(row[:-1]),
         "expected 30 sensing values, found 29"),
    ], ids=["nan", "hash", "trailing-hash", "blank", "short"])
    def test_bad_row_names_line(self, tmp_path, edit, message):
        path, _ = self.edited(tmp_path, edit)
        with pytest.raises(InstanceFormatError) as err:
            sp.load_instance(path)
        assert err.value.line == 19
        assert str(err.value) == f"line 19: {message}"
