import numpy as np
import pytest

import sparsepr as sp
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
        np.testing.assert_allclose(e2.A, e.A, rtol=1e-15)
        np.testing.assert_allclose(e2.y, e.y, rtol=1e-15)
        np.testing.assert_array_equal(x2.support, x.support)
        np.testing.assert_allclose(x2.values, x.values, rtol=1e-15)
        assert e2.nu == pytest.approx(e.nu, rel=1e-15)

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
        with pytest.raises(InstanceFormatError):
            sp.load_instance(clipped)

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
