import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rotinv.autodiff import CHECKPOINT_MAGIC, load_checkpoint
from rotinv.geometry import PointCloud
from rotinv.pointio import (CLOUD_MAGIC, read_cloud, read_cloud_binary,
                            read_cloud_text, write_cloud, write_cloud_binary,
                            write_cloud_text)

from conftest import traced_live_mib


@pytest.fixture
def cloud(rng):
    return PointCloud(rng.standard_normal((17, 3)))


def test_text_roundtrip(tmp_path, cloud):
    path = tmp_path / "cloud.xyz"
    write_cloud_text(path, cloud)
    back = read_cloud_text(path)
    np.testing.assert_array_equal(back.points, cloud.points)


def test_text_roundtrip_with_labels(tmp_path, rng):
    cloud = PointCloud(rng.standard_normal((5, 3)),
                       point_labels=np.array([0, 1, 2, 1, 0]))
    path = tmp_path / "cloud.xyz"
    write_cloud_text(path, cloud)
    back = read_cloud_text(path)
    np.testing.assert_array_equal(back.points, cloud.points)
    np.testing.assert_array_equal(back.point_labels, cloud.point_labels)


def test_text_rejects_bad_column_count(tmp_path):
    path = tmp_path / "bad.xyz"
    path.write_text("1 2\n")
    with pytest.raises(ValueError):
        read_cloud_text(path)


def test_text_rejects_partial_labels(tmp_path):
    path = tmp_path / "bad.xyz"
    path.write_text("1 2 3 0\n4 5 6\n")
    with pytest.raises(ValueError):
        read_cloud_text(path)


def test_text_rejects_non_ascii_byte(tmp_path):
    path = tmp_path / "bad.xyz"
    path.write_bytes(b"1 2 3\n4 5 \xe96\n")
    with pytest.raises(ValueError, match=r"bad\.xyz:2: non-ASCII"):
        read_cloud(path)


def test_text_rejects_non_integer_label(tmp_path):
    path = tmp_path / "bad.xyz"
    path.write_text("1 2 3 0\n4 5 6 4.5\n")
    with pytest.raises(ValueError, match=r"bad\.xyz:2: label '4\.5'"):
        read_cloud(path)


def test_text_rejects_non_numeric_coordinate(tmp_path):
    path = tmp_path / "bad.xyz"
    path.write_text("1 2 x\n")
    with pytest.raises(ValueError, match=r"bad\.xyz:1: coordinates"):
        read_cloud(path)


def test_binary_roundtrip(tmp_path, cloud):
    path = tmp_path / "cloud.lcpc"
    write_cloud_binary(path, cloud)
    raw = path.read_bytes()
    assert raw[:4] == CLOUD_MAGIC
    assert len(raw) == 4 + 4 + 12 * cloud.n
    back = read_cloud_binary(path)
    # storage is float32
    np.testing.assert_allclose(back.points, cloud.points, atol=1e-6)


def test_binary_bad_magic(tmp_path):
    path = tmp_path / "bad.lcpc"
    path.write_bytes(b"XXXX" + b"\x00" * 4)
    with pytest.raises(ValueError):
        read_cloud_binary(path)


def test_binary_truncated(tmp_path):
    path = tmp_path / "short.lcpc"
    path.write_bytes(CLOUD_MAGIC + (5).to_bytes(4, "little") + b"\x00" * 10)
    with pytest.raises(ValueError):
        read_cloud_binary(path)


def test_binary_cut_inside_point_count(tmp_path):
    path = tmp_path / "short.lcpc"
    path.write_bytes(b"LCPC\x01\x00")
    with pytest.raises(ValueError, match=r"short\.lcpc: truncated point count"):
        read_cloud(path)


def test_read_cloud_sniffs_format(tmp_path, cloud):
    binary = tmp_path / "a.lcpc"
    text = tmp_path / "b.xyz"
    write_cloud(binary, cloud)
    write_cloud(text, cloud)
    np.testing.assert_allclose(read_cloud(binary).points, cloud.points, atol=1e-6)
    np.testing.assert_array_equal(read_cloud(text).points, cloud.points)


def test_text_rejects_non_finite_coordinate(tmp_path):
    path = tmp_path / "bad.xyz"
    path.write_text("1 2 3\nnan 0 0\n")
    with pytest.raises(ValueError, match=r"bad\.xyz:2: coordinates 'nan 0 0' "
                                         r"are not finite"):
        read_cloud(path)


def test_text_rejects_label_outside_int64(tmp_path):
    path = tmp_path / "bad.xyz"
    path.write_text("1 2 3 9223372036854775808\n")
    with pytest.raises(ValueError, match=r"bad\.xyz:1: label '9223372036854775808' "
                                         r"is not a 64-bit integer"):
        read_cloud(path)


def test_text_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.xyz"
    path.write_text("\n  \n")
    with pytest.raises(ValueError, match=r"empty\.xyz: no points"):
        read_cloud(path)


def test_binary_rejects_zero_count(tmp_path):
    path = tmp_path / "empty.lcpc"
    path.write_bytes(CLOUD_MAGIC + (0).to_bytes(4, "little"))
    with pytest.raises(ValueError, match=r"empty\.lcpc: no points"):
        read_cloud(path)


def test_binary_rejects_non_finite_coordinate(tmp_path):
    path = tmp_path / "nan.lcpc"
    points = np.array([[1, 2, 3], [0, np.nan, 0]], dtype="<f4")
    path.write_bytes(CLOUD_MAGIC + (2).to_bytes(4, "little") + points.tobytes())
    with pytest.raises(ValueError, match=r"nan\.lcpc: point 1 is not finite"):
        read_cloud(path)


def test_binary_rejects_trailing_bytes(tmp_path, cloud):
    path = tmp_path / "long.lcpc"
    write_cloud_binary(path, cloud)
    with open(path, "ab") as fh:
        fh.write(b"\x00")
    with pytest.raises(ValueError, match=r"long\.lcpc: 1 trailing bytes"):
        read_cloud(path)


def test_binary_count_is_checked_before_reading(tmp_path):
    # a count far past the file's size fails before any buffer of that
    # size is asked for
    path = tmp_path / "huge.lcpc"
    path.write_bytes(CLOUD_MAGIC + (1 << 20).to_bytes(4, "little"))

    def read_huge():
        with pytest.raises(ValueError, match=r"huge\.lcpc: truncated point data"):
            read_cloud(path)

    assert traced_live_mib(read_huge)[1] < 1.0
    path.write_bytes(CLOUD_MAGIC + (0xFFFFFFFF).to_bytes(4, "little"))
    with pytest.raises(ValueError, match=r"huge\.lcpc: truncated point data"):
        read_cloud(path)


# bytes of any value, and text made of the characters of numbers, so that
# the text reader's number and label paths are reached too
FUZZ_BYTES = st.binary(max_size=96) | st.text(alphabet="0123456789 -+.eEinfa\n",
                                               max_size=96).map(str.encode)


@given(FUZZ_BYTES, st.booleans())
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_readers_raise_only_named_value_errors(tmp_path, blob, magic):
    # any bytes, with or without a format's magic, load or raise a
    # ValueError that names the file
    for prefix, read in ((CLOUD_MAGIC, read_cloud), (CHECKPOINT_MAGIC, load_checkpoint)):
        path = tmp_path / "fuzz.bin"
        path.write_bytes((prefix if magic else b"") + blob)
        try:
            read(path)
        except ValueError as err:
            assert str(path) in str(err)
