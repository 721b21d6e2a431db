"""Unit tests for FROSTT text I/O and the binary cache format."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.tensor.coo import SparseTensor
from repro.tensor.io import load_binary, load_tns, save_binary, save_tns


class TestTnsRoundtrip:
    def test_roundtrip_preserves_tensor(self, small_tensor, tmp_path):
        path = tmp_path / "t.tns"
        save_tns(small_tensor, path)
        loaded = load_tns(path, dims=small_tensor.dims)
        assert loaded == SparseTensor(
            small_tensor.coords, small_tensor.values, small_tensor.dims, name="t"
        )

    def test_roundtrip_zero_indexed(self, small_tensor, tmp_path):
        path = tmp_path / "t0.tns"
        save_tns(small_tensor, path, one_indexed=False)
        loaded = load_tns(path, dims=small_tensor.dims, one_indexed=False)
        np.testing.assert_array_equal(loaded.coords, small_tensor.coords)

    def test_values_exact(self, tmp_path):
        t = SparseTensor(np.array([[0, 0]]), np.array([0.1234567890123456]), (1, 1))
        path = tmp_path / "v.tns"
        save_tns(t, path)
        loaded = load_tns(path)
        assert loaded.values[0] == t.values[0]  # repr round-trips doubles


class TestTnsParsing:
    def test_frostt_format(self, tmp_path):
        path = tmp_path / "x.tns"
        path.write_text("# a comment\n1 1 1 1.5\n2 3 1 -2.0\n\n% another comment\n")
        t = load_tns(path)
        assert t.nnz == 2
        assert t.dims == (2, 3, 1)
        assert t.to_dense()[0, 0, 0] == 1.5
        assert t.to_dense()[1, 2, 0] == -2.0

    def test_dims_inferred_vs_given(self, tmp_path):
        path = tmp_path / "x.tns"
        path.write_text("1 1 2.0\n")
        assert load_tns(path).dims == (1, 1)
        assert load_tns(path, dims=(5, 6)).dims == (5, 6)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.tns"
        path.write_text("1 1 1 1.0\n1 1 2.0\n")
        with pytest.raises(ValueError, match="ragged"):
            load_tns(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.tns"
        path.write_text("1 x 1.0\n")
        with pytest.raises(ValueError, match="bad numeric"):
            load_tns(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.tns"
        path.write_text("# nothing\n")
        with pytest.raises(ValueError, match="no nonzeros"):
            load_tns(path)

    def test_zero_index_in_one_indexed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.tns"
        path.write_text("0 1 1.0\n")
        with pytest.raises(ValueError, match="1-indexed"):
            load_tns(path)

    def test_too_few_fields_rejected(self, tmp_path):
        path = tmp_path / "bad.tns"
        path.write_text("1\n")
        with pytest.raises(ValueError, match="at least one index"):
            load_tns(path)

    def test_ragged_row_error_carries_file_line_number(self, tmp_path):
        """Error messages must point at the *file* line (counting comments
        and blanks), so the offending row can be found in an editor."""
        path = tmp_path / "bad.tns"
        path.write_text("# header comment\n1 1 1 1.0\n\n2 2 2 2.0\n3 3 3.0\n")
        with pytest.raises(ValueError, match=r"bad\.tns:5: ragged"):
            load_tns(path)

    def test_bad_numeric_error_carries_file_line_number(self, tmp_path):
        path = tmp_path / "bad.tns"
        path.write_text("% comment\n1 1 1 1.0\n2 2 oops 2.0\n")
        with pytest.raises(ValueError, match=r"bad\.tns:3: bad numeric"):
            load_tns(path)

    @pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "Infinity"])
    def test_non_finite_values_rejected_with_line_number(self, tmp_path, value):
        path = tmp_path / "bad.tns"
        path.write_text(f"1 1 1 1.0\n2 2 2 {value}\n")
        with pytest.raises(ValueError, match=r"bad\.tns:2: non-finite"):
            load_tns(path)

    def test_finite_values_still_load(self, tmp_path):
        path = tmp_path / "ok.tns"
        path.write_text("1 1 1 1e300\n2 2 2 -1e-300\n")
        t = load_tns(path)
        assert t.nnz == 2

    def test_name_is_stem(self, tmp_path):
        path = tmp_path / "mydata.tns"
        path.write_text("1 1 1.0\n")
        assert load_tns(path).name == "mydata"


class TestGzip:
    def test_gz_roundtrip(self, small_tensor, tmp_path):
        path = tmp_path / "t.tns.gz"
        save_tns(small_tensor, path)
        loaded = load_tns(path, dims=small_tensor.dims)
        np.testing.assert_array_equal(loaded.coords, small_tensor.coords)
        np.testing.assert_allclose(loaded.values, small_tensor.values)

    def test_gz_is_actually_compressed(self, small_tensor, tmp_path):
        import gzip

        path = tmp_path / "t.tns.gz"
        save_tns(small_tensor, path)
        with gzip.open(path, "rt") as fh:
            first = fh.readline()
        assert len(first.split()) == 4  # 3 indices + value

    def test_gz_name_strips_both_suffixes(self, small_tensor, tmp_path):
        path = tmp_path / "mydata.tns.gz"
        save_tns(small_tensor, path)
        assert load_tns(path, dims=small_tensor.dims).name == "mydata"


class TestBinary:
    def test_roundtrip(self, small_tensor, tmp_path):
        path = tmp_path / "t.npz"
        save_binary(small_tensor, path)
        loaded = load_binary(path)
        assert loaded == small_tensor
        assert loaded.name == small_tensor.name

    def test_empty_values_tensor(self, tmp_path):
        t = SparseTensor(np.array([[1, 2, 3]]), np.array([7.0]), (4, 4, 4), name="one")
        path = tmp_path / "one.npz"
        save_binary(t, path)
        assert load_binary(path) == t


class TestBinarySuffix:
    """Regression: save_binary('cache') wrote cache.npz (np.savez appends
    the suffix) while load_binary('cache') opened 'cache' verbatim."""

    def test_suffixless_roundtrip(self, small_tensor, tmp_path):
        path = tmp_path / "cache"  # no suffix on either side
        save_binary(small_tensor, path)
        assert (tmp_path / "cache.npz").exists()
        assert load_binary(path) == small_tensor

    def test_explicit_suffix_unchanged(self, small_tensor, tmp_path):
        path = tmp_path / "cache.npz"
        save_binary(small_tensor, path)
        assert load_binary(path) == small_tensor
        assert not (tmp_path / "cache.npz.npz").exists()

    def test_foreign_suffix_gets_npz_appended(self, small_tensor, tmp_path):
        # np.savez_compressed would do this to the save; the load must match.
        path = tmp_path / "cache.v2"
        save_binary(small_tensor, path)
        assert (tmp_path / "cache.v2.npz").exists()
        assert load_binary(path) == small_tensor


class TestDimsValidation:
    """Explicit dims= must reject out-of-range coordinates with the file
    line number, like the other load_tns diagnostics."""

    def test_out_of_range_carries_line_number(self, tmp_path):
        path = tmp_path / "t.tns"
        path.write_text("# header\n1 1 1 1.0\n\n9 2 1 2.0\n")
        with pytest.raises(ValueError, match=r"t\.tns:4: coordinate \(9, 2, 1\)"):
            load_tns(path, dims=(4, 4, 4))

    def test_zero_indexed_out_of_range(self, tmp_path):
        path = tmp_path / "t.tns"
        path.write_text("0 0 0 1.0\n3 0 0 2.0\n")
        with pytest.raises(ValueError, match=r"t\.tns:2: .*0-indexed"):
            load_tns(path, dims=(3, 3, 3), one_indexed=False)

    def test_underflow_carries_line_number_and_coordinate(self, tmp_path):
        path = tmp_path / "t.tns"
        path.write_text("# header\n1 1 1 1.0\n\n2 0 1 2.0\n")
        with pytest.raises(ValueError) as info:
            load_tns(path)
        assert str(info.value) == (
            f"{path}:4: coordinate (2, 0, 1) underflows "
            "(1-indexed; is the file really 1-indexed?)"
        )

    def test_zero_indexed_underflow_carries_line_number(self, tmp_path):
        path = tmp_path / "t.tns"
        path.write_text("0 0 0 1.0\n1 -2 0 2.0\n")
        with pytest.raises(ValueError) as info:
            load_tns(path, one_indexed=False)
        assert str(info.value) == f"{path}:2: coordinate (1, -2, 0) underflows (0-indexed)"

    def test_dims_arity_mismatch_rejected(self, tmp_path):
        path = tmp_path / "t.tns"
        path.write_text("1 1 1 1.0\n")
        with pytest.raises(ValueError, match="dims has 2 modes but the file has 3"):
            load_tns(path, dims=(4, 4))

    def test_exact_fit_dims_accepted(self, tmp_path):
        path = tmp_path / "t.tns"
        path.write_text("1 1 1 1.0\n4 4 4 2.0\n")
        t = load_tns(path, dims=(4, 4, 4))
        assert t.dims == (4, 4, 4)


class TestGzipValues:
    def test_gz_values_exact_via_repr(self, tmp_path):
        """save_tns writes repr(float): doubles survive a .tns.gz
        round-trip bit-for-bit, not merely approximately."""
        values = np.array([1 / 3, 1e-17, -2.5000000000000004, np.pi])
        t = SparseTensor(
            np.arange(12).reshape(4, 3) % 3, values, (3, 3, 3), name="exact"
        )
        path = tmp_path / "exact.tns.gz"
        save_tns(t, path)
        loaded = load_tns(path, dims=t.dims)
        assert loaded.values.tolist() == values.tolist()  # exact, no tolerance

    def test_gz_double_suffix_name_stripped(self, small_tensor, tmp_path):
        path = tmp_path / "frostt.tns.gz"
        save_tns(small_tensor, path)
        assert load_tns(path, dims=small_tensor.dims).name == "frostt"


class TestMmapFormat:
    def test_roundtrip(self, small_tensor, tmp_path):
        from repro.tensor.io import load_mmap, save_mmap

        path = tmp_path / "t.tnsb"
        save_mmap(small_tensor, path)
        loaded = load_mmap(path)
        np.testing.assert_array_equal(loaded.coords, small_tensor.coords)
        np.testing.assert_array_equal(loaded.values, small_tensor.values)
        assert loaded.dims == small_tensor.dims
        assert loaded.name == "t"

    def test_arrays_are_zero_copy_readonly_maps(self, small_tensor, tmp_path):
        from repro.tensor.io import load_mmap, save_mmap

        path = tmp_path / "t.tnsb"
        save_mmap(small_tensor, path)
        loaded = load_mmap(path)
        assert isinstance(loaded.coords.base, np.memmap)
        assert isinstance(loaded.values.base, np.memmap)
        assert not loaded.coords.flags.owndata
        assert not loaded.coords.flags.writeable
        assert not loaded.values.flags.writeable

    def test_name_strips_tnsb_and_tns(self, small_tensor, tmp_path):
        from repro.tensor.io import load_mmap, save_mmap

        path = tmp_path / "mydata.tns.tnsb"
        save_mmap(small_tensor, path)
        assert load_mmap(path).name == "mydata"

    def test_bad_magic_rejected(self, tmp_path):
        from repro.tensor.io import load_mmap

        path = tmp_path / "t.tnsb"
        path.write_bytes(b"NOTMAGIC" + b"\0" * 64)
        with pytest.raises(ValueError, match="bad magic"):
            load_mmap(path)

    def test_truncated_payload_rejected(self, small_tensor, tmp_path):
        from repro.tensor.io import save_mmap, load_mmap

        path = tmp_path / "t.tnsb"
        save_mmap(small_tensor, path)
        whole = path.read_bytes()
        path.write_bytes(whole[:-16])
        with pytest.raises(ValueError, match="truncated"):
            load_mmap(path)

    def test_decomposes_from_map(self, small_tensor, tmp_path):
        """A mapped tensor feeds CP-ALS (and CSF construction) unmodified."""
        from repro.core.cpals import cp_als
        from repro.core.options import CpalsOptions
        from repro.tensor.io import load_mmap, save_mmap

        path = tmp_path / "t.tnsb"
        save_mmap(small_tensor, path)
        mapped = load_mmap(path)
        direct = cp_als(small_tensor, 2, CpalsOptions(max_iterations=3, tolerance=0))
        via_map = cp_als(mapped, 2, CpalsOptions(max_iterations=3, tolerance=0))
        assert via_map.fits[-1] == direct.fits[-1]


class TestRaggedWidthBlame:
    """The ragged-row error must blame the *minority*-width line, even when
    the anomalous line is the first data row (regression: the expected
    width used to be taken from row 1, blaming every later line)."""

    def test_short_first_row_is_the_one_blamed(self, tmp_path):
        path = tmp_path / "bad.tns"
        path.write_text("1 1 1.0\n1 1 1 1.0\n2 2 2 2.0\n3 3 3 3.0\n")
        with pytest.raises(ValueError, match=r"bad\.tns:1: ragged row has 3 fields"):
            load_tns(path)

    def test_majority_count_reported(self, tmp_path):
        path = tmp_path / "bad.tns"
        path.write_text("# hdr\n1 1 1.0\n1 1 1 1.0\n2 2 2 2.0\n3 3 3 3.0\n")
        with pytest.raises(ValueError, match=r"3 of 4 data lines have 4"):
            load_tns(path)

    def test_minority_later_row_still_blamed(self, tmp_path):
        path = tmp_path / "bad.tns"
        path.write_text("1 1 1 1.0\n2 2 2 2.0\n3 3 3.0\n4 4 4 4.0\n")
        with pytest.raises(ValueError, match=r"bad\.tns:3: ragged row has 3 fields"):
            load_tns(path)

    def test_tie_reports_inconsistent_pair(self, tmp_path):
        path = tmp_path / "bad.tns"
        path.write_text("1 1 1.0\n1 1 1 1.0\n")
        with pytest.raises(ValueError, match=r"bad\.tns:2: .*but line 1 has 3"):
            load_tns(path)

    def test_consistent_file_unaffected(self, tmp_path):
        path = tmp_path / "ok.tns"
        path.write_text("1 1 1.0\n2 2 2.0\n")
        assert load_tns(path).nnz == 2


class TestMmapAtomicWrite:
    """``save_mmap`` must never tear an existing ``.tnsb`` in place: other
    processes share its bytes through the page cache (regression: the file
    used to be opened ``"wb"`` at the destination, truncating it before
    the first byte of the replacement was durable)."""

    def test_failed_write_preserves_previous_file(self, small_tensor, tmp_path,
                                                  monkeypatch):
        from pathlib import Path

        from repro.tensor.io import load_mmap, save_mmap

        path = tmp_path / "t.tnsb"
        save_mmap(small_tensor, path)
        before = path.read_bytes()

        other = small_tensor.copy()
        other.values[:] = -other.values

        real_open = Path.open

        def exploding_open(self, mode="r", *args, **kwargs):
            # matches both the destination (pre-fix in-place write) and
            # the same-directory temp file (post-fix), so the injected
            # fault fires mid-payload either way
            fh = real_open(self, mode, *args, **kwargs)
            if "w" in mode and self.name.startswith("t.tnsb"):
                real_write = fh.write
                state = {"n": 0}

                def failing_write(data):
                    state["n"] += 1
                    if state["n"] >= 3:  # after magic + header, mid-payload
                        raise OSError("disk full (injected)")
                    return real_write(data)

                fh.write = failing_write
            return fh

        monkeypatch.setattr(Path, "open", exploding_open)
        with pytest.raises(OSError, match="disk full"):
            save_mmap(other, path)
        monkeypatch.undo()

        assert path.read_bytes() == before
        reloaded = load_mmap(path)
        np.testing.assert_array_equal(reloaded.values, small_tensor.values)
        assert not list(tmp_path.glob("*.tmp-*")), "temp litter left behind"

    def test_kill_mid_write_leaves_old_file_intact(self, small_tensor, tmp_path):
        """A SIGKILL between the payload write and the rename (simulated by
        killing the process inside fsync) must leave the previous complete
        file, not a truncated one."""
        import subprocess
        import sys

        from repro.tensor.io import load_mmap, save_binary, save_mmap

        path = tmp_path / "t.tnsb"
        save_mmap(small_tensor, path)
        before = path.read_bytes()
        seed_npz = tmp_path / "seed.npz"
        save_binary(small_tensor, seed_npz)

        script = (
            "import os, signal, sys\n"
            "import repro.tensor.io as tio\n"
            "t = tio.load_binary(sys.argv[1])\n"
            "t.values.flags.writeable = True\n"
            "t.values[:] = 7.0\n"
            "os.fsync = lambda fd: os.kill(os.getpid(), signal.SIGKILL)\n"
            "tio.save_mmap(t, sys.argv[2])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(seed_npz), str(path)],
            capture_output=True,
        )
        assert proc.returncode == -9, (proc.returncode, proc.stderr.decode())

        assert path.read_bytes() == before
        reloaded = load_mmap(path)
        np.testing.assert_array_equal(reloaded.values, small_tensor.values)


# ----------------------------------------------------------------------
# whole-buffer parse vs the line-by-line diagnostic pass
# ----------------------------------------------------------------------
def _outcome(load, path, **kwargs):
    """``("ok", coords, value bytes, dims, name)`` or ``("error", type,
    message)`` of one load, so two loaders can be compared exactly."""
    try:
        t = load(path, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return ("error", type(exc), str(exc))
    return ("ok", t.coords.dtype, t.coords.tolist(), t.values.dtype,
            t.values.tobytes(), t.dims, t.name)


def _slow(path, *, dims=None, one_indexed=True):
    from repro.tensor.io import _load_tns_lines

    return _load_tns_lines(path, dims, one_indexed)


@st.composite
def tns_files(draw):
    """A valid text tensor as ``(text, dims, one_indexed, gz, crlf)``:
    2–5 modes, mixed whitespace, blank lines, ``repr(float)`` values."""
    nmodes = draw(st.integers(2, 5))
    one_indexed = draw(st.booleans())
    base = 1 if one_indexed else 0
    nnz = draw(st.integers(1, 25))
    coords = draw(st.lists(
        st.lists(st.integers(0, 40), min_size=nmodes, max_size=nmodes),
        min_size=nnz, max_size=nnz))
    values = draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False), min_size=nnz, max_size=nnz))
    sep = st.sampled_from([" ", "\t", "  ", " \t "])
    pad = st.sampled_from(["", " ", "\t", "  "])
    lines = []
    for coord, value in zip(coords, values):
        if draw(st.booleans()) and draw(st.booleans()):
            lines.append(draw(pad))  # a blank (or whitespace-only) line
        fields = [str(c + base) for c in coord] + [repr(float(value))]
        text = fields[0]
        for field in fields[1:]:
            text += draw(sep) + field
        lines.append(draw(pad) + text + draw(pad))
    maxima = np.max(np.asarray(coords), axis=0) + 1
    dims = None
    if draw(st.booleans()):
        dims = tuple(int(m) + draw(st.integers(0, 3)) for m in maxima)
    crlf = draw(st.booleans())
    return "\n".join(lines) + "\n", dims, one_indexed, draw(st.booleans()), crlf


class TestWholeBufferParse:
    @given(tns_files())
    @settings(max_examples=60, deadline=None)
    def test_fast_path_equals_slow_path(self, case):
        """On any valid file the whole-buffer parse vouches for the file
        and returns exactly what the line-by-line pass returns."""
        import gzip
        import tempfile
        from pathlib import Path

        from repro.tensor.io import _load_tns_whole

        text, dims, one_indexed, gz, crlf = case
        data = text.replace("\n", "\r\n" if crlf else "\n").encode()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / ("case.tns.gz" if gz else "case.tns")
            path.write_bytes(gzip.compress(data) if gz else data)

            def fast(p, *, dims=None, one_indexed=True):
                tensor = _load_tns_whole(p, dims, one_indexed)
                assert tensor is not None, "valid file sent to the slow path"
                return tensor

            kwargs = {"dims": dims, "one_indexed": one_indexed}
            got = _outcome(fast, path, **kwargs)
            assert got[0] == "ok"
            assert got == _outcome(_slow, path, **kwargs)
            assert got == _outcome(load_tns, path, **kwargs)

    @pytest.mark.parametrize("text", [
        "1 2 3 1.5 # trailing comment\n",
        "1 2 3 1.5\n4 5 6 2.5 # trailing comment\n",
        "1.0 2 3 1.5\n",
        "1_0 2 3 1.5\n",
        "1 2 3 1_0\n",
        "+1 2 +3 +1.5\n",
        "1 2 3 0x1p3\n",
        "1 2 3 nan\n",
        "1 2 3 1e400\n",
        "1 2 3 -inf\n",
        "99999999999999999999 2 3 1.0\n",
        "9223372036854775807 2 3 1.0\n",
        "1\x0c2 3 1.0\n4 5\x0c6 2.0\n",
        "1\xa02 3 1.0\n",
        "1\u20032\x0b3 1.0\n",
        "\x0c\n1 2 3 1.0\n\x0c\n",
        "0 2 3 1.0\n",
        "1 2\n1 2 3\n",
        "1\n",
        "",
        "\n  \n\t\n",
        "# only a comment\n",
        "% only a comment\n",
        "# header\n1 2 3 1.0\n",
        "1 2 3 1.0\n% mid-file comment\n4 5 6 2.0\n",
        "\ufeff1 2 3 1.0\n",
        "1 2 3 5e-324\n2 2 2 -0.0\n",
    ], ids=repr)
    @pytest.mark.parametrize("dims", [None, (40, 40, 40), (2, 2)])
    def test_edge_cases_match_slow_path(self, tmp_path, text, dims):
        path = tmp_path / "edge.tns"
        path.write_bytes(text.encode())
        assert _outcome(load_tns, path, dims=dims) == _outcome(_slow, path, dims=dims)

    def test_valid_file_takes_the_fast_path(self, small_tensor, tmp_path, monkeypatch):
        from repro.tensor import io

        def no_slow_path(*args, **kwargs):
            raise AssertionError("line-by-line pass ran on a valid file")

        monkeypatch.setattr(io, "_load_tns_lines", no_slow_path)
        for name in ("t.tns", "t.tns.gz"):
            save_tns(small_tensor, tmp_path / name)
            loaded = load_tns(tmp_path / name, dims=small_tensor.dims)
            assert loaded == SparseTensor(small_tensor.coords, small_tensor.values,
                                          small_tensor.dims)
        path = tmp_path / "c.tns"
        path.write_text("# a comment line takes the slow path\n1 1 1.0\n")
        with pytest.raises(AssertionError, match="line-by-line pass ran"):
            load_tns(path)


class TestCorruptInput:
    """Corrupt compression and undecodable bytes fail as ``ValueError``s
    that name the file, on both the fast and the line-by-line path."""

    def test_truncated_gz_names_the_file(self, small_tensor, tmp_path):
        path = tmp_path / "t.tns.gz"
        save_tns(small_tensor, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ValueError) as info:
            load_tns(path)
        assert str(info.value) == (
            f"{path}: corrupt gzip stream: Compressed file ended before the "
            "end-of-stream marker was reached"
        )

    def test_not_gzip_names_the_file(self, tmp_path):
        path = tmp_path / "t.tns.gz"
        path.write_text("1 1 1 1.0\n")
        with pytest.raises(ValueError) as info:
            load_tns(path)
        assert str(info.value) == (
            f"{path}: corrupt gzip stream: Not a gzipped file (b'1 ')"
        )

    @pytest.mark.parametrize("header", ["", "# comment\n"], ids=["fast", "slow"])
    @pytest.mark.parametrize("bad_line", [3, 3000])
    @pytest.mark.parametrize("suffix", [".tns", ".tns.gz"])
    def test_undecodable_byte_names_file_and_line(self, tmp_path, header,
                                                  bad_line, suffix):
        import gzip

        lines = [f"{i} 1 1 1.0\n" for i in range(1, 4000)]
        lines[bad_line - 1 - bool(header)] = "7 7 \udcff 1.0\n"
        data = (header + "".join(lines)).encode("utf-8", "surrogateescape")
        position = data.index(b"\xff")
        path = tmp_path / f"bad{suffix}"
        path.write_bytes(gzip.compress(data) if suffix.endswith(".gz") else data)
        with pytest.raises(ValueError) as info:
            load_tns(path)
        assert str(info.value) == (
            f"{path}:{bad_line}: not UTF-8 text: 'utf-8' codec can't decode "
            f"byte 0xff in position {position}: invalid start byte"
        )

    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, 64])
    @pytest.mark.parametrize("data", [
        "1 1 1 1.0\n2 2 2 \udcff\n",
        "1 1 é€ 1.0\n2 2 2 \udcff\n",
        "€€\n€\n1 1 1 1.0\udce2\udc82\n",
        "1 1 1 1.0\n€ 2 \udce2\udc82\n",
        "\n\né\udcc3",
    ], ids=["ascii", "multibyte-before", "truncated-seq", "bad-continuation",
            "truncated-at-eof"])
    def test_undecodable_chunked_scan_matches_whole_decode(self, tmp_path,
                                                           monkeypatch, chunk, data):
        """The bad byte is located chunk by chunk, and reported exactly as
        a decode of the whole file would, wherever the chunks split."""
        from repro.tensor import io

        raw = data.encode("utf-8", "surrogateescape")
        with pytest.raises(UnicodeDecodeError) as whole:
            raw.decode("utf-8")
        lineno = raw.count(b"\n", 0, whole.value.start) + 1
        path = tmp_path / "bad.tns"
        path.write_bytes(raw)
        monkeypatch.setattr(io, "_DECODE_CHUNK", chunk)
        assert str(io._undecodable(path)) == (
            f"{path}:{lineno}: not UTF-8 text: {whole.value}"
        )


def test_truncating_loadtxt_falls_back_to_line_loop(tmp_path, monkeypatch):
    """Where numpy only warns that it truncates a float-formatted field
    into an integer column, the warning sends the file to the line loop,
    which rejects the coordinate instead of truncating it."""
    import warnings

    from repro.tensor import io

    real_loadtxt = np.loadtxt

    def warning_loadtxt(*args, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning, stacklevel=2)
        return real_loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
    path = tmp_path / "float-coord.tns"
    path.write_text("1 2 3 1.5\n")
    assert io._load_tns_whole(path, None, True) is None
    path.write_text("2.7 2 3 1.5\n")
    with pytest.raises(ValueError, match=r"float-coord\.tns:1: bad numeric field"):
        load_tns(path)
