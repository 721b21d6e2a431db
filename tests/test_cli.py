"""Unit tests for the ``repro`` command-line tool."""

import numpy as np
import pytest

from repro.cli import main
from repro.tensor.generate import planted_low_rank
from repro.tensor.io import load_tns, save_tns


@pytest.fixture()
def tns_file(tmp_path):
    tensor, _ = planted_low_rank((10, 8, 6), 2, 300, seed=1)
    path = tmp_path / "data.tns"
    save_tns(tensor, path)
    return str(path)


class TestGenerate:
    def test_writes_valid_file(self, tmp_path, capsys):
        out = tmp_path / "yelp.tns"
        assert main(["generate", "yelp", str(out), "--scale", "0.2"]) == 0
        tensor = load_tns(out)
        assert tensor.nmodes == 3
        assert "wrote" in capsys.readouterr().out

    def test_unknown_dataset_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "imagenet", str(tmp_path / "x.tns")])


class TestCheck:
    def test_valid(self, tns_file, capsys):
        assert main(["check", tns_file]) == 0
        assert "OK" in capsys.readouterr().out

    def test_invalid(self, tmp_path, capsys):
        bad = tmp_path / "bad.tns"
        bad.write_text("1 1 1.0\n1 1 1 2.0\n")
        assert main(["check", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_truncated_gz_is_invalid_and_named(self, tns_file, tmp_path, capsys):
        path = tmp_path / "data.tns.gz"
        save_tns(load_tns(tns_file), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"INVALID: {path}: corrupt gzip stream: Compressed file ended "
            "before the end-of-stream marker was reached\n"
        )

    def test_reports_duplicates(self, tmp_path, capsys):
        path = tmp_path / "dup.tns"
        path.write_text("1 1 1.0\n1 1 2.0\n2 2 1.0\n")
        assert main(["check", str(path)]) == 0
        assert "duplicate" in capsys.readouterr().out


class TestStats:
    def test_outputs_structure(self, tns_file, capsys):
        assert main(["stats", tns_file]) == 0
        out = capsys.readouterr().out
        assert "density" in out
        assert "hub-share" in out
        assert "10x8x6" in out

    def test_json_output(self, tns_file, capsys):
        import json

        assert main(["stats", tns_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dims"] == [10, 8, 6]
        assert payload["nnz"] == 300
        assert len(payload["modes"]) == 3
        assert "top_slice_share" in payload["modes"][0]


class TestReorder:
    def test_roundtrip_values(self, tns_file, tmp_path, capsys):
        out = tmp_path / "reordered.tns"
        perms = tmp_path / "perms.npz"
        assert main(["reorder", tns_file, str(out), "--strategy", "degree",
                     "--perms", str(perms)]) == 0
        reordered = load_tns(out)
        original = load_tns(tns_file)
        # same value multiset
        assert sorted(reordered.values.tolist()) == pytest.approx(
            sorted(original.values.tolist())
        )
        with np.load(perms) as data:
            assert {"mode0", "mode1", "mode2"} <= set(data.files)


class TestCpd:
    def test_runs_and_writes_model(self, tns_file, tmp_path, capsys):
        out = tmp_path / "model.npz"
        assert main([
            "cpd", tns_file, "-r", "2", "-i", "3", "--tolerance", "0",
            "-t", "2", "-o", str(out),
        ]) == 0
        text = capsys.readouterr().out
        assert "fit =" in text and "MTTKRP" in text
        with np.load(out) as data:
            assert data["weights"].shape == (2,)
            assert data["factor0"].shape == (10, 2)
            assert data["factor2"].shape == (6, 2)

    def test_interpreted_variant(self, tns_file, capsys):
        assert main(["cpd", tns_file, "-r", "2", "-i", "1",
                     "--tolerance", "0", "--variant", "pointer"]) == 0
        assert "fit =" in capsys.readouterr().out

    def test_splatt_format_output(self, tns_file, tmp_path):
        from repro.core.model_io import load_kruskal_dir

        out = tmp_path / "model_dir"
        assert main(["cpd", tns_file, "-r", "2", "-i", "2", "--tolerance", "0",
                     "-o", str(out), "--splatt-format"]) == 0
        model = load_kruskal_dir(out)
        assert model.rank == 2
        assert model.dims == (10, 8, 6)


class TestTucker:
    def test_runs_and_writes(self, tns_file, tmp_path, capsys):
        out = tmp_path / "tk.npz"
        assert main(["tucker", tns_file, "-r", "2", "-i", "3",
                     "--tolerance", "0", "-o", str(out)]) == 0
        text = capsys.readouterr().out
        assert "fit =" in text and "core: 2x2x2" in text
        with np.load(out) as data:
            assert data["core"].shape == (2, 2, 2)
            assert data["factor0"].shape == (10, 2)

    def test_per_mode_ranks(self, tns_file, capsys):
        assert main(["tucker", tns_file, "-r", "2", "3", "2", "-i", "2",
                     "--tolerance", "0"]) == 0
        assert "core: 2x3x2" in capsys.readouterr().out


class TestCheckVerbose:
    def test_verbose_report(self, tns_file, capsys):
        assert main(["check", tns_file, "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out or "INFO" in out or "WARNING" in out

    def test_verbose_duplicates_fail(self, tmp_path, capsys):
        path = tmp_path / "dup.tns"
        path.write_text("1 1 1.0\n1 1 2.0\n2 2 1.0\n")
        assert main(["check", str(path), "--verbose"]) == 1
        assert "duplicates" in capsys.readouterr().out


class TestCompare:
    def test_identical_models_score_one(self, tns_file, tmp_path, capsys):
        out = tmp_path / "m.npz"
        main(["cpd", tns_file, "-r", "2", "-i", "2", "--tolerance", "0", "-o", str(out)])
        capsys.readouterr()
        assert main(["compare", str(out), str(out)]) == 0
        text = capsys.readouterr().out
        assert "factor match score:      1.0000" in text

    def test_npz_vs_splatt_dir(self, tns_file, tmp_path, capsys):
        npz = tmp_path / "m.npz"
        d = tmp_path / "mdir"
        main(["cpd", tns_file, "-r", "2", "-i", "2", "--tolerance", "0", "-o", str(npz)])
        main(["cpd", tns_file, "-r", "2", "-i", "2", "--tolerance", "0",
              "-o", str(d), "--splatt-format"])
        capsys.readouterr()
        assert main(["compare", str(npz), str(d)]) == 0
        assert "1.0000" in capsys.readouterr().out

    def test_different_seeds_differ(self, tns_file, tmp_path, capsys):
        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        main(["cpd", tns_file, "-r", "2", "-i", "1", "--tolerance", "0",
              "--seed", "1", "-o", str(a)])
        main(["cpd", tns_file, "-r", "2", "-i", "1", "--tolerance", "0",
              "--seed", "2", "-o", str(b)])
        capsys.readouterr()
        assert main(["compare", str(a), str(b)]) == 0
        fms = float(capsys.readouterr().out.splitlines()[0].split()[-1])
        assert fms < 1.0

    def test_missing_file(self, tmp_path, capsys):
        assert main(["compare", str(tmp_path / "no.npz"), str(tmp_path / "no.npz")]) == 1
        assert "error" in capsys.readouterr().err


class TestComplete:
    @pytest.mark.parametrize("algo", ["als", "sgd", "ccd"])
    def test_each_algorithm(self, tns_file, algo, capsys):
        assert main(["complete", tns_file, "-r", "2", "-a", algo,
                     "-e", "3"]) == 0
        out = capsys.readouterr().out
        assert f"algorithm: {algo}" in out
        assert "train RMSE" in out

    def test_writes_model(self, tns_file, tmp_path):
        out = tmp_path / "cmodel.npz"
        assert main(["complete", tns_file, "-r", "2", "-e", "2",
                     "-o", str(out)]) == 0
        with np.load(out) as data:
            assert {"factor0", "factor1", "factor2"} <= set(data.files)
