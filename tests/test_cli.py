import json
import math

import pytest

import perspec.cli
from perspec.cli import EXIT_VALIDATION, run_subcommand

# small enough to keep each call well under a second
SMALL = ["--grid", "64", "--levels", "0"]


def _validation_failure(capsys, argv) -> str:
    assert run_subcommand(argv) == EXIT_VALIDATION
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("validation error: ")
    return lines[0]


@pytest.fixture
def eigs_file(tmp_path):
    path = tmp_path / "eigs.json"
    path.write_text(json.dumps({"results": {"eigenvalues": [-1.239839, 0.0, 1.239839]}}))
    return path


class TestBadInputFiles:
    def test_missing_eigs_file(self, capsys, tmp_path):
        missing = tmp_path / "missing.json"
        msg = _validation_failure(capsys, ["schatten", *SMALL, "--eigs-file", str(missing),
                                           "--out", str(tmp_path / "sv.json")])
        assert str(missing) in msg

    def test_eigs_file_without_eigenvalues(self, capsys, tmp_path):
        path = tmp_path / "eigs.json"
        path.write_text(json.dumps({"results": {}}))
        msg = _validation_failure(capsys, ["schatten", *SMALL, "--eigs-file", str(path),
                                           "--out", str(tmp_path / "sv.json")])
        assert "results.eigenvalues" in msg

    def test_missing_forcing_file(self, capsys, tmp_path):
        missing = tmp_path / "missing.txt"
        msg = _validation_failure(capsys, ["resolve", "--grid", "64", "--forcing", str(missing),
                                           "--out", str(tmp_path / "u.csv")])
        assert str(missing) in msg

    def test_forcing_file_checked_before_kernel_build(self, capsys, tmp_path, monkeypatch):
        def build(*args, **kwargs):
            raise AssertionError("kernel assembled before the forcing file was read")

        monkeypatch.setattr(perspec.cli, "assemble_kernel", build)
        path = tmp_path / "forcing.txt"
        path.write_text("0.0\n1.0\n2.0\n")
        msg = _validation_failure(capsys, ["resolve", "--forcing", str(path),
                                           "--out", str(tmp_path / "u.csv")])
        assert "2 or 3 columns" in msg

    def test_missing_profile_table(self, capsys, tmp_path):
        missing = tmp_path / "missing.txt"
        msg = _validation_failure(capsys, ["validate", "--profile", "tabulated",
                                           "--profile-file", str(missing)])
        assert str(missing) in msg


class TestConfigInOutput:
    def test_flag_reaches_emitted_config(self, tmp_path, eigs_file):
        out = tmp_path / "sv.json"
        assert run_subcommand(["schatten", "--grid", "64", "--levels", "3",
                               "--eigs-file", str(eigs_file), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["levels"] == 3
        assert doc["config"]["grid"] == 64
        assert len(doc["results"]["dyadic"]["levels"]) == 4


class TestEigs:
    def test_identical_runs_write_identical_json(self, tmp_path):
        out = tmp_path / "eigs.json"                  # the path is part of the config
        written = []
        for _ in range(2):
            assert run_subcommand(["eigs", "--lmax", "4", "--resolution", "0.1",
                                   "--out", str(out)]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]
        results = json.loads(written[0])["results"]
        assert results["mesh_nodes"] > 0 and results["batched_marches"] > 0
        assert len(results["refine_iterations"]) == 2           # roots near 1.24 and 3.33


class TestKernelCommands:
    def test_kernel_dump_writes_every_part(self, tmp_path):
        out = tmp_path / "g.csv"
        assert run_subcommand(["kernel", "--grid", "64", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "x,s,re_g,im_g,part"
        fields = [row.split(",") for row in rows[1:]]
        assert len(fields) == 3 * 65 ** 2
        assert [f[4] for f in fields] == ["I"] * 65 ** 2 + ["II"] * 65 ** 2 + ["III"] * 65 ** 2
        assert all(math.isfinite(float(v)) for f in fields for v in f[:4])

    def test_resolve_prints_sup_norm(self, capsys, tmp_path):
        assert run_subcommand(["resolve", "--grid", "64", "--out", str(tmp_path / "u.csv")]) == 0
        out = capsys.readouterr().out
        assert "sup|G| = " in out
        assert "relative resolvent residual " in out
