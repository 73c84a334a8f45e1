import json
import math

import numpy as np
import pytest

import perspec.cli
from perspec import shooting
from perspec.cli import EXIT_SOLVER, EXIT_USAGE, EXIT_VALIDATION, run_subcommand
from perspec.green import GridFunction, apply_resolvent
from perspec.schatten import RITZ_CHECK

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

    def test_forcing_x_not_ascending(self, capsys, tmp_path):
        # np.interp would silently mis-sample a forcing whose x column is unsorted
        path = tmp_path / "forcing.txt"
        path.write_text("3 1\n-3 1\n0 2\n")
        msg = _validation_failure(capsys, ["resolve", "--grid", "64", "--forcing", str(path),
                                           "--out", str(tmp_path / "u.csv")])
        assert "strictly ascending" in msg and not (tmp_path / "u.csv").exists()

    @pytest.mark.parametrize("row, column", [(5, 0), (5, 1)], ids=["nan-x", "nan-f"])
    def test_non_finite_profile_table(self, capsys, tmp_path, row, column):
        x = [math.pi * k / 40 for k in range(41)]
        rows = [[xi, (2 / math.pi) * math.sin(xi)] for xi in x]
        rows[row][column] = math.nan
        path = tmp_path / "profile.dat"
        path.write_text("".join(f"{a!r} {b!r}\n" for a, b in rows))
        out = tmp_path / "eigs.json"
        msg = _validation_failure(capsys, ["eigs", "--profile", "tabulated", "--profile-file",
                                           str(path), "--lmax", "2", "--out", str(out)])
        assert "finite" in msg and not out.exists()

    def test_non_finite_forcing(self, capsys, tmp_path):
        path = tmp_path / "forcing.txt"
        path.write_text("-3 1\n-1 nan\n0 2\n3 1\n")
        msg = _validation_failure(capsys, ["resolve", "--grid", "64", "--forcing", str(path),
                                           "--out", str(tmp_path / "u.csv")])
        assert "finite" in msg and not (tmp_path / "u.csv").exists()

    @pytest.mark.parametrize("rows", [
        "0 1\n1 1\n", f"{-math.pi + 1e-8!r} 1\n{math.pi!r} 1\n",
        f"{-math.pi!r} 1\n{math.pi - 1e-8!r} 1\n"], ids=["inside", "short-left", "short-right"])
    def test_forcing_must_cover_the_interval(self, capsys, tmp_path, monkeypatch, rows):
        # np.interp would hold F flat outside the rows; refused before the kernel is built
        def build(*args, **kwargs):
            raise AssertionError("kernel assembled before the forcing file was read")

        monkeypatch.setattr(perspec.cli, "assemble_kernel", build)
        path = tmp_path / "forcing.txt"
        path.write_text(rows)
        msg = _validation_failure(capsys, ["resolve", "--grid", "64", "--forcing", str(path),
                                           "--out", str(tmp_path / "u.csv")])
        assert "must cover [-pi, pi]" in msg and not (tmp_path / "u.csv").exists()

    def test_non_finite_eigenvalue(self, capsys, tmp_path):
        path = tmp_path / "eigs.json"
        path.write_text('{"results": {"eigenvalues": [-1.24, NaN, 1.24]}}')
        out = tmp_path / "sv.json"
        msg = _validation_failure(capsys, ["schatten", *SMALL, "--eigs-file", str(path),
                                           "--out", str(out)])
        assert "finite" in msg and not out.exists()

    def test_unnormalized_profile_table_fails_validate(self, capsys, tmp_path):
        # f = sin x has slope 1, not 2/pi, at the ends
        x = [math.pi * k / 64 for k in range(65)]
        path = tmp_path / "profile.dat"
        path.write_text("".join(f"{xi!r} {math.sin(xi)!r}\n" for xi in x))
        assert run_subcommand(["validate", "--profile", "tabulated",
                               "--profile-file", str(path)]) == EXIT_VALIDATION
        out = capsys.readouterr().out
        assert "slope: 0.36" in out and "passed: False" in out

    @pytest.mark.parametrize("command", ["eigs", "trace", "resolve", "kernel", "schatten"])
    def test_solver_commands_refuse_an_unnormalized_table(self, capsys, tmp_path, command):
        # the table that fails validate above is not solved either
        x = [math.pi * k / 64 for k in range(65)]
        path = tmp_path / "profile.dat"
        path.write_text("".join(f"{xi!r} {math.sin(xi)!r}\n" for xi in x))
        out = tmp_path / "out"
        msg = _validation_failure(capsys, [command, "--profile", "tabulated", "--profile-file",
                                           str(path), "--out", str(out)])
        assert "profile fails validate: slope 0.361" in msg and not out.exists()

    def test_missing_profile_table(self, capsys, tmp_path):
        missing = tmp_path / "missing.txt"
        msg = _validation_failure(capsys, ["validate", "--profile", "tabulated",
                                           "--profile-file", str(missing)])
        assert str(missing) in msg


class TestExitCodes:
    @pytest.mark.parametrize("command", ["eigs", "trace", "resolve", "kernel", "schatten"])
    def test_resonant_epsilon_is_a_solver_failure(self, capsys, tmp_path, command):
        out = tmp_path / "out"
        # eps = pi/2 is sigma = 1 for the sine profile: coincident exponents at pi
        assert run_subcommand([command, "--epsilon", repr(math.pi / 2),
                               "--out", str(out)]) == EXIT_SOLVER
        assert capsys.readouterr().err.startswith("solver error: ")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [[], ["eigs", "--bogus"], ["trace", "--kind", "chi"],
                                      ["eigs", "--delta", "0.01"], ["validate", "--rtol", "1e-8"],
                                      ["eigs", "--seed", "3"]],
                             ids=["no-subcommand", "unknown-flag", "bad-kind", "eigs-delta",
                                  "validate-rtol", "eigs-seed"])
    def test_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            perspec.cli.main(argv)
        assert exc.value.code == EXIT_USAGE
        assert "usage: perspec" in capsys.readouterr().err


class TestBadArguments:
    @pytest.mark.parametrize("argv", [["eigs"], ["schatten", *SMALL]], ids=["eigs", "schatten"])
    def test_empty_scan_grid(self, capsys, tmp_path, argv):
        # resolution >= 2*lmax leaves no grid point; schatten scans without --eigs-file
        out = tmp_path / "out.json"
        msg = _validation_failure(capsys, [*argv, "--lmax", "1", "--resolution", "5",
                                           "--out", str(out)])
        assert "empty scan grid" in msg and not out.exists()

    @pytest.mark.parametrize("argv", [
        ["eigs", "--resolution", "nan"], ["eigs", "--lmax", "nan"], ["eigs", "--lmax", "inf"],
        ["resolve", "--grid", "64", "--lambda-re", "nan"],
        ["schatten", *SMALL, "--lambda-re", "nan"],
        ["trace", "--lambda-re", "nan"], ["trace", "--lambda-im", "inf"],
        ["eigs", "--epsilon", "nan"]])
    def test_non_finite_number(self, capsys, tmp_path, argv):
        out = tmp_path / "out"
        msg = _validation_failure(capsys, [*argv, "--out", str(out)])
        assert f"{argv[-2][2:].replace('-', '_')} must be a finite number" in msg
        assert not out.exists()

    def test_negative_seed(self, capsys, tmp_path):
        out = tmp_path / "u.csv"
        msg = _validation_failure(capsys, ["resolve", "--grid", "64", "--seed", "-1",
                                           "--out", str(out)])
        assert "seed must be non-negative" in msg and not out.exists()

    @pytest.mark.parametrize("orders", [",", "", " , "])
    def test_empty_order_list(self, capsys, tmp_path, eigs_file, orders):
        out = tmp_path / "sv.json"
        msg = _validation_failure(capsys, ["schatten", *SMALL, "--p", orders, "--eigs-file",
                                           str(eigs_file), "--out", str(out)])
        assert "p_orders names no order" in msg and not out.exists()

    @pytest.mark.parametrize("flag, value, field", [
        ("--out", " lead.json", "out"), ("--profile-file", "table.txt\n", "profile_file")])
    def test_path_that_would_not_round_trip(self, capsys, flag, value, field):
        msg = _validation_failure(capsys, ["validate", flag, value])
        assert msg.startswith(f"validation error: {field} must not")

    def test_cutoff_is_no_config_key(self, capsys, tmp_path):
        # the seed cutoff is the solver's own, so a config file cannot pin it
        path = tmp_path / "run.cfg"
        path.write_text("delta=1e-3\n")
        out = tmp_path / "eigs.json"
        msg = _validation_failure(capsys, ["eigs", "--lmax", "3", "--config", str(path),
                                           "--out", str(out)])
        assert "unknown key 'delta'" in msg and not out.exists()

    @pytest.mark.parametrize("name", ["PERSPEC_OPT_EPSILLON", "PERSPEC_OPT_DELTA"])
    def test_unknown_environment_variable(self, capsys, tmp_path, monkeypatch, name):
        monkeypatch.setenv(name, "1e-3")
        out = tmp_path / "eigs.json"
        msg = _validation_failure(capsys, ["eigs", "--lmax", "3", "--out", str(out)])
        assert f"environment {name}: unknown key" in msg and not out.exists()

    @pytest.mark.parametrize("nodes", [-5, 0])
    def test_trace_needs_a_node(self, capsys, tmp_path, nodes):
        out = tmp_path / "logp.csv"
        msg = _validation_failure(capsys, ["trace", "--kind", "logp", "--nodes", str(nodes),
                                           "--out", str(out)])
        assert "--nodes" in msg and not out.exists()


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
        assert results["proxy_degree"] == 32 and 0.0 < results["proxy_tail"] <= 1e-13

    def test_summary_line_counts_the_skipped_points(self, capsys, tmp_path, monkeypatch):
        # the step budget of tests/test_batched.py: the upper part of the grid is skipped
        monkeypatch.setattr(shooting, "MAX_STEPS", 500)
        out = tmp_path / "eigs.json"
        assert run_subcommand(["eigs", "--lmax", "8", "--resolution", "0.25",
                               "--out", str(out)]) == 0
        skipped = json.loads(out.read_text())["results"]["skipped"]
        assert skipped
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert line.endswith(f", {len(skipped)} scan points skipped: {skipped[0]['reason']}")
        assert "step budget" in line


class TestSchatten:
    def test_grid_is_refused_before_the_kernel_is_built(self, capsys, tmp_path, monkeypatch):
        # grid 66: the even nodes miss 0; refused before the kernel's march
        def build(*args, **kwargs):
            raise AssertionError("kernel assembled for a grid the diagnostics refuse")

        monkeypatch.setattr(perspec.cli, "assemble_kernel", build)
        msg = _validation_failure(capsys, ["schatten", "--grid", "66",
                                           "--out", str(tmp_path / "sv.json")])
        assert "divisible by 4" in msg

    @pytest.mark.parametrize("grid, levels", [(64, 1), (256, 4)])
    def test_identical_runs_write_identical_json(self, tmp_path, eigs_file, grid, levels):
        out = tmp_path / "sv.json"
        written = []
        for _ in range(2):
            assert run_subcommand(["schatten", "--grid", str(grid), "--levels", str(levels),
                                   "--eigs-file", str(eigs_file), "--out", str(out)]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]
        singular = json.loads(written[0])["results"]["singular"]
        count = min(64, grid // 8)                 # one extrapolated value per 8 intervals
        assert len(singular["singular_values"]) == count
        assert singular["tail_count"] == grid + 1 - count and singular["lanczos_steps"] >= 64
        assert 1 <= singular["lanczos_checks"] <= singular["lanczos_steps"] / RITZ_CHECK
        assert 0.0 < singular["extrapolation_error"] < 0.01
        for p, (lo, hi) in singular["schatten_bounds"].items():
            assert lo <= singular["schatten_norms"][p] <= hi
            assert 0.0 <= singular["tail_shares"][p] < 1.0


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

    def test_kernel_dump_peaks_at_the_printed_sup_norm(self, capsys, tmp_path):
        # the dump and sup|G| read one definition of an entry; the running
        # rule's dense matrix peaked at 1.32 against sup|G| = 0.996
        out = tmp_path / "g.csv"
        assert run_subcommand(["kernel", "--grid", "64", "--out", str(out)]) == 0
        printed = capsys.readouterr().out.split("sup|G| = ")[1].split(")")[0]
        rows = np.loadtxt(out, delimiter=",", skiprows=1, usecols=(2, 3))
        g = (rows[:, 0] + 1j * rows[:, 1]).reshape(3, -1).sum(axis=0)
        assert f"{np.max(np.abs(g)):.6g}" == printed

    def test_resolve_reads_a_forcing_file(self, tmp_path):
        # cos x on 201 rows over [-pi, pi], interpolated onto the kernel's nodes
        x = np.linspace(-math.pi, math.pi, 201)
        path = tmp_path / "forcing.txt"
        path.write_text("".join(f"{a!r} {b!r}\n" for a, b in zip(x.tolist(), np.cos(x).tolist())))
        out = tmp_path / "u.csv"
        assert run_subcommand(["resolve", "--grid", "64", "--forcing", str(path),
                               "--out", str(out)]) == 0
        nodes, re_u, im_u, re_f, im_f = np.loadtxt(out, delimiter=",", skiprows=1).T
        model = perspec.OperatorModel(profile=perspec.sine_profile(), epsilon=1.0)
        kernel = perspec.assemble_kernel(model, 1j, 64)
        forcing = GridFunction(nodes=kernel.nodes,
                               values=np.interp(kernel.nodes, x, np.cos(x)).astype(complex))
        assert np.array_equal(nodes, kernel.nodes)
        assert np.array_equal(re_f + 1j * im_f, forcing.values)
        assert np.array_equal(re_u + 1j * im_u, apply_resolvent(kernel, forcing).values)

    def test_resolve_prints_sup_norm(self, capsys, tmp_path):
        assert run_subcommand(["resolve", "--grid", "64", "--out", str(tmp_path / "u.csv")]) == 0
        out = capsys.readouterr().out
        assert "sup|G| = " in out
        assert "relative resolvent residual " in out


class TestTrace:
    def test_psi_dump_is_the_marched_lam_column(self, tmp_path):
        out = tmp_path / "psi.csv"
        assert run_subcommand(["trace", "--kind", "psi", "--lambda-re", "1.0",
                               "--lambda-im", "0.5", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "x,re_u,im_u,re_pu,im_pu"
        x, re_u, im_u, re_pu, im_pu = zip(*([float(v) for v in row.split(",")]
                                            for row in rows[1:]))
        model = perspec.OperatorModel(profile=perspec.sine_profile(), epsilon=1.0)
        pairs = perspec.solution_pairs(model, 1.0 + 0.5j, ())
        assert list(x) == pairs.nodes.tolist()
        assert list(re_u) == pairs.psi[:, 0].real.tolist()
        assert list(im_u) == pairs.psi[:, 0].imag.tolist()
        assert list(re_pu) == pairs.psi_qd[:, 0].real.tolist()
        assert list(im_pu) == pairs.psi_qd[:, 0].imag.tolist()
