import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import benfold as bf
import benfold.cli as cli
import benfold.oracle as oracle
from benfold.bounds import VacuousBoundError
from benfold.density import DensityError
from benfold.oracle import BisectionError

GOLDEN = Path(__file__).parent / "data" / "table_b10.golden"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def test_table_matches_golden(capsys):
    code, out, err = run_cli(capsys, "table", "--base", "10")
    assert code == 0
    assert out == GOLDEN.read_text()


@pytest.mark.parametrize("fmt", ("csv", "json"))
def test_table_formats_match_golden(capsys, fmt):
    code, out, _ = run_cli(capsys, "table", "--base", "10", "--format", fmt)
    assert code == 0
    assert out == GOLDEN.with_name(f"table_b10.{fmt}.golden").read_text()


def test_table_custom_ns_and_digits(capsys):
    code, out, _ = run_cli(capsys, "table", "--n", "4", "--digits", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[1].split() == ["4", "0.07163", "0.07196", "0.08309"]


def test_table_csv_format(capsys):
    code, out, _ = run_cli(capsys, "table", "--n", "1,4", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "exact", "tv_bound", "fourier_bound"]
    assert len(rows) == 3
    assert float(rows[1][1]) == cli.table(10.0, (1,))[0].exact  # 17g round-trips
    assert "\r" not in out


def test_csv_and_json_carry_identical_values(capsys):
    code, csv_out, _ = run_cli(capsys, "table", "--format", "csv")
    assert code == 0
    code, json_out, _ = run_cli(capsys, "table", "--format", "json")
    assert code == 0
    payload = json.loads(json_out)
    assert payload["metadata"]["base"] == 10.0
    assert payload["metadata"]["tool_version"]
    assert set(payload["metadata"]["method_refs"]) == {"exact", "tv_bound", "fourier_bound"}
    csv_rows = list(csv.DictReader(io.StringIO(csv_out)))
    assert len(csv_rows) == len(payload["rows"]) == 11
    for crow, jrow in zip(csv_rows, payload["rows"]):
        assert int(crow["n"]) == jrow["n"]
        for col in ("exact", "tv_bound", "fourier_bound"):
            assert float(crow[col]) == jrow[col]


def test_table_base_e_row_against_oracle():
    import benfold as bf

    row = cli.table(math.e, (1,))[0]
    u = math.e - 1.0
    want = (u * math.log(u) - u + 1.0) / (math.e - 1.0)
    assert row.exact == pytest.approx(want, rel=1e-12)
    oracle = bf.delta_numeric(bf.uniform_log_density(math.e), 1)
    assert row.exact == pytest.approx(oracle.value, abs=1e-9)


def test_table_rejects_bad_base(capsys):
    code, _, err = run_cli(capsys, "table", "--base", "0.5")
    assert code == 2
    assert "b > 1" in err


def test_table_rejects_bad_n_list():
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["table", "--n", "1,frog"])
    assert exc_info.value.code == 2


def test_table_takes_last_ulp_ties_of_exact_and_tv_bound(capsys):
    # at huge n the exact distance and ln(10)/(8n) meet within an ulp or
    # two: at 824 of these n the computed exact value is above the bound, by
    # at most 4.4e-16 relative, though the true value is below it.  That is
    # within exact's pinned 1e-15 relative accuracy: a tie
    ns = sorted({int(10 ** (6 + 9 * i / 3999)) for i in range(4000)} | {10**7 + k * 1_428_571 for k in range(64)})
    assert any(row.exact > row.tv_bound for row in cli.table(10.0, ns))
    code, out, err = run_cli(capsys, "table", "--n", ",".join(map(str, ns)))
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == len(ns) + 1
    code, _, err = run_cli(capsys, "table", "--n", "30000000")
    assert (code, err) == (0, "")


def test_table_row_refuses_exact_past_its_accuracy_above_tv_bound():
    n = 30_000_000
    tv, fourier = bf.bound_uniform_log_tv(10, n).value, bf.bound_fourier_closed(10, n).value
    assert cli.TableRow(n, tv * (1.0 + 4.4e-16), tv, fourier).exact > tv  # a tie
    with pytest.raises(VacuousBoundError, match="ordering chain violated"):
        cli.TableRow(n, tv * (1.0 + 1e-12), tv, fourier)
    with pytest.raises(VacuousBoundError, match="ordering chain violated"):
        cli.TableRow(n, tv, tv, tv)  # tv_bound < fourier_bound stays strict


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------


def test_bound_tv_scaled_output(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--density", "uniform-log b=10", "--method", "tv_scaled", "--n", "20"
    )
    assert code == 0
    assert out.startswith("tv_scaled  value=0.0287823  n=20")
    assert "unrounded: 0.028782313662425" in out
    assert "hypotheses:" in out


def test_bound_tv_quarter_uniform(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--density", "uniform 0 1", "--method", "tv_quarter"
    )
    assert code == 0
    assert "value=0.0000000" in out


def test_bound_fourier_closed(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--density", "uniform-log b=10", "--method", "fourier_closed",
        "--n", "2",
    )
    assert code == 0
    assert "value=0.1661748" in out
    assert "b=10" in out


def test_bound_parseval_via_cli(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--density", "uniform-log b=10", "--method", "fourier_parseval",
        "--n", "1", "--k-max", "500",
    )
    assert code == 0
    value = float(out.splitlines()[1].split()[-1])
    assert 0.31 < value < 0.3323495


def test_bound_parseval_past_the_doubles_exits_3(capsys):
    # the tail majorant underflows to 0 here; it once read a certified 0.0
    code, out, err = run_cli(
        capsys, "bound", "--density", "uniform-log b=10", "--method", "fourier_parseval", "--n", "1e200"
    )
    assert code == 3
    assert out == ""
    assert "numerical failure" in err and "underflows" in err


def test_bound_convex_eighth_cli(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--density", "uniform-log b=10", "--method", "convex_eighth"
    )
    assert code == 0
    assert "value=0.2878231" in out
    assert "certified" in out


def test_bound_fourier_needs_log_uniform_density(capsys):
    code, _, err = run_cli(
        capsys, "bound", "--density", "uniform 0 1", "--method", "fourier_closed"
    )
    assert code == 2
    assert "log-uniform" in err


def test_bound_unknown_density_kind(capsys):
    code, _, err = run_cli(
        capsys, "bound", "--density", "nonsense 1 2", "--method", "tv_quarter"
    )
    assert code == 2


def test_vacuous_bound_exits_3(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise VacuousBoundError("variation is infinite")

    monkeypatch.setattr(cli, "run_bound", boom)
    code, _, err = run_cli(
        capsys, "bound", "--density", "uniform 0 1", "--method", "tv_quarter"
    )
    assert code == 3
    assert "numerical failure" in err


def test_tv_scaled_overflow_exits_3(capsys):
    code, out, err = run_cli(
        capsys, "bound", "--density", "uniform 0 1", "--method", "tv_scaled", "--n", "1e-320"
    )
    assert code == 3
    assert "numerical failure" in err and "not finite" in err and out == ""


@pytest.mark.parametrize("method", ("step_density", "tv_quarter", "convex_eighth"))
@pytest.mark.parametrize("density", ("uniform-log b=10", "uniform-log b=3", "triangular 0 0.3 2"))
def test_bound_of_x_mod_1_applies_n(capsys, method, density):
    # the bound of n*X mod 1 is the library's bound on the density of n*X
    f, _ = cli.parse_density(density)
    code, out, err = run_cli(capsys, "bound", "--density", density, "--method", method, "--n", "5")
    if method == "convex_eighth" and density.startswith("triangular"):
        assert code == 2 and "certified only" in err  # two segments
        return
    want = getattr(bf, f"bound_{method}")(bf.scale_density(f, 5))
    assert code == 0
    assert out.startswith(f"{method}  value=") and "  n=5\n" in out
    assert f"unrounded: {want.value!r}\n" in out
    assert want.value >= bf.delta_numeric(f, 5).value - 1e-12
    assert cli.run_bound(density, method, 5.0).n == 5.0


def test_bound_scale_past_the_doubles_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "bound", "--density", "uniform-log b=10", "--method", "step_density", "--n", "1e-320"
    )
    assert code == 2
    assert "error:" in err and "overflows" in err and out == ""


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------


def test_exact_subcommand(capsys):
    code, out, _ = run_cli(capsys, "exact", "--base", "10", "--exponent", "3")
    assert code == 0
    assert out.startswith("exact_uniform  value=0.0951662")
    assert "t0=" in out


def test_exact_rejects_bad_exponent(capsys):
    code, _, err = run_cli(capsys, "exact", "--base", "10", "--exponent", "-1")
    assert code == 2


@pytest.mark.parametrize("a", (1e300, 5e307, 1e308, 1.7e308))
def test_exact_where_h_underflows_takes_the_small_h_limit(capsys, a):
    # h = ln(b)/a is subnormal or 0 here, and v = u - 1 rounds to 0 from
    # 5e307 on: t0 is its h -> 0 limit 1/2, and the distance, about h/8,
    # is no larger than ln(b)/(8a)
    b = 1.0000000000000002
    code, out, err = run_cli(capsys, "exact", "--base", repr(b), "--exponent", repr(a))
    assert code == 0, err
    lines = out.splitlines()
    assert lines[2].endswith("t0=0.5")
    assert 0.0 <= float(lines[1].removeprefix("unrounded: ")) <= math.log(b) / (8.0 * a)


def test_exact_rounding_to_one_exits_3(capsys):
    code, out, err = run_cli(capsys, "exact", "--base", "1e308", "--exponent", "1e-300")
    assert code == 3
    assert out == ""
    assert "numerical failure" in err and "rounds to 1" in err


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def test_oracle_quad_uniform_log(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "--density", "uniform-log b=10", "--n", "1"
    )
    assert code == 0
    assert "quadrature_L1  value=0.2688434" in out


def test_oracle_quad_uniform_is_zero(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--density", "uniform 0 1", "--n", "7")
    assert code == 0
    assert "value=0.0000000" in out


def test_oracle_quad_large_n(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "--density", "uniform-log b=10", "--n", "1000"
    )
    assert code == 0
    assert "value=0.0002878" in out


def test_oracle_takes_a_real_n(capsys):
    # a real --n scales the density as it is; an integer --n prints as an integer
    code, out, _ = run_cli(capsys, "oracle", "--density", "uniform-log b=10", "--n", "2.5")
    want = bf.delta_numeric(bf.uniform_log_density(10), 2.5)
    assert code == 0
    assert f"unrounded: {want.value!r}" in out and "n=2.5," in out
    code, out, _ = run_cli(capsys, "oracle", "--density", "uniform-log b=10", "--n", "3")
    assert code == 0 and "n=3," in out
    for bad in ("0", "-1.5", "nan", "inf"):
        code, _, err = run_cli(capsys, "oracle", "--density", "uniform-log b=10", "--n", bad)
        assert code == 2 and "scale factor must be positive" in err


@pytest.mark.parametrize("b", ("1e300", "1.7e308"))
def test_oracle_on_a_huge_base_takes_every_n(capsys, b):
    # at n = 1e200 and 1e300 the stretched amp underflows while the values
    # the density takes do not: a value, not an exit 2
    for n in ("1", "7", "2.5", "1e15", "1e200", "1e300", "1e-300"):
        code, out, err = run_cli(capsys, "oracle", "--density", f"uniform-log b={b}", "--n", n)
        assert code == 0, (n, err)
        assert out.startswith("quadrature")


def test_oracle_mc_engine_rejects_bad_n(capsys):
    # both engines take the same n: a finite real > 0
    for bad in ("0", "-3", "nan", "inf"):
        code, _, err = run_cli(capsys, "oracle", "--density", "uniform-log b=10", "--n", bad, "--engine", "mc")
        assert code == 2 and "scale factor must be positive" in err
    with pytest.raises(SystemExit) as exit_info:  # no number at all: argparse refuses it
        run_cli(capsys, "oracle", "--density", "uniform-log b=10", "--n", "True", "--engine", "mc")
    assert exit_info.value.code == 2


def test_oracle_mc_engine(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "--density", "uniform-log b=10", "--n", "1",
        "--engine", "mc", "--samples", "200000", "--bins", "100", "--seed", "5",
    )
    assert code == 0
    assert out.startswith("monte_carlo  value=0.2")
    assert "seed=5" in out


@pytest.mark.parametrize(
    "command", [("bound", "--method", "tv_quarter"), ("bound", "--method", "tv_scaled"), ("oracle",)]
)
def test_triangular_with_underflowing_slopes_exits_2(capsys, command):
    # its slopes, +-1e-400, are no doubles at any n: bad input, with the cause named
    for n in ("1", "7"):
        code, out, err = run_cli(capsys, *command, "--density", "triangular -1e200 0 1e200", "--n", n)
        assert (code, out) == (2, "")
        assert "has slopes 0.0 and -0.0, not normal doubles" in err


def test_exp_segment_overflow_exits_2(tmp_path, capsys):
    # e**800 overflows: a bad input, reported as such and not as a traceback
    path = tmp_path / "steep.json"
    spec = [{"lo": 0, "hi": 1, "kind": "exp", "params": {"amp": 1, "rate": 800}}]
    path.write_text(json.dumps(spec))
    density = f"piecewise {path}"
    code, _, err = run_cli(capsys, "bound", "--density", density, "--method", "tv_quarter")
    assert code == 2
    assert "non-finite" in err


def test_oracle_unattainable_tolerance_exits_3(capsys):
    code, _, err = run_cli(
        capsys, "oracle", "--density", "uniform-log b=10", "--n", "1", "--tol", "1e-300"
    )
    assert code == 3
    assert "numerical failure" in err


@pytest.mark.parametrize("n", ("59", "500", "1000"))
def test_oracle_triangular_uniform_fold_exits_0(capsys, n):
    code, out, _ = run_cli(capsys, "oracle", "--density", "triangular 0 1 2", "--n", n)
    assert code == 0
    assert "value=0.0000000" in out


def test_oracle_at_one_million(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--density", "uniform-log b=10", "--n", "1000000")
    assert code == 0
    want = bf.delta_numeric(bf.uniform_log_density(10), 10**6).value
    assert f"unrounded: {want!r}\n" in out
    assert out.endswith("1 of 1 kink intervals monotone\n")


@pytest.mark.parametrize("hi", ("1e-13", "3.000000000001"))
def test_oracle_narrow_support_reads_one(capsys, hi):
    lo = "0" if hi == "1e-13" else "3"
    code, out, _ = run_cli(capsys, "oracle", "--density", f"uniform {lo} {hi}", "--n", "1")
    assert code == 0
    assert "value=1.0000000" in out


def test_oracle_mass_check_exits_3(capsys, monkeypatch):
    # the fold kink of the narrow support dropped, as integer snapping once
    # did: the signed piece values no longer sum to 0
    def kinkless(f, fold=oracle.fold_mod1):
        return oracle.FoldedDensity(fold(f).fn)

    monkeypatch.setattr(oracle, "fold_mod1", kinkless)
    code, _, err = run_cli(capsys, "oracle", "--density", "uniform 0 1e-13", "--n", "1")
    assert code == 3
    assert "numerical failure" in err and "mass" in err


def test_oracle_bisection_failure_exits_3(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise BisectionError("bisection needs a sign change")

    monkeypatch.setattr(cli, "delta_numeric", boom)
    code, _, err = run_cli(capsys, "oracle", "--density", "uniform 0 1", "--n", "3")
    assert code == 3
    assert "numerical failure" in err


# ---------------------------------------------------------------------------
# what each command imports
# ---------------------------------------------------------------------------

_SRC = str(Path(cli.__file__).resolve().parents[1])


def _run_python(code):
    env = {**os.environ, "PYTHONPATH": _SRC}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_builtin_densities_do_not_import_scipy():
    out = _run_python(
        "import sys\n"
        "from benfold.cli import main\n"
        "codes = [main(['bound', '--density', 'uniform-log b=10', '--method', 'step_density']),\n"
        "         main(['oracle', '--density', 'uniform-log b=10', '--n', '1000'])]\n"
        "print('CODES', codes)\n"
        "print('SCIPY', sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert "CODES [0, 0]" in out
    assert "SCIPY []" in out


_HEAVY = ("numpy", "benfold.density", "benfold.bounds", "benfold.oracle")
# standard-library modules a cold command leaves out: dataclasses imports
# inspect (with ast, dis and tokenize); json is needed only for json output
# and piecewise files
_COLD = ("dataclasses", "inspect", "json")


def test_table_and_exact_do_not_import_numpy():
    out = _run_python(
        "import sys\n"
        "from benfold.cli import main\n"
        "def loaded():\n"
        f"    return [m for m in {_HEAVY + _COLD!r} if m in sys.modules]\n"
        "codes = [main(['table', '--base', '10', '--format', fmt]) for fmt in ('text', 'csv')]\n"
        "codes.append(main(['exact', '--base', '10', '--exponent', '3']))\n"
        "print('CODES', codes, 'LOADED', loaded())\n"
        "print('JSON', main(['table', '--format', 'json']), 'LOADED', loaded())\n"
    )
    assert "CODES [0, 0, 0] LOADED []" in out
    assert "JSON 0 LOADED ['json']" in out


def test_bound_on_builtin_densities_loads_no_dataclasses_or_json():
    runs = [
        ["bound", "--density", d, "--method", m, "--n", "3"]
        for d in ("uniform-log b=10", "uniform-log b=3", "triangular 0 1 2", "uniform 0 2")
        for m in cli.METHODS
        if m != "exact_uniform"
    ]
    out = _run_python(
        "import contextlib, io, sys\n"
        "from benfold.cli import main\n"
        "def loaded():\n"
        f"    return [m for m in {('numpy',) + _COLD!r} if m in sys.modules]\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    codes = [main(argv) for argv in {runs!r}]\n"
        "print('BOUND', codes, loaded())\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['oracle', '--density', 'uniform-log b=10', '--n', '3'])\n"
        "print('ORACLE', code, loaded())\n"
    )
    want = [cli.main(argv) for argv in runs]
    assert want.count(0) >= 20
    assert f"BOUND {want} []" in out
    # the oracle's FoldedDensity is the one dataclass left
    assert "ORACLE 0 ['dataclasses', 'inspect']" in out


def _segments_file(tmp_path):
    """A piecewise file of one const, one linear and one exp segment."""
    amp = 0.35 / (math.exp(-1.5) - math.exp(-2.5))
    spec = [
        {"lo": 0.0, "hi": 0.5, "kind": "const", "params": {"value": 0.5}},
        {"lo": 0.5, "hi": 1.5, "kind": "linear", "params": {"slope": 0.2, "intercept": 0.2}},
        {"lo": 1.5, "hi": 2.5, "kind": "exp", "params": {"amp": amp, "rate": -1.0}},
    ]
    path = tmp_path / "segments.json"
    path.write_text(json.dumps(spec))
    return path


def test_bound_on_builtin_densities_does_not_import_numpy(tmp_path, capsys):
    densities = (
        "uniform-log b=10",
        "uniform-log b=3",
        "triangular 0 1 2",
        "uniform 0 2",
        "uniform 0.25 1.75",
        f"piecewise {_segments_file(tmp_path)}",
    )
    runs = [
        ["bound", "--density", d, "--method", m, "--n", n]
        for d in densities
        for m in cli.METHODS
        if m != "exact_uniform"
        for n in ("3", "2.5")
    ]
    out = _run_python(
        "import contextlib, io, sys\n"
        "from benfold.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    codes = [main(argv) for argv in {runs!r}]\n"
        "print('CODES', codes)\n"
        "print('NUMPY', 'numpy' in sys.modules)\n"
    )
    # the same runs in this process give the same exit codes
    want = [cli.main(argv) for argv in runs]
    capsys.readouterr()
    assert f"CODES {want}" in out
    assert want.count(0) >= 30  # the general bounds ran, not only refusals
    assert "NUMPY False" in out


def test_oracle_on_builtin_densities_does_not_import_numpy(tmp_path):
    # the four density kinds of the CLI, each folded in closed form
    densities = (
        "uniform 0.25 1.75",
        "uniform-log b=10",
        "uniform-log b=3",
        "triangular 0 1 2",
        f"piecewise {_segments_file(tmp_path)}",
    )
    runs = [["oracle", "--density", d, "--n", n] for d in densities for n in ("1", "3", "1000")]
    out = _run_python(
        "import contextlib, io, sys\n"
        "from benfold.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    buf = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buf):\n"
        "        code = main(argv)\n"
        "    print('RUN', code, buf.getvalue().split('unrounded: ')[1].split()[0])\n"
        "print('NUMPY', 'numpy' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['oracle', '--density', 'uniform 0 1', '--n', '3', '--engine', 'mc',\n"
        "                 '--samples', '10000', '--bins', '10'])\n"
        "print('MC', code, 'numpy' in sys.modules)\n"
    )
    # the CLI prints the very value the library computes in a process that
    # has numpy loaded
    want = [f"RUN 0 {cli.run_oracle(d, int(n)).value!r}" for _, _, d, _, n in runs]
    assert out.splitlines()[: len(runs)] == want
    assert "NUMPY False" in out
    assert "MC 0 True" in out


def test_bound_and_oracle_load_their_modules_on_first_use():
    out = _run_python(
        "import sys\n"
        "from benfold.cli import main\n"
        "def loaded():\n"
        f"    return [m for m in {_HEAVY!r} if m in sys.modules]\n"
        "print('START', loaded())\n"
        "print('ORACLE', main(['oracle', '--density', 'uniform-log b=10', '--n', '3']), loaded())\n"
        "print('BOUND', main(['bound', '--density', 'triangular 0 1 2', '--method', 'tv_quarter']), loaded())\n"
    )
    assert "START []" in out
    assert "ORACLE 0 ['benfold.density', 'benfold.oracle']" in out
    assert "BOUND 0 ['benfold.density', 'benfold.bounds', 'benfold.oracle']" in out


def test_error_classes_load_only_the_closed_forms():
    # every error class lives in benfold.closed, so naming one loads no other module
    out = _run_python(
        "import sys\n"
        "import benfold\n"
        "benfold.QuadratureError, benfold.BisectionError\n"
        "print('LOADED', sorted(m for m in sys.modules if m.startswith('benfold')))\n"
    )
    assert "LOADED ['benfold', 'benfold.closed']" in out


def test_package_names_resolve_lazily_to_one_object():
    out = _run_python(
        "import sys\n"
        "import benfold\n"
        "print('IMPORT', 'numpy' in sys.modules)\n"
        "benfold.exact_delta_uniform(10, 3)\n"
        "print('CLOSED', 'numpy' in sys.modules)\n"
    )
    assert "IMPORT False" in out and "CLOSED False" in out
    import benfold.bounds as bounds
    import benfold.closed as closed
    import benfold.density as density

    for name in bf.__all__:
        assert getattr(bf, name) is not None
        assert name in dir(bf)
    assert bf.DensityError is density.DensityError is closed.DensityError
    assert bf.BoundReport is bounds.BoundReport is closed.BoundReport
    assert bf.VacuousBoundError is bounds.VacuousBoundError is closed.VacuousBoundError
    assert bf.QuadratureError is oracle.QuadratureError is closed.QuadratureError
    assert bf.BisectionError is oracle.BisectionError is closed.BisectionError
    assert bounds.exact_delta_uniform is closed.exact_delta_uniform
    assert "delta_numeric" in vars(bf)  # cached after the first lookup
    for name in ("__wrapped__", "no_such_name", "closed_forms"):
        with pytest.raises(AttributeError):
            getattr(bf, name)


def test_cli_exposes_lazy_names_and_calls_them_as_globals(monkeypatch, capsys):
    # a wrapper set on benfold.cli is what `main` runs, also for names bound lazily
    assert getattr(cli, "bound_step_density") is bf.bound_step_density
    calls = []

    def fake(density):
        calls.append(density)
        return bf.BoundReport("step_density", 0.125, ("wrapped",))

    monkeypatch.setattr(cli, "bound_step_density", fake)
    code, out, _ = run_cli(
        capsys, "bound", "--density", "uniform-log b=10", "--method", "step_density"
    )
    assert code == 0
    assert len(calls) == 1
    assert "unrounded: 0.125" in out
    for name in ("__wrapped__", "no_such_name"):
        with pytest.raises(AttributeError):
            getattr(cli, name)


@pytest.mark.parametrize(
    "argv",
    (
        ["bound", "--density", "uniform -1e308 1e308", "--method", "step_density"],
        ["oracle", "--density", "uniform -1e308 1e308", "--n", "1"],
    ),
)
def test_infinite_width_is_bad_input_without_warnings(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "benfold", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": _SRC},
        timeout=60,
    )
    assert proc.returncode == 2
    assert "width hi - lo must be finite" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


# ---------------------------------------------------------------------------
# density mini-language and piecewise files
# ---------------------------------------------------------------------------


def test_parse_density_kinds():
    f, info = cli.parse_density("uniform 0 2")
    assert info["kind"] == "uniform"
    assert f(1.0) == pytest.approx(0.5)
    f, info = cli.parse_density("uniform-log b=10")
    assert info["b"] == 10.0
    f, _ = cli.parse_density("triangular 0 1 2")
    assert f(1.0) == pytest.approx(1.0)


def test_parse_density_errors():
    for bad in ("", "uniform 0", "uniform-log", "uniform-log b", "piecewise",
                "wedge 0 1", "uniform 1 0", "uniform-log b=10 c=3", "uniform-log b=2 b=10"):
        with pytest.raises(DensityError):
            cli.parse_density(bad)
    # uniform-log has one name
    with pytest.raises(DensityError, match="unknown density kind 'exp-on-unit'"):
        cli.parse_density("exp-on-unit b=10")


def test_piecewise_file_roundtrip(tmp_path, capsys):
    lnb = math.log(10.0)
    spec = [
        {
            "lo": 0.0,
            "hi": 1.0,
            "kind": "exp",
            "params": {"amp": lnb / 9.0, "rate": lnb},
        }
    ]
    path = tmp_path / "density.json"
    path.write_text(json.dumps(spec))
    f = cli.load_piecewise_file(str(path))
    assert f.segments == (bf.exp_segment(0.0, 1.0, lnb / 9.0, lnb),)
    code, out, _ = run_cli(
        capsys, "bound", "--density", f"piecewise {path}", "--method", "tv_quarter"
    )
    assert code == 0
    assert "value=0.5756463" in out


def test_piecewise_file_defaults_flags(tmp_path):
    spec = [{"lo": 0.0, "hi": 2.0, "kind": "const", "params": {"value": 0.5}}]
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(spec))
    f = cli.load_piecewise_file(str(path))
    # the builder's segment as it is: its kind owns its shape, with no flag to set
    assert f.segments == (bf.const_segment(0.0, 2.0, 0.5),) and f.segments[0].direction == 0


def test_piecewise_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([{"lo": 0, "hi": 1, "kind": "spline", "params": {}}]))
    code, _, err = run_cli(
        capsys, "bound", "--density", f"piecewise {bad}", "--method", "tv_quarter"
    )
    assert code == 2
    missing = tmp_path / "nope.json"
    code, _, err = run_cli(
        capsys, "bound", "--density", f"piecewise {missing}", "--method", "tv_quarter"
    )
    assert code == 2
    not_normalized = tmp_path / "heavy.json"
    not_normalized.write_text(
        json.dumps([{"lo": 0, "hi": 1, "kind": "const", "params": {"value": 3.0}}])
    )
    code, _, err = run_cli(
        capsys, "bound", "--density", f"piecewise {not_normalized}", "--method", "tv_quarter"
    )
    assert code == 2
    assert "mass" in err
    # records of the wrong type: a bare number, a null bound, params as a
    # list, a kind as a list, a bool or string bound; and records with a
    # field or a param the kind does not have, shape flags included
    good = {"lo": 0, "hi": 1, "kind": "const", "params": {"value": 1.0}}
    for records in (
        [1, 2], [{**good, "lo": None}], [{**good, "params": [1]}], [{**good, "kind": ["const"]}],
        [{**good, "hi": True}], [{**good, "lo": "0"}], [{**good, "monotonicity": "constant"}], [{**good, "convexity": "convex"}],
        [{**good, "params": {"value": 1.0, "slope": 5}, "monotonicty": "decreasing"}],
        [{**good, "params": {"value": 1.0, "slope": 5}}],
    ):
        malformed = tmp_path / "malformed.json"
        malformed.write_text(json.dumps(records))
        code, _, err = run_cli(
            capsys, "bound", "--density", f"piecewise {malformed}", "--method", "tv_quarter"
        )
        assert code == 2
        assert "error:" in err and "Traceback" not in err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["no-such-command"])
    assert exc_info.value.code == 2
