"""Map grammar, config files, subcommands, and exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import capax
from capax import capacity, cli
from capax.cli import format_map, load_config, main, parse_map
from capax.errors import InvalidMap, NonConvergence, ParseError
from capax.ratmap import RationalMapPF

from conftest import random_good_map
from test_boundary import MARGIN_8E_9, SEVEN_POLE


GOOD_TEXT = "0.3/(z+1)+0.2/(z-1)"


def test_parse_basic_forms():
    R = parse_map(GOOD_TEXT)
    assert np.allclose(R.residues, [0.3, 0.2])
    assert np.allclose(R.poles, [-1.0, 1.0])
    R2 = parse_map(" 0.5 / ( z ) ")
    assert R2.poles[0] == 0
    R3 = parse_map("1e-1/(z-(2+1i))")
    assert R3.residues[0] == 0.1 and R3.poles[0] == 2 + 1j
    R4 = parse_map("-0.3/(z)+0.2/(z-1)")
    assert R4.residues[0] == -0.3
    R5 = parse_map("0.4/(z-(1-2i))")
    assert R5.poles[0] == 1 - 2j
    R6 = parse_map("(0.1+0.7i)/(z)")
    assert R6.residues[0] == 0.1 + 0.7j


def test_parse_sign_between_terms():
    R = parse_map("0.3/(z)-0.2/(z-1)")
    assert np.allclose(R.residues, [0.3, -0.2])


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as e1:
        parse_map("0.3|(z)")
    assert e1.value.position == 3
    with pytest.raises(ParseError) as e2:
        parse_map("0.3/(z)+")
    assert e2.value.position == 8
    with pytest.raises(ParseError) as e3:
        parse_map("0.3/(w)")
    assert e3.value.position == 5
    with pytest.raises(ParseError):
        parse_map("")


def test_parse_invalid_maps_carry_term_index():
    with pytest.raises(InvalidMap) as e1:
        parse_map("1/(z-1)+1/(z-1)")
    assert e1.value.term_index == 1
    with pytest.raises(InvalidMap) as e2:
        parse_map("0/(z)")
    assert e2.value.term_index == 0


def test_format_round_trip_exact():
    rng = np.random.default_rng(97)
    maps = [random_good_map(rng, int(rng.integers(1, 5))) for _ in range(8)]
    maps.append(RationalMapPF([-0.25, 0.5], [0.0, 1.0]))
    maps.append(RationalMapPF([0.3, -0.7j], [1j, -2.0 - 0.5j]))
    for R in maps:
        S = parse_map(format_map(R))
        assert np.array_equal(S.residues, R.residues)
        assert np.array_equal(S.poles, R.poles)


def test_check_exit_codes(capsys):
    assert main(["check", "--map", GOOD_TEXT]) == 0
    out = capsys.readouterr().out
    assert "goodness: good" in out
    assert "sum_residues: 0.5" in out

    assert main(["check", "--map", "5/(z)+5/(z-0.1)"]) == 2
    err = capsys.readouterr().err
    assert "not-good" in err


@pytest.mark.parametrize(
    "var, value", [("CAPAX_BACKEND", "numba"), ("CAPAX_THREADS", "-1")]
)
def test_retired_env_knobs_are_ignored(var, value):
    # These once selected a root-solving backend and its thread count; they
    # failed at import or startup, so only a fresh interpreter sees them.
    src = str(Path(capax.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, **{var: value})
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from capax.cli import main; sys.exit(main())",
         "check", "--map", GOOD_TEXT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "goodness: good" in proc.stdout
    assert "sum_residues: 0.5" in proc.stdout


def test_parse_failure_exits_2(capsys):
    assert main(["bounds", "--map", "0.3/(w)"]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_map_exits_2(capsys):
    assert main(["bounds"]) == 2
    assert "no map given" in capsys.readouterr().err


def test_bad_nodes_exits_2(capsys):
    assert main(["bounds", "--map", GOOD_TEXT, "--nodes", "100"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "exc", [NonConvergence("no convergence"), np.linalg.LinAlgError("no convergence")]
)
def test_numerical_failure_exits_3(monkeypatch, capsys, exc):
    # LinAlgError is a ValueError; inside the numerics it is no bad input
    def failing(*args, **kwargs):
        raise exc

    monkeypatch.setattr(capacity, "bounds_sequence", failing)
    assert main(["verdict", "--map", GOOD_TEXT]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerical failure: no convergence\n"


def test_basis_overflow_exits_3(capsys):
    # (z - p)^{-40} overflows on the curve 1e-4 from the pole at 0; the
    # failure is reported without a RuntimeWarning, which pytest's
    # filterwarnings setting turns into an error
    assert main(["verdict", "--map", "0.0001/(z)+0.3/(z-2)", "--kmax", "40"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure:")


@pytest.mark.parametrize("command", ["bounds", "verdict"])
def test_unwritable_out_exits_2(tmp_path, capsys, command):
    out = tmp_path / "missing" / "out.txt"
    assert main([command, "--map", GOOD_TEXT, "--kmax", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2


def test_bounds_csv_matches_library(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = main(["bounds", "--map", GOOD_TEXT, "--kmax", "3", "--nodes", "512",
                 "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "k,lower,upper"
    assert len(lines) == 4
    ref = capacity.bounds_sequence(parse_map(GOOD_TEXT), 3, N=512)
    for line, (k, low, up) in zip(lines[1:], ref.rows):
        fk, fl, fu = line.split(",")
        assert int(fk) == k
        assert abs(float(fl) - low) < 1e-12
        assert abs(float(fu) - up) < 1e-12


def test_bounds_default_resolution_matches_library(capsys):
    assert main(["bounds", "--map", GOOD_TEXT, "--kmax", "3"]) == 0
    auto = capsys.readouterr().out
    assert auto == cli.bounds_csv(capacity.bounds_sequence(parse_map(GOOD_TEXT), 3))
    assert main(["bounds", "--map", GOOD_TEXT, "--kmax", "3", "--nodes", "512"]) == 0
    assert capsys.readouterr().out == (
        "k,lower,upper\n"
        "1,0.492562045464946,0.500047419736669\n"
        "2,0.499952584760167,0.500003281768904\n"
        "3,0.499996718252636,0.500000110442346\n"
    )


def test_trace_outputs(tmp_path, capsys):
    out = tmp_path / "nodes.csv"
    svg = tmp_path / "curves.svg"
    code = main(["trace", "--map", GOOD_TEXT, "--nodes", "128",
                 "--out", str(out), "--svg", str(svg)])
    assert code == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "component,t,re,im,speed"
    assert len(lines) == 1 + 2 * 128
    assert svg.read_text().lstrip().startswith("<svg")


def test_verdict_report(capsys):
    code = main(["verdict", "--map", GOOD_TEXT, "--kmax", "4", "--nodes", "512"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("map: " + GOOD_TEXT)
    assert "verdict: consistent-with-ahlfors" in out
    assert "certified: yes" in out
    assert "bracket: k=4" in out


def test_verdict_on_a_map_at_margin_8e_9(capsys):
    assert main(["verdict", "--map", MARGIN_8E_9, "--kmax", "5"]) == 0
    assert "bracket: k=5" in capsys.readouterr().out


def test_verdict_on_a_seven_pole_map_at_the_default_n(capsys):
    assert main(["verdict", "--map", SEVEN_POLE, "--kmax", "3"]) == 0
    assert "bracket: k=3" in capsys.readouterr().out


def test_verdict_classifies_the_map_once(monkeypatch, capsys):
    # the goodness check and trace's choice of N share one critical-point solve
    calls = []
    real = capax.numerics.roots

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(capax.numerics, "roots", counting)
    assert main(["verdict", "--map", GOOD_TEXT]) == 0
    assert "goodness: good" in capsys.readouterr().out
    assert len(calls) == 1


def test_config_file_with_map_section(tmp_path, capsys):
    cfgp = tmp_path / "job.cfg"
    cfgp.write_text(
        "# demo job\n"
        "kmax = 3\n"
        "nodes = 512\n"
        "[map]\n"
        "term = 0.3 0 / -1 0\n"
        "term = 0.2 0 / 1 0\n"
    )
    out = tmp_path / "rows.csv"
    assert main(["bounds", "--config", str(cfgp), "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert len(lines) == 4  # header + kmax rows


def test_config_flag_override(tmp_path, capsys):
    cfgp = tmp_path / "job.cfg"
    cfgp.write_text(f"map = {GOOD_TEXT}\nkmax = 3\nnodes = 512\n")
    out = tmp_path / "rows.csv"
    assert main(["bounds", "--config", str(cfgp), "--kmax", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    assert len(out.read_text().splitlines()) == 3  # header + 2 rows


def test_config_rejects_garbage(tmp_path, capsys):
    cfgp = tmp_path / "job.cfg"
    cfgp.write_text("kmax 3\n")
    assert main(["bounds", "--config", str(cfgp)]) == 2
    capsys.readouterr()


def test_config_duplicate_pole_is_bad_input(tmp_path, capsys):
    # the same map through --map is an InvalidMap; both are bad input
    cfgp = tmp_path / "job.cfg"
    cfgp.write_text("kmax = 2\n[map]\nterm = 0.3 0 / 1 0\nterm = 0.2 0 / 1 0\n")
    assert main(["bounds", "--config", str(cfgp)]) == 2
    assert "coincide" in capsys.readouterr().err
    assert main(["bounds", "--map", "0.3/(z-1)+0.2/(z-1)"]) == 2
    capsys.readouterr()


def test_repro_reference_agreement(tmp_path, capsys):
    out = tmp_path / "repro.csv"
    assert main(["repro", "1", "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "verdict consistent-with-ahlfors" in err
    lines = out.read_text().splitlines()
    assert lines[0] == "k,lower,upper,paper_lower,paper_upper,abs_err_l,abs_err_u"
    assert len(lines) == 6
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[5]) < 1e-6 and float(cells[6]) < 1e-6


def test_repro_rejects_unknown_example():
    with pytest.raises(SystemExit):
        main(["repro", "9"])


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--tol", "-1", "tol must be positive"),
        ("--tol", "0", "tol must be positive"),
        ("--nodes", "0", "nodes must be a power of two"),
        ("--kmax", "0", "kmax must be >= 1"),
    ],
)
def test_repro_validates_like_other_subcommands(capsys, flag, value, message):
    assert main(["repro", "1", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")


def test_repro_has_no_svg_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as e:
        main(["repro", "1", "--svg", str(tmp_path / "curves.svg")])
    assert e.value.code == 2
    assert "unrecognized arguments: --svg" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "bounds", "verdict"])
def test_only_trace_has_svg_flag(tmp_path, capsys, command):
    svg = tmp_path / "curves.svg"
    with pytest.raises(SystemExit) as e:
        main([command, "--map", GOOD_TEXT, "--kmax", "2", "--svg", str(svg)])
    assert e.value.code == 2
    assert "unrecognized arguments: --svg" in capsys.readouterr().err
    assert not svg.exists()


def test_python_dash_m_capax():
    src = str(Path(capax.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "capax", "check", "--map", GOOD_TEXT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "goodness: good" in proc.stdout


def test_example_maps_all_good():
    for ex in range(1, 7):
        R = cli.example_map(ex)
        from capax.ratmap import Goodness, is_n_good

        assert is_n_good(R).status is Goodness.GOOD


@pytest.mark.parametrize("typo, lineno", [("kmx = 2", 2), ("nodse = 128", 3)])
def test_config_rejects_unknown_key(tmp_path, capsys, typo, lineno):
    cfgp = tmp_path / "job.cfg"
    lines = [f"map = {GOOD_TEXT}", "kmax = 2", "nodes = 512"]
    lines[lineno - 1] = typo
    cfgp.write_text("\n".join(lines) + "\n")
    assert main(["bounds", "--config", str(cfgp)]) == 2
    err = capsys.readouterr().err
    key = typo.split()[0]
    assert err.startswith(f"error: {cfgp}:{lineno}: ") and repr(key) in err


def test_config_svg_key_is_shared_by_all_subcommands(tmp_path, capsys):
    cfgp = tmp_path / "job.cfg"
    svg = tmp_path / "curves.svg"
    cfgp.write_text(f"map = {GOOD_TEXT}\nkmax = 2\nnodes = 256\nsvg = {svg}\n")
    assert main(["bounds", "--config", str(cfgp)]) == 0
    assert not svg.exists()
    assert main(["trace", "--config", str(cfgp)]) == 0
    capsys.readouterr()
    assert svg.read_text().startswith("<svg")
