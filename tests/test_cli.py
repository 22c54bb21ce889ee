"""End-to-end CLI tests: verbs, formats, exit codes, determinism."""
import gc
import json
import subprocess
import sys

import pytest

from importlib import resources

from lcfn import expr as ex
from lcfn.cli import main


def run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "lcfn.cli", *argv],
                          capture_output=True, text=True)


@pytest.fixture
def tri(tmp_path):
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(
        {"kind": "triangular", "left": -1.0, "peak": 0.0, "right": 2.0}))
    return str(path)


@pytest.fixture
def am1(tmp_path):
    path = tmp_path / "am1.json"
    path.write_text(json.dumps(
        {"kind": "triangular", "left": 0.0, "peak": 1.0, "right": 3.0}))
    return str(path)


def scenario_path(tmp_path, name):
    data = resources.files("lcfn.scenarios").joinpath(name).read_text()
    path = tmp_path / name
    path.write_text(data)
    return str(path)


# -- elementary verbs ------------------------------------------------------

def test_compare_tier_three(tri):
    result = run_cli("compare", "--gen", tri, "3+2A", "3-2A")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["schema"] == 1
    assert doc["result"] == "greater" and doc["tier"] == 3

    text = run_cli("compare", "--gen", tri, "--format", "text", "3+2A", "3-2A")
    assert text.stdout.strip() == "Greater (tier III)"


def test_compare_equal(tri):
    result = run_cli("compare", "--gen", tri, "4", "4")
    doc = json.loads(result.stdout)
    assert doc["result"] == "equal" and "tier" not in doc
    text = run_cli("compare", "--gen", tri, "--format", "text", "4", "4")
    assert text.stdout.strip() == "Equal"


def test_malformed_literal_exits_2(tri):
    result = run_cli("compare", "--gen", tri, "3+2B", "4")
    assert result.returncode == 2
    assert "offset" in result.stderr


def test_non_finite_literal_exits_2(tri):
    result = run_cli("compare", "--gen", tri, "--", "1e999-1e999", "5")
    assert result.returncode == 2
    assert result.stderr.splitlines() == [
        "error: element literal '1e999-1e999' is not finite (offset 0)"]
    assert result.stdout == ""


def test_missing_gen_exits_2():
    result = run_cli("norm", "3+2A")
    assert result.returncode == 2


def test_negative_literal_prints_no_negative_zero(tri):
    for literal in ("-1.5A", "-0"):
        out = run_cli("norm", "--gen", tri, "--", literal).stdout
        assert '"r": 0.0' in out and "-0.0" not in out, literal


GOOD_GEN = {"kind": "triangular", "left": -1, "peak": 0, "right": 2}


@pytest.mark.parametrize("flag, config, message", [
    ("--gen", {"kind": "triangular", "left": -1, "peak": 0},
     "missing key 'right'"),
    ("--gen", {"kind": "piecewise-linear", "knots": 5},
     "knots must be [x, mu] pairs of numbers, got 5"),
    ("--gen", [1, 2], "generator config must be a JSON object, got list"),
    ("--gen", {"kind": "triangular", "left": -1, "peak": 0,
               "right": float("inf")}, "knot 2 has a non-finite abscissa inf"),
    ("--gen", {"kind": "triangular", "left": -1.7e308, "peak": 1.7e308,
               "right": 1.75e308},
     "knot 1 lies too far from knot 0: their spacing overflows a float"),
    ("--scenario", {"gen": GOOD_GEN, "domain": [0], "r": "t", "q": "t"},
     "'domain' must be [a, b], got [0]"),
    ("--scenario", {"gen": GOOD_GEN, "domain": [0, 1], "r": 5, "q": "t"},
     "'r' must be an expression string, got 5"),
    ("--scenario", {"gen": GOOD_GEN, "domain": [0, 1], "r": "t", "q": "t",
                    "eps0": [1]}, "'eps0' must be a number, got [1]"),
    ("--scenario", [1, 2], "scenario must be a JSON object, got list"),
], ids=["gen-missing-key", "gen-knots-int", "gen-list", "gen-infinite-knot",
        "gen-spacing-overflow",
        "scenario-domain", "scenario-r-int", "scenario-eps0-list",
        "scenario-list"])
def test_malformed_config_exits_2(tmp_path, flag, config, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    if flag == "--gen":
        result = run_cli("norm", "--gen", str(path), "3+2A")
    else:
        result = run_cli("verify", "ftc", "--scenario", str(path))
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert message in lines[0]
    assert result.stdout == ""


def test_norm_and_classify(tri):
    doc = json.loads(run_cli("norm", "--gen", tri, "3+2A").stdout)
    assert doc["norm"] == 5.0
    doc = json.loads(run_cli("classify", "--gen", tri, "--", "-1").stdout)
    assert doc["class"] == "negative"


def test_cross(tri):
    doc = json.loads(run_cli("cross", "--gen", tri, "3+2A", "1-A").stdout)
    assert doc["result"]["r"] == 3.0 and doc["result"]["q"] == -1.0


def test_alpha_level(tri):
    doc = json.loads(
        run_cli("alpha-level", "--gen", tri, "--alpha", "0.5").stdout)
    assert doc["interval"] == [-0.5, 1.0]
    doc = json.loads(
        run_cli("alpha-level", "--gen", tri, "--alpha", "0.5", "3+2A").stdout)
    assert doc["interval"] == [2.0, 5.0]


def test_alpha_out_of_range_exits_2(tri):
    assert run_cli("alpha-level", "--gen", tri, "--alpha", "1.5").returncode == 2


def test_integrate_inline(tri):
    doc = json.loads(run_cli(
        "integrate", "--gen", tri, "--r", "t", "--q", "t",
        "--domain", "0", "1").stdout)
    assert doc["result"]["r"] == pytest.approx(0.5, abs=1e-12)
    assert doc["result"]["q"] == pytest.approx(0.5, abs=1e-12)


def test_differentiate_inline(tri):
    doc = json.loads(run_cli(
        "differentiate", "--gen", tri, "--r", "t^2", "--q", "t^3",
        "--domain", "0", "2", "--at", "1").stdout)
    assert doc["result"] == {"r": 2.0, "q": 3.0, "center": 2.0,
                             "class": "positive"}


def test_critical_points_verb(am1):
    doc = json.loads(run_cli(
        "critical-points", "--gen", am1, "--r", "t^2", "--q", "t",
        "--domain", "-2", "1").stdout)
    assert len(doc["points"]) == 1
    point = doc["points"][0]
    assert abs(point["t"] + 0.5) < 1e-10
    assert point["verdict"] == "local-min"


def test_expression_syntax_error_exits_2(tri):
    result = run_cli("integrate", "--gen", tri, "--r", "t +", "--q", "t",
                     "--domain", "0", "1")
    assert result.returncode == 2
    assert "offset" in result.stderr


# -- verify verbs ----------------------------------------------------------------

def test_verify_ftc_scenario(tmp_path):
    path = scenario_path(tmp_path, "s01_sine_poly.json")
    result = run_cli("verify", "ftc", "--scenario", path)
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["report"]["passed"] is True
    assert doc["report"]["residuals"]["endpoint"] < 1e-8


def test_verify_ibp_scenario(tmp_path):
    path = scenario_path(tmp_path, "s01_sine_poly.json")
    result = run_cli("verify", "ibp", "--scenario", path)
    assert result.returncode == 0


def test_verify_dbr_forward_passes(tmp_path):
    path = scenario_path(tmp_path, "s09_dbr_pair.json")
    result = run_cli("verify", "dbr-forward", "--scenario", path)
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["report"]["residuals"]["max"] < 1e-7


def test_verify_dbr_forward_detects_failure(tmp_path):
    path = scenario_path(tmp_path, "s10_dbr_perturbed.json")
    result = run_cli("verify", "dbr-forward", "--scenario", path)
    assert result.returncode == 1  # mathematical check failed
    doc = json.loads(result.stdout)
    assert doc["report"]["passed"] is False


def test_verify_gen_override(tmp_path, tri):
    # --gen replaces the scenario generator
    path = scenario_path(tmp_path, "s01_sine_poly.json")
    result = run_cli("verify", "ftc", "--scenario", path, "--gen", tri)
    assert result.returncode == 0


def test_verify_interchange_inline(tri):
    result = run_cli("verify", "interchange", "--gen", tri,
                     "--r", "t * eps", "--q", "eps^2",
                     "--domain", "0", "1", "--eps0", "1.0")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["report"]["passed"] is True


def test_verify_interchange_scenario_file(tmp_path):
    path = tmp_path / "interchange.json"
    path.write_text(json.dumps({
        "gen": {"kind": "triangular", "left": -1.0, "peak": 0.0, "right": 2.0},
        "domain": [0.0, 1.0], "r": "sin(t * eps)", "q": "eps", "eps0": 0.5}))
    result = run_cli("verify", "interchange", "--scenario", str(path))
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["report"]["passed"] is True


def test_verify_lagrange_scenario(tmp_path):
    path = scenario_path(tmp_path, "s06_recovery_window.json")
    result = run_cli("verify", "lagrange", "--scenario", path, "--grid", "3")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["report"]["residuals"]["max_recovery_error"] < 0.05


def test_verify_dbr_reconstruct_csv(tmp_path):
    path = scenario_path(tmp_path, "s12_reconstruction_gap.json")
    result = run_cli("verify", "dbr-reconstruct", "--scenario", path,
                     "--grid", "17", "--format", "csv")
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "center_residual,coord_residual,t"
    assert len(lines) == 18  # header + one row per grid node


def test_csv_rejected_for_scalar_verbs(tri):
    result = run_cli("norm", "--gen", tri, "--format", "csv", "3+2A")
    assert result.returncode == 2


def test_missing_partner_exits_2(tmp_path, tri):
    path = tmp_path / "nopartner.json"
    path.write_text(json.dumps({
        "gen": {"kind": "triangular", "left": -1.0, "peak": 0.0, "right": 2.0},
        "domain": [0.0, 1.0], "r": "t", "q": "t"}))
    result = run_cli("verify", "ibp", "--scenario", str(path))
    assert result.returncode == 2


def test_nonconvergent_quadrature_exits_3(tri):
    result = run_cli("integrate", "--gen", tri,
                     "--r", "1000000 * sin(50 / (t + 0.000001))", "--q", "0",
                     "--domain", "0", "1", "--tol", "1e-15")
    assert result.returncode == 3


def test_square_root_integrand_converges(tri):
    # adaptive Simpson ran out of depth at t = 0 and exited 3
    result = run_cli("integrate", "--gen", tri, "--r", "sqrt(t)", "--q", "t",
                     "--domain", "0", "1")
    assert result.returncode == 0
    value = json.loads(result.stdout)["result"]
    assert value["r"] == pytest.approx(2.0 / 3.0, rel=1e-10)
    assert value["q"] == pytest.approx(0.5, rel=1e-12)


def test_overflowed_integrand_exits_2(tri):
    result = run_cli("integrate", "--gen", tri, "--r", "1e300*1e300*t",
                     "--q", "t", "--domain", "0", "1")
    assert result.returncode == 2
    assert ("error: integrand not finite on [0.0, 1.0]: subinterval "
            "[0.0, 1.0] estimates inf" in result.stderr)
    assert result.stdout == ""


@pytest.mark.parametrize("r_src, message", [
    ("log(t-2)", "log of nonpositive value -1.9957276855604063 "
                 "at t=0.004272314439593694"),
    ("sqrt(t-2)", "sqrt of negative value -1.9957276855604063 "
                  "at t=0.004272314439593694"),
    ("1/(t-0.5)", "division by zero at t=0.5"),
    ("exp(1000*t)", "overflow in exp at t=0.7930436177338456"),
])
def test_evaluation_error_names_t(tri, r_src, message):
    result = run_cli("integrate", "--gen", tri, "--r", r_src,
                     "--q", "t", "--domain", "0", "1")
    assert result.returncode == 2
    assert result.stderr == f"error: {message}\n"
    assert result.stdout == ""


def test_sine_of_infinite_value_exits_2(tri):
    result = run_cli("integrate", "--gen", tri, "--r", "sin(1e300*1e300*t)",
                     "--q", "t", "--domain", "0", "1")
    assert result.returncode == 2
    assert ("error: sin or cos of an infinite value in sin(1e+300*1e+300*t) "
            "at t=0.004272314439593694" in result.stderr)
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("r_src", ["(" * 400 + "t" + ")" * 400,
                                   "-" * 1200 + "t", "t^" * 400 + "t"],
                         ids=["parentheses", "minuses", "powers"])
def test_deep_expression_exits_2(tri, r_src):
    result = run_cli("integrate", "--gen", tri, f"--r={r_src}", "--q", "t",
                     "--domain", "0", "1")
    assert result.returncode == 2
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: nesting deeper")
    assert result.stdout == ""


def test_eps0_option_applies_to_scenario_files(tmp_path):
    path = scenario_path(tmp_path, "s01_sine_poly.json")
    result = run_cli("verify", "interchange", "--scenario", path,
                     "--eps0", "1.0")
    assert result.returncode == 0
    report = json.loads(result.stdout)["report"]
    # s01 does not mention eps, so both sides of the interchange are 0
    assert report["passed"] and report["residuals"]["lhs_r"] == 0.0
    result = run_cli("verify", "interchange", "--scenario", path)
    assert result.returncode == 2
    assert result.stderr == ("error: interchange needs eps0: a scenario "
                             "'eps0' key or --eps0\n")


@pytest.mark.parametrize("verb, inline, flags", [
    (("integrate",), ("--domain", "0", "1e308"), "--domain"),
    (("verify", "ftc"), ("--r", "t", "--q", "t"), "--r, --q"),
    (("differentiate", "--at", "0.5"), ("--q", "t", "--domain", "0", "2"),
     "--q, --domain"),
], ids=["integrate", "verify", "differentiate"])
def test_scenario_with_inline_flags_exits_2(tmp_path, verb, inline, flags):
    # the scenario's r, q and domain once won silently: integrate printed
    # s01's integral over [0, 1] and exited 0
    path = scenario_path(tmp_path, "s01_sine_poly.json")
    result = run_cli(*verb, "--scenario", path, *inline)
    assert result.returncode == 2
    assert result.stderr == (
        f"error: --scenario cannot go with {flags}: the scenario sets r, q "
        "and the domain (only --gen and --eps0 override it)\n")
    assert result.stdout == ""


def test_eps0_option_keeps_the_json_object_check(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    result = run_cli("verify", "interchange", "--scenario", str(path),
                     "--eps0", "1.0")
    assert result.returncode == 2
    assert result.stderr == ("error: scenario must be a JSON object, "
                             "got list\n")


def test_critical_points_grid_one_exits_2(tri):
    result = run_cli("critical-points", "--gen", tri, "--r", "t^2", "--q", "t",
                     "--domain", "-2", "1", "--grid", "1")
    assert result.returncode == 2
    assert "grid >= 2, got 1" in result.stderr
    assert "Traceback" not in result.stderr


def test_dbr_reconstruct_grid_one_exits_2(tmp_path):
    path = scenario_path(tmp_path, "s12_reconstruction_gap.json")
    result = run_cli("verify", "dbr-reconstruct", "--scenario", path,
                     "--grid", "1")
    assert result.returncode == 2
    assert "got 1" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("verb, name", [
    (("critical-points",), "s01_sine_poly.json"),
    (("verify", "lagrange"), "s06_recovery_window.json"),
    (("verify", "dbr-reconstruct"), "s12_reconstruction_gap.json"),
], ids=["critical-points", "lagrange", "dbr-reconstruct"])
def test_grid_above_the_maximum_exits_2_before_building(tmp_path, verb, name):
    # the child gets 1 GiB of address space and 60 s: a grid of 1e20
    # nodes that is built in spite of its size fails with a MemoryError
    # instead of filling the machine's memory
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))

    result = subprocess.run(
        [sys.executable, "-m", "lcfn.cli", *verb, "--scenario",
         scenario_path(tmp_path, name), "--grid", str(10 ** 20)],
        capture_output=True, text=True, timeout=60, preexec_fn=limit)
    assert result.returncode == 2
    assert result.stderr.startswith(
        "error: need at most MAX_GRID_NODES=65536 grid nodes, got ")
    assert "Traceback" not in result.stderr


def test_lagrange_index_above_the_kernel_bound_exits_2_at_once(tmp_path):
    # n = 2,000,000 once spent minutes in C(2n, n) before its first integral
    path = scenario_path(tmp_path, "s06_recovery_window.json")
    result = subprocess.run(
        [sys.executable, "-m", "lcfn.cli", "verify", "lagrange", "--scenario",
         path, "--grid", "1", "--k", "1,1000000"],
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 2
    assert result.stderr == ("error: kernel power n = (l+1)*k = 2000000 is "
                             "above MAX_KERNEL_POWER=262144\n")
    assert result.stdout == ""


def test_dbr_reconstruct_domain_too_narrow_exits_2(tri):
    result = run_cli("verify", "dbr-reconstruct", "--gen", tri, "--r", "t",
                     "--q", "0", "--domain", "0", "5e-324", "--grid", "3")
    assert result.returncode == 2
    assert result.stderr == ("error: domain [0.0, 5e-324] is too narrow for "
                             "a mean value: 1/(b - a) is not finite\n")
    assert result.stdout == ""


def test_lagrange_grid_zero_exits_2(tmp_path):
    path = scenario_path(tmp_path, "s06_recovery_window.json")
    result = run_cli("verify", "lagrange", "--scenario", path, "--grid", "0")
    assert result.returncode == 2
    assert "grid >= 1, got 0" in result.stderr


def test_lagrange_nan_epsilon_exits_2(tmp_path):
    path = scenario_path(tmp_path, "s06_recovery_window.json")
    result = run_cli("verify", "lagrange", "--scenario", path, "--grid", "1",
                     "--epsilon", "nan")
    assert result.returncode == 2
    assert "got nan" in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("ladder", ["", "1,,2", "1,x"])
def test_lagrange_bad_index_ladder_names_k(tmp_path, ladder):
    path = scenario_path(tmp_path, "s06_recovery_window.json")
    result = run_cli("verify", "lagrange", "--scenario", path, "--grid", "1",
                     "--k", ladder)
    assert result.returncode == 2
    assert (f"error: --k needs comma-separated integers, got {ladder!r}"
            in result.stderr)
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("what, option, checks", [
    ("ftc", ["--epsilon", "0.1"], "lagrange"),
    ("ibp", ["--l", "2"], "lagrange"),
    ("dbr-forward", ["--k", "1,2"], "lagrange"),
    ("interchange", ["--grid", "3"], "lagrange, dbr-reconstruct"),
    ("dbr-reconstruct", ["--epsilon", "0.1"], "lagrange"),
    ("lagrange", ["--eps0", "1.0"], "interchange"),
])
def test_verify_option_the_check_does_not_take_exits_2(tmp_path, what,
                                                       option, checks):
    path = scenario_path(tmp_path, "s01_sine_poly.json")
    result = run_cli("verify", what, "--scenario", path, *option)
    assert result.returncode == 2
    assert result.stderr.splitlines() == [
        f"error: verify {what} takes no {option[0]} (checks that do: {checks})"]
    assert result.stdout == ""


@pytest.mark.parametrize("verb, r", [
    ("integrate", "t"), ("critical-points", "t^2-t")])
def test_infinite_domain_exits_2(tri, verb, r):
    result = run_cli(verb, "--gen", tri, "--r", r, "--q", "t",
                     "--domain", "0", "inf")
    assert result.returncode == 2
    assert "domain ends must be finite, got [0.0, inf]" in result.stderr
    assert result.stdout == ""


def test_interchange_nan_eps0_exits_2(tri):
    result = run_cli("verify", "interchange", "--gen", tri,
                     "--r", "t*eps", "--q", "t",
                     "--domain", "0", "1", "--eps0", "nan")
    assert result.returncode == 2
    assert "eps0 must be finite, got nan" in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tolerance_exits_2(tri, tol):
    result = run_cli("integrate", "--gen", tri, "--r", "t", "--q", "t",
                     "--domain", "0", "1", "--tol", tol)
    assert result.returncode == 2
    assert f"got {tol}" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("argv", [
    ("compare", "1", "2"), ("norm", "1"), ("classify", "1"),
    ("cross", "1", "2"), ("alpha-level", "--alpha", "0.5"),
    ("differentiate", "--at", "0.5"), ("critical-points",),
])
def test_tol_only_on_quadrature_verbs(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        main([*argv, "--tol", "1e-3"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


# -- tree height ----------------------------------------------------------------

EXPRESSION_VERBS = [
    ("integrate",), ("differentiate", "--at", "1.05"),
    ("critical-points", "--grid", "64"), ("verify", "ftc"),
    ("verify", "ibp"), ("verify", "dbr-forward"), ("verify", "dbr-reconstruct"),
    ("verify", "lagrange", "--grid", "2", "--k", "1,2"),
    ("verify", "interchange"),
]


def chain_scenario(tmp_path, op, n):
    """A scenario whose r, q and partner are all ``t`` joined by ``n``
    operators ``op``, plus its two-variable twin for interchange."""
    src = "t" + f"{op}t" * n
    doc = {"gen": {"kind": "triangular", "left": -1.0, "peak": 0.0,
                   "right": 2.0},
           "domain": [0.9, 1.1], "r": src, "q": src,
           "partner": {"r": src, "q": src}}
    plain, twin = tmp_path / "chain.json", tmp_path / "chain_eps.json"
    plain.write_text(json.dumps(doc))
    twin.write_text(json.dumps({**doc, "r": "eps" + src[1:], "eps0": 1.0}))
    return str(plain), str(twin)


@pytest.mark.parametrize("op", ["+", "*", "/"])
def test_every_verb_ends_on_a_chain_at_the_height_bound(op, tmp_path, capsys,
                                                        within_frames):
    # the deepest verb, on a '/' chain, takes about 230 frames from main();
    # MAX_HEIGHT promises each verb 250
    plain, twin = chain_scenario(tmp_path, op, ex.MAX_HEIGHT)
    ex.kernel.cache_clear()  # kernels hold their trees, and the trees hold
    gc.collect()             # their derivatives: take them all afresh
    assert not hasattr(ex.parse("t" + f"{op}t" * ex.MAX_HEIGHT),
                       "_derivatives")
    for verb in EXPRESSION_VERBS:
        path = twin if verb[-1] == "interchange" else plain
        code = within_frames(250, main, [*verb, "--scenario", path])
        assert code in (0, 1), verb
    assert "error" not in capsys.readouterr().err


@pytest.mark.parametrize("op", ["+", "*", "/"])
def test_a_chain_past_the_height_bound_exits_2(op, tmp_path, capsys):
    plain, _ = chain_scenario(tmp_path, op, ex.MAX_HEIGHT + 1)
    for verb in (("integrate",), ("differentiate", "--at", "1.05")):
        assert main([*verb, "--scenario", plain]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"more than {ex.MAX_HEIGHT} operations deep"
                in captured.err)


def test_output_file(tri, tmp_path):
    out = tmp_path / "report.json"
    result = run_cli("norm", "--gen", tri, "--out", str(out), "3+2A")
    assert result.returncode == 0 and result.stdout == ""
    assert json.loads(out.read_text())["norm"] == 5.0


# -- determinism ------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ("compare", "3+2A", "3-2A"),
    ("norm", "1.5-2A"),
    ("classify", "0.25+A"),
    ("cross", "3+2A", "1-A"),
    ("alpha-level", "--alpha", "0.25", "3+2A"),
    ("integrate", "--r", "sin(t)", "--q", "t^2", "--domain", "0", "1"),
    ("differentiate", "--r", "t^2", "--q", "t", "--domain", "0", "2",
     "--at", "0.5"),
    ("critical-points", "--r", "t^2", "--q", "t", "--domain", "-2", "1"),
])
def test_byte_identical_output(tri, argv):
    first = run_cli(argv[0], "--gen", tri, *argv[1:])
    second = run_cli(argv[0], "--gen", tri, *argv[1:])
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.endswith("\n")


def test_verify_verbs_byte_identical(tmp_path):
    for name, what in (("s01_sine_poly.json", "ftc"),
                       ("s09_dbr_pair.json", "dbr-forward")):
        path = scenario_path(tmp_path, name)
        runs = [run_cli("verify", what, "--scenario", path) for _ in range(2)]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].returncode == runs[1].returncode == 0


def test_golden_check_reports_mismatch_without_writing(tmp_path, monkeypatch,
                                                        capsys):
    import cli_golden
    name, argv = cli_golden.INVOCATIONS[1]  # 02-norm: one cheap launch
    recorded = cli_golden.golden(name)
    monkeypatch.setattr(cli_golden, "INVOCATIONS", ((name, argv),))
    monkeypatch.setattr(cli_golden, "GOLDEN_DIR", tmp_path)
    stale = tmp_path / f"{name}.out"
    stale.write_text("exit: 0\nstale\n", encoding="utf-8")
    assert cli_golden.main(["--check"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"mismatch: {name}\n--- {stale} (recorded)\n"
                          f"+++ {name} (this build)\n")
    assert "\n-stale\n" in err and f"\n+{recorded.splitlines()[1]}\n" in err
    assert stale.read_text(encoding="utf-8") == "exit: 0\nstale\n"
    stale.write_text(recorded, encoding="utf-8")
    assert cli_golden.main(["--check"]) == 0
    assert cli_golden.main(["--bogus"]) == 2


# -- negative option values and non-finite results ---------------------------

def test_negative_exponent_option_value_parses(tri):
    short = run_cli("integrate", "--gen", tri, "--r", "t", "--q", "t",
                    "--domain", "-1e-3", "1")
    plain = run_cli("integrate", "--gen", tri, "--r", "t", "--q", "t",
                    "--domain", "-0.001", "1")
    assert short.returncode == plain.returncode == 0
    assert short.stdout == plain.stdout
    at = run_cli("differentiate", "--gen", tri, "--r", "t^2", "--q", "t",
                 "--domain", "-1", "1", "--at", "-1e-3")
    assert at.returncode == 0
    assert json.loads(at.stdout)["at"] == -0.001


def test_negative_infinite_domain_end_exits_2(tri):
    result = run_cli("integrate", "--gen", tri, "--r", "t", "--q", "t",
                     "--domain", "-inf", "1")
    assert result.returncode == 2
    assert "domain ends must be finite, got [-inf, 1.0]" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("verb, extra, message", [
    ("differentiate", ("--at", "0.5"), "derivative r' is inf at t=0.5"),
    ("critical-points", (), "center derivative g' is -inf at t=-1.0"),
])
def test_overflowed_pointwise_value_exits_2(tri, verb, extra, message):
    result = run_cli(verb, "--gen", tri, "--r", "1e300*1e300*t^2", "--q", "t",
                     "--domain", "-1", "1", *extra)
    assert result.returncode == 2
    assert f"error: {message}" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_overflowed_product_exits_2(tri, fmt):
    result = run_cli("cross", "--gen", tri, "--format", fmt, "1e200", "1e200")
    assert result.returncode == 2
    assert ("error: non-finite result: result.center: inf, result.r: inf"
            in result.stderr)
    assert "Infinity" not in result.stdout and result.stdout == ""
