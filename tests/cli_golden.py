"""The fourteen CLI invocations of acceptance criterion 12 and their
recorded outputs.

Each file under ``tests/golden/`` holds one invocation's exit code on its
first line (``exit: N``) followed by its exact stdout.  The files pin the
output bytes across changes and interpreters, not only across two runs of
one build.  Regenerate them only on purpose, and explain the diff:

    PYTHONPATH=src python tests/cli_golden.py

``--check`` compares every invocation with its file instead, writes
nothing, and exits 1 naming each mismatch and printing a unified diff of
the recorded file against this build's output to stderr (no pytest
needed, so it runs under any interpreter):

    PYTHONPATH=src python tests/cli_golden.py --check
"""
from __future__ import annotations

import difflib
import json
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

GOLDEN_DIR = Path(__file__).with_name("golden")
GENERATOR = {"kind": "triangular", "left": -1.0, "peak": 0.0, "right": 2.0}
SCENARIOS = ("s01_sine_poly.json", "s09_dbr_pair.json",
             "s12_reconstruction_gap.json", "s06_recovery_window.json")

# (golden name, argv); "{gen}" and "{<scenario stem>}" are filled in by
# materialize().
INVOCATIONS = (
    ("01-compare", ("compare", "--gen", "{gen}", "3+2A", "3-2A")),
    ("02-norm", ("norm", "--gen", "{gen}", "1.5-2A")),
    ("03-classify", ("classify", "--gen", "{gen}", "0.25+A")),
    ("04-cross", ("cross", "--gen", "{gen}", "3+2A", "1-A")),
    ("05-alpha-level", ("alpha-level", "--gen", "{gen}", "--alpha", "0.25",
                        "3+2A")),
    ("06-differentiate", ("differentiate", "--gen", "{gen}", "--r", "t^2",
                          "--q", "t", "--domain", "0", "2", "--at", "0.5")),
    ("07-integrate", ("integrate", "--gen", "{gen}", "--r", "sin(t)",
                      "--q", "t^2", "--domain", "0", "1")),
    ("08-critical-points", ("critical-points", "--gen", "{gen}",
                            "--r", "t^2 - t", "--q", "t",
                            "--domain", "-1", "2")),
    ("09-verify-ftc", ("verify", "ftc", "--scenario", "{s01_sine_poly}")),
    ("10-verify-ibp", ("verify", "ibp", "--scenario", "{s01_sine_poly}")),
    ("11-verify-dbr-forward", ("verify", "dbr-forward",
                               "--scenario", "{s09_dbr_pair}")),
    ("12-verify-dbr-reconstruct", ("verify", "dbr-reconstruct", "--grid", "17",
                                   "--scenario",
                                   "{s12_reconstruction_gap}")),
    ("13-verify-interchange", ("verify", "interchange", "--gen", "{gen}",
                               "--r", "t * eps", "--q", "eps^2",
                               "--domain", "0", "1", "--eps0", "1.0")),
    ("14-verify-lagrange", ("verify", "lagrange", "--grid", "2", "--k", "1,2",
                            "--scenario", "{s06_recovery_window}")),
)


def materialize(directory: Path) -> list[tuple[str, list[str]]]:
    """Write the generator and scenario files into ``directory`` and
    return the invocations with their placeholders filled in."""
    paths = {"gen": directory / "tri.json"}
    paths["gen"].write_text(json.dumps(GENERATOR))
    for name in SCENARIOS:
        path = paths[Path(name).stem] = directory / name
        path.write_text(
            resources.files("lcfn.scenarios").joinpath(name).read_text())
    return [(name, [arg.format(**{k: str(v) for k, v in paths.items()})
                    for arg in argv])
            for name, argv in INVOCATIONS]


def run(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "lcfn.cli", *argv],
                          capture_output=True, text=True)


def render(result: subprocess.CompletedProcess) -> str:
    return f"exit: {result.returncode}\n{result.stdout}"


def golden(name: str) -> str:
    return (GOLDEN_DIR / f"{name}.out").read_text(encoding="utf-8")


def main(argv: list[str]) -> int:
    check = argv == ["--check"]
    if argv and not check:
        print("usage: cli_golden.py [--check]", file=sys.stderr)
        return 2
    GOLDEN_DIR.mkdir(exist_ok=True)
    mismatches = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in materialize(Path(tmp)):
            out = render(run(args))
            if not check:
                (GOLDEN_DIR / f"{name}.out").write_text(out, encoding="utf-8")
                continue
            path = GOLDEN_DIR / f"{name}.out"
            recorded = golden(name) if path.exists() else ""
            if out != recorded:
                mismatches.append((name, difflib.unified_diff(
                    recorded.splitlines(keepends=True),
                    out.splitlines(keepends=True), f"{path} (recorded)",
                    f"{name} (this build)")))
    for name, diff in mismatches:
        print(f"mismatch: {name}", file=sys.stderr)
        sys.stderr.writelines(diff)
    if check:
        print(f"{len(INVOCATIONS) - len(mismatches)} of {len(INVOCATIONS)} "
              "invocations match tests/golden/")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
