"""The package surface: `lcfn.__all__`, lazy submodule imports, dir()."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lcfn

SUBMODULES = ("calculus", "core", "errors", "expr", "generator", "quadrature",
              "variational")


def run_python(code, *flags):
    src = os.path.dirname(os.path.dirname(lcfn.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, *flags, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout.strip()


def test_bare_import_loads_no_submodule():
    out = run_python("import lcfn, sys; "
                     "print([m for m in sys.modules if m.startswith('lcfn.')])")
    assert out == "[]"


def test_cli_import_leaves_heavy_stdlib_modules_out():
    # -S: site's .pth files may import typing or importlib.resources first
    out = run_python("import lcfn.cli, sys; print([m for m in ('dataclasses', "
                     "'inspect', 'typing', 'importlib.resources') "
                     "if m in sys.modules])", "-S")
    assert out == "[]"


def test_cli_import_compiles_no_code():
    # source compiled by importlib is not counted: its frames are not lcfn's
    out = run_python(
        "import sys\n"
        "calls = []\n"
        "def hook(event, args):\n"
        "    if event == 'compile':\n"
        "        module = sys._getframe(1).f_globals.get('__name__', '')\n"
        "        if module.startswith('lcfn'):\n"
        "            calls.append(module)\n"
        "sys.addaudithook(hook)\n"
        "import lcfn.cli\n"
        "print(calls)", "-S")
    assert out == "[]"


def test_all_names_resolve_and_are_cached():
    assert len(lcfn.__all__) == 38
    assert lcfn.__all__ == sorted(set(lcfn.__all__))
    for name in lcfn.__all__:
        value = getattr(lcfn, name)
        assert vars(lcfn)[name] is value
        assert getattr(value, "__module__", "").startswith("lcfn.")


def test_readme_counts_the_names_in_all():
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    counts = re.findall(r"Each of the (\d+) names in\s+`lcfn\.__all__`",
                        readme)
    assert counts == [str(len(lcfn.__all__))]


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from lcfn import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == lcfn.__all__


def test_submodules_reachable_after_bare_import():
    out = run_python("import lcfn; print(' '.join(getattr(lcfn, m).__name__ "
                     f"for m in {SUBMODULES!r}))")
    assert out.split() == [f"lcfn.{m}" for m in SUBMODULES]


def test_dir_lists_every_public_name():
    assert set(lcfn.__all__) <= set(dir(lcfn))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError,
                       match="module 'lcfn' has no attribute 'x'"):
        lcfn.x
