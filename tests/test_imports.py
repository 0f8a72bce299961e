"""What importing fubini and running a command loads, each in a fresh interpreter.

Every check compares against the modules the interpreter had already loaded
before the probe ran (``site`` may preload ``re``, ``pathlib``, ``tempfile``
and ``importlib.resources``), so it sees only what fubini itself pulls in.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fubini
from fubini import bfiles, identities, sequences, series

SRC = str(Path(__file__).resolve().parents[1] / "src")

_PROBE = """\
import sys
_before = set(sys.modules)
{code}
print(" ".join(sorted(set(sys.modules) - _before)))
"""

_RUN = """\
from fubini import cli
try:
    cli.main({argv!r})
except SystemExit:
    pass
"""


def _loaded(code: str, *flags: str) -> set[str]:
    """Modules that ``code`` loads in a fresh interpreter with ``src`` on its path."""
    if "-S" in flags:  # no site, so PYTHONPATH is not needed; put src first by hand
        code = f"sys.path.insert(0, {SRC!r})\n{code}"
    env = {**os.environ, "PYTHONPATH": SRC}
    result = subprocess.run(
        [sys.executable, *flags, "-c", _PROBE.format(code=code)],
        capture_output=True,
        text=True,
        check=False,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    return set(result.stdout.splitlines()[-1].split())


def _loaded_by(argv: list[str]) -> set[str]:
    return _loaded(_RUN.format(argv=argv))


def _fubini_modules(modules: set[str]) -> set[str]:
    return {m for m in modules if m == "fubini" or m.startswith("fubini.")}


def test_import_fubini_loads_no_submodule():
    assert _fubini_modules(_loaded("import fubini")) == {"fubini"}


def test_compute_loads_only_its_path():
    modules = _loaded_by(["compute", "bell", "--max", "3"])
    assert _fubini_modules(modules) == {
        "fubini",
        "fubini._args",
        "fubini.cli",
        "fubini.registry",
        "fubini.sequences",
    }
    assert not modules & {"fubini.series", "fubini.bfiles", "fractions", "json", "dataclasses"}


def test_compute_loads_the_same_modules_in_either_format():
    plain = _loaded_by(["compute", "bell", "--max", "3"])
    bfile = _loaded_by(["compute", "bell", "--max", "3", "--format", "bfile"])
    assert _fubini_modules(bfile) == _fubini_modules(plain)


def test_egf_loads_only_its_path():
    modules = _loaded_by(["egf", "bell", "--order", "6"])
    assert _fubini_modules(modules) == {
        "fubini",
        "fubini._args",
        "fubini.cli",
        "fubini.registry",
        "fubini.series",
    }


def test_verify_loads_only_its_path():
    modules = _loaded_by(["verify", "parity", "--max", "6"])
    assert "fubini.identities" in modules
    assert not modules & {"fubini.series", "fubini.bfiles"}


def test_the_argument_rule_is_a_leaf():
    assert _fubini_modules(_loaded("import fubini._args")) == {"fubini", "fubini._args"}


ARGVS = [
    ["compute", "bell", "--max", "3"],
    ["compute", "stirling-row", "--n", "4", "--format", "bfile"],
    ["verify", "parity", "--max", "6"],
    ["verify", "all", "--max", "6", "--order", "6", "--format", "structured"],
    ["egf", "stirling-col", "--order", "6", "--k", "2"],
    ["bfile", "check", "A000670", "--limit", "5"],
    ["bfile", "export", "A130850", "--limit", "5"],
    ["bfile", "fetch", "A000670"],  # offline: exits 3 before any transport
    ["compute", "bogus"],
]


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_no_command_loads_dataclasses(argv):
    assert "dataclasses" not in _loaded_by(argv)


def test_bfiles_defers_tempfile_and_resources():
    # without site, nothing else has loaded them
    modules = _loaded("import fubini.bfiles", "-I", "-S")
    assert "fubini.bfiles" in modules
    assert not modules & {"tempfile", "importlib.resources"}


def test_submodules_resolve_after_a_bare_import():
    modules = _loaded("import fubini\nassert fubini.series.__name__ == 'fubini.series'")
    assert "fubini.series" in modules


def test_exports_are_the_submodules_objects():
    owners = (bfiles, identities, sequences, series)
    for name in fubini.__all__:
        if name == "__version__":
            continue
        (owner,) = [m for m in owners if name in m.__all__]
        assert getattr(fubini, name) is getattr(owner, name), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from fubini import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(fubini.__all__)
    assert fubini.__all__ == sorted(fubini.__all__)
    assert set(fubini.__all__) <= set(dir(fubini))


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="^module 'fubini' has no attribute 'nope'$"):
        fubini.nope  # noqa: B018
    assert not hasattr(fubini, "factorial")
