"""What a command line loads: the lazy package surface and each command's
module footprint.

Every check runs in a fresh `python -S` interpreter, so that the modules this
test process has already imported do not count; PYTHONPATH points at this
checkout's package.
"""

import ast
import fractions
import importlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import rossby_resonance
from rossby_resonance.cli import run

SRC = str(Path(rossby_resonance.__file__).resolve().parent.parent)

# The public surface of the package, by home module.
HOMES = {
    "cluster_graph": ["NO_SCALING_DETECTED", "SCALING_FAMILY_DETECTED", "Cluster",
                      "build_components", "flag_scaling", "order_clusters"],
    "exact_core": ["ResonantTriad", "TrivialInteractionError", "Wavenumber", "integer_roots",
                   "is_resonant", "quartic_coeffs", "sign_class"],
    "rational": ["residual", "sigma"],
    "partner_search": ["AngularHistogram", "EnumerationReport", "enumerate_lambda",
                       "find_partners", "histogram_to_csv", "naive_partner_oracle",
                       "search_radius", "stats_anisotropy"],
    "verification": ["VerificationReport", "check_proof_identity", "generate_family",
                     "verify_axis_theorem", "verify_diophantine_lemma"],
}


def _fresh(script: str, *args: str, cwd=None) -> str:
    """stdout of `python -S -c script args` run from cwd."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


FOOTPRINT = (
    "import sys\n"
    "from rossby_resonance import cli\n"
    "code = cli.run(sys.argv[1:])\n"
    "print(repr((code, sorted(m.split('.')[1] for m in sys.modules if m.startswith('rossby_resonance.')),"
    " sorted({'fractions', 'json', 'multiprocessing'} & set(sys.modules)))))\n"
)
SEARCH = ["cli", "exact_core", "partner_search"]
VERIFY = ["cli", "exact_core", "verification"]
FOOTPRINTS = [
    (["check", "1", "11", "-8", "34"], ["cli", "exact_core", "rational"], ["fractions"]),
    (["partners", "1", "11"], SEARCH, []),
    (["enumerate", "--max-norm", "20", "--jobs", "2"], SEARCH, ["json"]),
    (["stats", "--in", "A"], SEARCH, ["json"]),
    (["clusters", "--in", "A"], ["cli", "cluster_graph", "exact_core", "partner_search"], ["json"]),
    (["verify-axis", "--max", "5"], VERIFY, []),
    (["verify-lemma", "--max", "50"], VERIFY, []),
    (["verify-identity", "--samples", "10"], VERIFY, []),
    (["verify-axis", "--max", "5", "--out", "V"], VERIFY, ["json"]),
    (["family", "--m-max", "3", "--l-max", "3"], ["cli", "exact_core", "partner_search", "verification"],
     ["json"]),
]


@pytest.fixture(scope="module")
def session_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("session")
    assert run(["enumerate", "--max-norm", "20", "--out", str(path / "A")]) == 0
    return path


@pytest.mark.parametrize("argv, modules, stdlib", FOOTPRINTS,
                         ids=[c[0][0] + " --out" * ("--out" in c[0]) for c in FOOTPRINTS])
def test_command_loads_only_its_own_modules(argv, modules, stdlib, session_dir, capsys):
    capsys.readouterr()  # the fixture's enumerate summary
    last = _fresh(FOOTPRINT, *argv, cwd=session_dir).splitlines()[-1]
    assert ast.literal_eval(last) == (0, modules, stdlib)


class TestLazySurface:
    def test_package_import_loads_no_submodule(self):
        script = "import sys, rossby_resonance; print([m for m in sys.modules if m.startswith('rossby_resonance.')])"
        assert _fresh(script) == "[]\n"

    def test_every_export_is_its_home_module_object(self):
        assert sorted(rossby_resonance.__all__) == sorted(n for names in HOMES.values() for n in names)
        listed = dir(rossby_resonance)
        for home, names in HOMES.items():
            module = importlib.import_module(f"rossby_resonance.{home}")
            for name in names:
                assert getattr(rossby_resonance, name) is getattr(module, name), name
                assert name in listed

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match=r"^module 'rossby_resonance' has no attribute 'no_such_name'$"):
            rossby_resonance.no_such_name
        assert not hasattr(rossby_resonance, "Fraction")

    def test_star_import_and_submodule_import(self):
        script = (
            "ns = {}\n"
            "exec('from rossby_resonance import *', ns)\n"
            "from rossby_resonance import cli, __version__\n"
            "print(sorted(set(ns) - {'__builtins__'}) == sorted(__import__('rossby_resonance').__all__),"
            " cli.run.__module__, __version__)\n"
        )
        assert _fresh(script) == f"True rossby_resonance.cli {rossby_resonance.__version__}\n"

    def test_pickle_round_trip_after_package_import_only(self):
        script = (
            "import pickle, sys, rossby_resonance as rr\n"
            "objs = (rr.ResonantTriad((1, 11), (8, -34), (-9, 23)), rr.sigma((-9, 23)))\n"
            "back = pickle.loads(pickle.dumps(objs))\n"
            "assert back == objs and [type(b) for b in back] == [type(o) for o in objs], back\n"
            "sys.stdout.write(pickle.dumps(objs).hex())\n"
        )
        triad, frac = pickle.loads(bytes.fromhex(_fresh(script)))
        assert type(triad) is rossby_resonance.ResonantTriad
        assert triad == rossby_resonance.ResonantTriad((1, 11), (8, -34), (-9, 23))
        assert type(frac) is fractions.Fraction
        assert (frac.numerator, frac.denominator) == (-9, 610)
