"""The package's public surface: a name is added or removed on purpose."""

import inspect
import subprocess
import sys

import numpy as np
import pytest

import tessarine
from tessarine import explorer
from tessarine.cli import main
from tessarine.dcmatrix import DCMatrix
from tessarine.pairfile import save_pair

PUBLIC = [
    "DoubleComplex",
    "sqrt_halfplane",
    "DCMatrix",
    "direct_sum",
    "embed_complex",
    "JordanForm",
    "jordan_decomposition",
    "rank",
    "similar",
    "sqrt_via_jordan",
    "DCVector",
    "extend_orthonormal",
    "gram_schmidt_step",
    "inner_product",
    "normalize",
    "ExistenceReport",
    "JordanSVD",
    "JsvdStatus",
    "PolarDecomposition",
    "attempt_jordan_svd",
    "hermitian_jsvd",
    "jordan_svd",
    "jsvd_necessary",
    "jsvd_to_polar",
    "naive_dc_svd",
    "penrose_check",
    "pinv",
    "pinv_exists",
    "pinv_via_diagrams",
    "polar",
    "polar_to_jsvd",
    "TrialRecord",
    "conjecture_scan",
    "generate_pair",
    "rank_condition_pair",
    "uniqueness_scan",
    "errors",
]


def test_all_is_the_pinned_list_and_every_name_resolves():
    assert tessarine.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(tessarine, name) is not None


@pytest.mark.parametrize("name", ["jordan_svd", "attempt_jordan_svd"])
def test_constructions_that_draw_nothing_take_no_rng(name):
    assert "rng" not in inspect.signature(getattr(tessarine, name)).parameters


def _fresh(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter, which must exit 0."""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_pair_commands_load_no_explorer_or_orthonormal(tmp_path):
    save_pair(tmp_path / "pair.json", DCMatrix(np.eye(2), np.diag([1.0, 2.0])))
    out = _fresh(
        "import contextlib, io, sys, tessarine.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for command in ('check', 'pinv', 'jsvd', 'svd', 'polar'):\n"
        f"        assert tessarine.cli.main([command, {str(tmp_path / 'pair.json')!r}]) == 0\n"
        "print(sorted({'tessarine.explorer', 'tessarine.orthonormal'} & set(sys.modules)))\n"
    )
    assert out == "[]\n"


def test_lazy_names_resolve_after_a_plain_import():
    out = _fresh(
        "import sys, tessarine\n"
        "assert set(tessarine.__all__) <= set(dir(tessarine))\n"
        "assert 'tessarine.explorer' not in sys.modules\n"
        "assert callable(tessarine.explorer.conjecture_scan)\n"
        "assert tessarine.orthonormal.DCVector.__module__ == 'tessarine.orthonormal'\n"
        "names = {}\n"
        "exec('from tessarine import *', names)\n"
        "print(sorted(set(tessarine.__all__) - names.keys()))\n"
    )
    assert out == "[]\n"


def test_explore_help_lists_every_profile(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["explore", "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert all(profile in out for profile in explorer.PROFILES)
