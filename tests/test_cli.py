"""Command-line interface: file format, reports, exit codes."""

import json

import numpy as np
import pytest

from tessarine import decompositions
from tessarine.cli import main
from tessarine.complex_linalg import jordan_matrix
from tessarine.dcmatrix import DCMatrix
from tessarine.decompositions import PolarDecomposition, pinv
from tessarine.explorer import rank_condition_pair
from tessarine.pairfile import (
    PairFormatError,
    load_pair,
    obj_to_pair,
    pair_to_obj,
    save_pair,
)


def write_pair(path, a, b):
    m = DCMatrix(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
    save_pair(path, m)
    return m


def counterexample_file(tmp_path):
    path = tmp_path / "ce.json"
    write_pair(path, np.diag([0.0, 1.0]), [[0, 1], [0, 0]])
    return str(path)


def invertible_file(tmp_path, seed=0, n=3):
    rng = np.random.default_rng(seed)
    path = tmp_path / "inv.json"
    m = write_pair(
        path,
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
    )
    return str(path), m


def long_chains_at_1e150_file(tmp_path):
    """[I, 1e150 P J P^-1] with J = J_3(2) + J_2(2) + J_1(2) + J_2(5i)."""
    j = jordan_matrix(((2 + 0j, 3), (2 + 0j, 2), (2 + 0j, 1), (5j, 2)))
    rng = np.random.default_rng(0)
    p = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    path = tmp_path / "chains.json"
    write_pair(path, np.eye(8), 1e150 * (p @ j @ np.linalg.inv(p)))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestPairFile:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        m = DCMatrix(
            rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
            rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
        )
        path = tmp_path / "m.json"
        save_pair(path, m)
        loaded = load_pair(path)
        assert np.array_equal(loaded.a, m.a)
        assert np.array_equal(loaded.b, m.b)
        # serialize -> parse -> serialize is byte identical
        s1 = json.dumps(pair_to_obj(m))
        s2 = json.dumps(pair_to_obj(obj_to_pair(json.loads(s1))))
        assert s1 == s2

    def test_dimension_enforced(self):
        with pytest.raises(PairFormatError):
            obj_to_pair({"n": 2, "A": [[[0, 0]]], "B": [[[0, 0]]]})

    def test_entry_shape_enforced(self):
        with pytest.raises(PairFormatError):
            obj_to_pair({"n": 1, "A": [[[0]]], "B": [[[0, 0]]]})

    def test_nonfinite_rejected(self):
        with pytest.raises(PairFormatError):
            obj_to_pair({"n": 1, "A": [[[float("nan"), 0]]], "B": [[[0, 0]]]})

    def test_scalar_wire_format(self):
        from tessarine.dcnum import DoubleComplex
        from tessarine.pairfile import obj_to_scalar, scalar_to_obj

        x = DoubleComplex(1.25 - 2j, 0.5 + 3j)
        obj = scalar_to_obj(x)
        assert obj == {"p": [1.25, -2.0], "q": [0.5, 3.0]}
        assert obj_to_scalar(json.loads(json.dumps(obj))) == x
        with pytest.raises(PairFormatError):
            obj_to_scalar({"p": [0, 0]})
        with pytest.raises(PairFormatError):
            obj_to_scalar({"p": [True, 0], "q": [0, 0]})
        with pytest.raises(PairFormatError, match="finite"):
            obj_to_scalar({"p": [0, -(10**400)], "q": [0, 0]})


class TestCheck:
    def test_counterexample(self, tmp_path, capsys):
        code, doc = run_cli(capsys, "check", counterexample_file(tmp_path))
        assert code == 0
        assert doc["pinv_exists"] is False
        assert (doc["jsvd_nec1"], doc["jsvd_nec2"], doc["jsvd_nec3"]) == (
            True,
            True,
            False,
        )
        assert doc["jsvd_status"] == "not_exists"

    def test_identity_pair(self, tmp_path, capsys):
        path = tmp_path / "id.json"
        write_pair(path, np.eye(2), np.eye(2))
        code, doc = run_cli(capsys, "check", str(path))
        assert code == 0
        assert doc["pinv_exists"] is True
        assert doc["jsvd_status"] == "exists"
        assert doc["tolerances"]["tol"] == 1e-9

    def test_idempotent_scalar(self, tmp_path, capsys):
        path = tmp_path / "e.json"
        write_pair(path, [[1.0]], [[0.0]])
        code, doc = run_cli(capsys, "check", str(path))
        assert code == 0
        assert doc["pinv_exists"] is False

    def test_parse_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["check", str(path)]) == 2

    def test_non_utf8_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "noise.json"
        path.write_bytes(bytes(range(156, 256)))
        assert main(["check", str(path)]) == 2
        assert "not UTF-8" in capsys.readouterr().err

    def test_deeply_nested_file_exit_2(self, tmp_path, capsys):
        # json.load recurses once per bracket and raises RecursionError
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err.startswith("input error: ")

    @pytest.mark.parametrize("number", ["1" + "0" * 400, "1" * 4301],
                             ids=["past_float_range", "past_digit_limit"])
    def test_oversized_integer_exit_2(self, tmp_path, capsys, number):
        # float() of 10^400 raises OverflowError; json.load refuses an
        # integer of more than 4300 digits with ValueError
        path = tmp_path / "huge.json"
        path.write_text(f'{{"n": 1, "A": [[[{number}, 0]]], "B": [[[1, 0]]]}}')
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err.startswith("input error: ")

    def test_missing_file_exit_2(self):
        assert main(["check", "/nonexistent/file.json"]) == 2

    def test_over_long_path_exit_2(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / ("p" * 5000))]) == 2
        assert capsys.readouterr().err.startswith("input error: ")

    @pytest.mark.parametrize("doc", [
        {"n": True, "A": [[[1, 0]]], "B": [[[1, 0]]]},
        {"n": 1, "A": [[[True, False]]], "B": [[[1, 0]]]},
    ], ids=["n", "entry"])
    def test_json_booleans_exit_2(self, tmp_path, capsys, doc):
        # json reads true as a bool, which Python counts as the int 1
        path = tmp_path / "bools.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err.startswith("input error: ")


class TestPinvCommand:
    def test_invertible_pair_verifies(self, tmp_path, capsys):
        path, m = invertible_file(tmp_path)
        code, doc = run_cli(capsys, "pinv", path)
        assert code == 0
        assert doc["penrose_axioms"] == [True, True, True, True]
        assert doc["residual"] <= 1e-8 * m.norm_inf()
        # re-verify from the emitted factors: m @ k @ m == m
        k = obj_to_pair(doc["pinv"])
        assert (m @ k @ m - m).norm_inf() <= 1e-8 * m.norm_inf()
        # the command returns the library's result
        assert doc["pinv"] == pair_to_obj(pinv(m, rng=np.random.default_rng(0)))

    def test_no_pinv_exit_3(self, tmp_path, capsys):
        path = tmp_path / "e.json"
        write_pair(path, [[1.0]], [[0.0]])
        code, doc = run_cli(capsys, "pinv", str(path))
        assert code == 3
        assert doc["error"] == "no pseudoinverse: rank(A,B,AB,BA) = [1, 0, 0, 0]"

    def test_overflowing_product_exit_4(self, tmp_path, capsys):
        # AB = BA = [[1e400]] overflows: once exit 4, now [[1e-200]]
        path = tmp_path / "big.json"
        write_pair(path, [[1e200]], [[1e200]])
        code, doc = run_cli(capsys, "pinv", str(path))
        assert code == 0
        assert doc["penrose_axioms"] == [True] * 4
        assert doc["pinv"] == pair_to_obj(DCMatrix([[1e-200]], [[1e-200]]))

    @pytest.mark.filterwarnings("error")
    def test_top_of_range_residual_is_finite(self, tmp_path, capsys):
        # m k m overflows at the pair's own scale, 1.7e308: the residual is
        # formed on the normalized pair, so the document is valid JSON
        rng = np.random.default_rng(12)
        m0 = rank_condition_pair(int(rng.integers(2, 6)), rng)
        s = 1.7e308 / m0.norm_inf()
        path = tmp_path / "top.json"
        m = write_pair(path, s * m0.a, s * m0.b)
        code, doc = run_cli(capsys, "pinv", str(path))
        assert code == 0
        assert doc["penrose_axioms"] == [True] * 4
        assert doc["residual"] <= 1e-8 * m.norm_inf()

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("s", [1.0, 1e150, 1e-150])
    def test_residual_has_the_algebra_s_bits(self, tmp_path, capsys, seed, s):
        # inside the normal range the residual has the bits of m @ k @ m - m
        _, m = invertible_file(tmp_path, seed, n=4)
        path = tmp_path / "scaled.json"
        m = write_pair(path, s * m.a, s * m.b)
        code, doc = run_cli(capsys, "pinv", str(path))
        assert code == 0
        k = obj_to_pair(doc["pinv"])
        assert doc["residual"] == (m @ k @ m - m).norm_inf()


class TestJsvdCommand:
    def test_counterexample_exit_3_with_reason(self, tmp_path, capsys):
        code, doc = run_cli(capsys, "jsvd", counterexample_file(tmp_path))
        assert code == 3
        assert doc["error"] == "necessary condition 3 fails"

    def test_factors_reverify(self, tmp_path, capsys):
        path, m = invertible_file(tmp_path, seed=1)
        code, doc = run_cli(capsys, "jsvd", path)
        assert code == 0
        u, s, v = (obj_to_pair(doc[x]) for x in ("U", "S", "V"))
        recon = u @ s @ v.star()
        assert (recon - m).norm_inf() <= max(doc["residual"], 1e-12) * 1.01

    def test_ab_not_similar_to_ba_exit_3(self, tmp_path, capsys):
        path = tmp_path / "nsim.json"
        write_pair(path, [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
                   [[1, 0, 0], [0, 0, 0], [1, 0, 0]])
        code, doc = run_cli(capsys, "jsvd", str(path))
        assert code == 3
        assert doc["jsvd_status"] == "not_exists"
        assert doc["error"] == "AB is not similar to BA"

    def test_unequal_word_ranks_exit_3(self, tmp_path, capsys):
        # AB ~ BA, but rank ABA = 1 and rank BAB = 0
        path = tmp_path / "word.json"
        write_pair(path, [[1, 0, 1], [1, 0, 0], [0, 0, 0]],
                   [[0, 0, 0], [0, 0, 1], [0, 1, 0]])
        code, doc = run_cli(capsys, "jsvd", str(path))
        assert code == 3
        assert doc["jsvd_status"] == "not_exists"
        assert doc["error"] == "rank ABA = 1 but rank BAB = 0"
        code, doc = run_cli(capsys, "check", str(path))
        assert code == 0
        assert (doc["jsvd_status"], doc["reason"]) == (
            "not_exists", "rank ABA = 1 but rank BAB = 0"
        )

    @pytest.mark.parametrize("command", ["check", "jsvd", "pinv", "svd", "polar"])
    def test_pair_commands_take_no_seed(self, tmp_path, capsys, command):
        path, _ = invertible_file(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main([command, path, "--seed", "1"])
        assert exit_info.value.code == 2

    def test_unknown_region_exit_4(self, tmp_path, capsys):
        path = tmp_path / "unk.json"
        write_pair(path, np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        code, doc = run_cli(capsys, "jsvd", str(path))
        assert code == 4
        assert doc["jsvd_status"] == "unknown"


@pytest.mark.parametrize(
    "command,want_code,key",
    [("check", 0, "reason"), ("jsvd", 4, "error"), ("pinv", 4, "error")],
)
def test_overflowing_jordan_chains_keep_the_exit_contract(
    tmp_path, capsys, command, want_code, key
):
    # the Jordan basis of BA's root is too ill-conditioned at this scale for
    # a unitary U: a refusal, not a traceback
    code, doc = run_cli(capsys, command, long_chains_at_1e150_file(tmp_path))
    assert code == want_code
    assert doc[key].startswith("VerificationFailed: ")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "command,want_code,key",
    [("check", 0, "reason"), ("jsvd", 4, "error"), ("pinv", 4, "error"),
     ("polar", 4, "error")],
)
def test_overflowing_gate_keeps_the_exit_contract(
    tmp_path, capsys, command, want_code, key
):
    # ranks (1, 1, 1, 1), but U S V* overflows at the pair's own scale: the
    # gate refuses it without a RuntimeWarning, which -W error would raise
    a = np.zeros((4, 4))
    a[1, 1] = 1
    path = tmp_path / "over.json"
    write_pair(path, a, 1e308 * np.ones((4, 4)))
    code, doc = run_cli(capsys, command, str(path))
    assert code == want_code
    assert doc[key] == "VerificationFailed: Jordan SVD residual nan exceeds 1.0e-07 * scale"


@pytest.mark.parametrize("command", ["check", "jsvd", "pinv", "polar"])
def test_near_double_eigenvalue_exits_0(tmp_path, capsys, command):
    # BA has eigenvalues 1 and 1 + 1e-8, apart at this gap; its U' is about
    # 1e-8 from unitary, inside recon_tol
    rng = np.random.default_rng(2)
    p = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    p_inv = np.linalg.inv(p)
    b = np.array([[1, 1, 0], [0, 1 + 1e-8, 0], [0, 0, 0]])
    path = tmp_path / "near.json"
    write_pair(path, p @ np.diag([1, 1, 0]) @ p_inv, p @ b @ p_inv)
    code, doc = run_cli(capsys, command, str(path), "--cluster-gap", "1e-10")
    assert code == 0
    assert doc["command"] == command


@pytest.mark.parametrize("command", ["check", "jsvd", "polar"])
def test_overflowing_product_prints_a_document(tmp_path, capsys, command):
    # AB = BA = [[1e400]] overflows: once exit 4 with an error, now J = [[1e200]]
    path = tmp_path / "big.json"
    write_pair(path, [[1e200]], [[1e200]])
    code, doc = run_cli(capsys, command, str(path))
    assert code == 0
    assert "error" not in doc
    key, want = {
        "check": ("jsvd_status", "exists"),
        "jsvd": ("j_blocks", [[1e200, 0.0, 1]]),
        "polar": ("hermitian_factor", pair_to_obj(DCMatrix([[1e200]], [[1e200]]))),
    }[command]
    assert doc[key] == want


class TestSvdCommand:
    def test_defective_exit_4(self, tmp_path, capsys):
        path = tmp_path / "def.json"
        write_pair(path, [[1, 1], [0, 1]], np.eye(2))
        code, doc = run_cli(capsys, "svd", str(path))
        assert code == 4
        assert "NotDiagonalizable" in doc["error"]

    def test_overflowing_product_exit_4(self, tmp_path, capsys):
        # AB = [[1e400]] overflows: once exit 4, now D = [[1e200]]
        path = tmp_path / "big.json"
        write_pair(path, [[1e200]], [[1e200]])
        code, doc = run_cli(capsys, "svd", str(path))
        assert code == 0
        assert doc["S"] == pair_to_obj(DCMatrix([[1e200]], [[1e200]]))

    def test_small_invertible_pair_exit_0(self, tmp_path, capsys):
        # the kernel ladder finds diag(1, 1e-5) invertible, and so does svd
        path = tmp_path / "small.json"
        write_pair(path, np.diag([1, 1e-5]), np.diag([1, 1e-5]))
        code, doc = run_cli(capsys, "svd", str(path))
        assert code == 0
        assert "error" not in doc and doc["residual"] <= 1e-7

    def test_cluster_gap_reaches_the_construction(self, tmp_path, capsys):
        # BA's roots 1.5e-6 apart: ambiguous at the default gap, not at 1e-9
        path = tmp_path / "gap.json"
        write_pair(path, np.eye(3), np.diag([1, 1 + 3e-6, 2]))
        code, doc = run_cli(capsys, "svd", str(path))
        assert code == 4
        assert "ClusterAmbiguity" in doc["error"]
        code, doc = run_cli(capsys, "svd", str(path), "--cluster-gap", "1e-9")
        assert code == 0
        assert doc["tolerances"]["cluster_gap"] == 1e-9 and "error" not in doc

    def test_invertible_factors_reverify(self, tmp_path, capsys):
        path, m = invertible_file(tmp_path, seed=2)
        code, doc = run_cli(capsys, "svd", path)
        if code == 0:
            u, s, v = (obj_to_pair(doc[x]) for x in ("U", "S", "V"))
            assert ((u @ s @ v.star()) - m).norm_inf() <= 1e-7 * m.norm_inf()


class TestPolarCommand:
    def test_factors_reverify(self, tmp_path, capsys):
        path, m = invertible_file(tmp_path, seed=3)
        code, doc = run_cli(capsys, "polar", path)
        assert code == 0
        uf = obj_to_pair(doc["unitary_factor"])
        hf = obj_to_pair(doc["hermitian_factor"])
        assert uf.is_unitary(1e-8)
        assert hf.is_hermitian(1e-8)
        assert ((uf @ hf) - m).norm_inf() <= 1e-7 * m.norm_inf()

    def test_counterexample_exit_3(self, tmp_path, capsys):
        code, _ = run_cli(capsys, "polar", counterexample_file(tmp_path))
        assert code == 3

    def test_residual_gate(self, tmp_path, capsys, monkeypatch):
        # factors off by 1e-3 fail the gate of decompositions.polar
        original = decompositions.jsvd_to_polar

        def perturbed(jsvd):
            pd = original(jsvd)
            e = 1e-3 * np.eye(jsvd.u.n)
            return PolarDecomposition(pd.unitary_factor + DCMatrix(e, e),
                                      pd.hermitian_factor)

        monkeypatch.setattr(decompositions, "jsvd_to_polar", perturbed)
        path, _ = invertible_file(tmp_path, seed=3)
        code, doc = run_cli(capsys, "polar", path)
        assert code == 4
        assert doc["error"].startswith("VerificationFailed: polar residual")
        assert "unitary_factor" not in doc


class TestExploreCommand:
    def test_invertible_summary(self, tmp_path, capsys):
        out = tmp_path / "scan.ndjson"
        code, doc = run_cli(
            capsys,
            "explore",
            "--trials", "100",
            "--profile", "invertible",
            "--n", "3",
            "--seed", "7",
            "--out", str(out),
        )
        assert code == 0
        assert doc["cells"] == {"similar|exists": 100}
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 100
        assert all(json.loads(line)["jsvd_status"] == "exists" for line in lines)

    def test_rerun_byte_identical(self, tmp_path, capsys):
        args = ["explore", "--trials", "30", "--profile", "dense,ranks",
                "--n", "4", "--seed", "12"]
        out1, out2 = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_counterexample_profile_records(self, tmp_path, capsys):
        out = tmp_path / "ce.ndjson"
        code, doc = run_cli(
            capsys,
            "explore",
            "--trials", "10",
            "--profile", "counterexample",
            "--seed", "0",
            "--out", str(out),
        )
        assert code == 0
        statuses = [json.loads(l)["jsvd_status"] for l in out.read_text().splitlines()]
        assert "not_exists" in statuses

    def test_over_long_out_name_exit_2(self, tmp_path, capsys):
        out = tmp_path / ("x" * 300)
        assert main(["explore", "--trials", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("input error: ")

    def test_bad_flags_exit_2(self, tmp_path, capsys):
        # each is rejected before --out is opened: an existing file survives
        previous = b'{"seed": 1, "n": 2}\n'
        for flags in (["--profile", "bogus"], ["--profile", ","],
                      ["--n", "0"], ["--n", "-1"], ["--n", "7"],
                      ["--trials", "-3"], ["--seed", "-1"]):
            out = tmp_path / "x.ndjson"
            out.write_bytes(previous)
            code = main(["explore", "--trials", "40", *flags, "--out", str(out)])
            captured = capsys.readouterr()
            assert code == 2, flags
            assert captured.err.startswith("error: "), flags
            assert out.read_bytes() == previous, flags
