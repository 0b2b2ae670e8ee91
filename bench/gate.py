"""Output checks made by the benchmark itself, outside the library.

Every check recomputes a residual with plain numpy from the matrices the
library returned and compares it against a bound relative to the scale
of the operands involved, so that it holds for ``s * m`` as it does for
``m``.  A check returns a list of misses (empty when the output is
correct); the caller counts an op with any miss as failed.

Residuals use Frobenius norms.  For a product ``X Y Z`` the reference
scale is ``|X| |Y| |Z|``, which is what floating-point error in forming
the product is proportional to.

Scan trials are decisions rather than factorizations; ``decide`` derives
each one again from ranks alone, without the library's Jordan code.
"""

from __future__ import annotations

import json
import math
from collections import Counter, namedtuple

import numpy as np

# Relative residual bounds.  The library's own acceptance tolerance for
# reconstructions is 1e-7; the pseudoinverse checks divide by operand
# products, which is tighter than the library's max(1, |m|, |k|) scale
# when |m| < 1 and looser when |m| > 1.
RECON_TOL = 1e-7
PENROSE_TOL = 1e-7
AGREE_TOL = 1e-6
FORM_TOL = 1e-7


Pair = namedtuple("Pair", "a b")


def _f(x: np.ndarray) -> float:
    return float(np.linalg.norm(x))


def rel(residual: np.ndarray, scale: float) -> float:
    """|residual| / scale, with 0/0 read as 0 and r/0 as infinity."""
    r = _f(residual)
    if r == 0.0:
        return 0.0
    return r / scale if scale > 0 else math.inf


def _miss(out: list, label: str, value: float, bound: float) -> None:
    if not value <= bound:  # also catches NaN
        out.append(f"{label} {value:.3e} > {bound:.1e}")


def penrose(m, k, label: str) -> list[str]:
    """The four Penrose axioms for k = [C, D] as a pseudoinverse of m = [A, B].

    Component form: ACA = A and BDB = B; CAC = C and DBD = D; BD = CA;
    DB = AC.  Each residual is taken relative to its own operands.
    """
    a, b, c, d = m.a, m.b, k.a, k.b
    na, nb, nc, nd = _f(a), _f(b), _f(c), _f(d)
    out: list[str] = []
    _miss(out, f"{label} axiom1 A", rel(a @ c @ a - a, na * nc * na), PENROSE_TOL)
    _miss(out, f"{label} axiom1 B", rel(b @ d @ b - b, nb * nd * nb), PENROSE_TOL)
    _miss(out, f"{label} axiom2 C", rel(c @ a @ c - c, nc * na * nc), PENROSE_TOL)
    _miss(out, f"{label} axiom2 D", rel(d @ b @ d - d, nd * nb * nd), PENROSE_TOL)
    _miss(out, f"{label} axiom3", rel(b @ d - c @ a, max(nb * nd, nc * na)), PENROSE_TOL)
    _miss(out, f"{label} axiom4", rel(d @ b - a @ c, max(nd * nb, na * nc)), PENROSE_TOL)
    return out


def agree(k1, k2, label: str) -> list[str]:
    """Two constructions of the unique pseudoinverse give the same pair."""
    out: list[str] = []
    for name, x, y in (("C", k1.a, k2.a), ("D", k1.b, k2.b)):
        _miss(out, f"{label} {name}", rel(x - y, max(_f(x), _f(y))), AGREE_TOL)
    return out


def unitary_form(u, label: str) -> list[str]:
    """u = [X, Y] is unitary exactly when Y = X^-1."""
    x, y = u.a, u.b
    eye = np.eye(x.shape[0])
    out: list[str] = []
    _miss(out, f"{label} XY=I", rel(x @ y - eye, _f(x) * _f(y)), FORM_TOL)
    _miss(out, f"{label} YX=I", rel(y @ x - eye, _f(x) * _f(y)), FORM_TOL)
    return out


def hermitian_form(h, label: str) -> list[str]:
    """h = [H1, H2] is Hermitian exactly when H1 = H2."""
    out: list[str] = []
    _miss(out, f"{label} H1=H2", rel(h.a - h.b, max(_f(h.a), _f(h.b))), FORM_TOL)
    return out


def product(m, factors, label: str) -> list[str]:
    """m = F1 F2 ... Fk, with [A,B][C,D] = [AC, DB] componentwise."""
    first = factors[0].a
    second = factors[-1].b
    scale_a = _f(first)
    scale_b = _f(second)
    for f in factors[1:]:
        first = first @ f.a
        scale_a *= _f(f.a)
    for f in reversed(factors[:-1]):
        second = second @ f.b
        scale_b *= _f(f.b)
    out: list[str] = []
    _miss(out, f"{label} A", rel(first - m.a, scale_a), RECON_TOL)
    _miss(out, f"{label} B", rel(second - m.b, scale_b), RECON_TOL)
    return out


def jordan_form(s, label: str) -> list[str]:
    """s = [J, J] with J upper bidiagonal and a 0/1 superdiagonal."""
    out = hermitian_form(s, label)
    j = s.a
    n = j.shape[0]
    off = j - np.diag(np.diag(j)) - np.diag(np.diag(j, 1), 1)
    sup = np.diag(j, 1)
    if np.any(off != 0) or np.any((sup != 0) & (sup != 1)):
        out.append(f"{label} J is not a Jordan matrix (n={n})")
    return out


def _star(m) -> Pair:
    return Pair(m.b, m.a)


def _norm_inf(m) -> float:
    return max(float(np.abs(m.a).max()), float(np.abs(m.b).max()))


def factorization(m, k1, k2, pd, rt) -> list[str]:
    """One factor_corpus op: both pseudoinverses, the polar decomposition
    m = U H, and the Jordan SVD m = U S V* from the polar round trip."""
    u, h = pd.unitary_factor, pd.hermitian_factor
    return (
        penrose(m, k1, "pinv")
        + penrose(m, k2, "pinv_via_diagrams")
        + agree(k1, k2, "pinv vs pinv_via_diagrams")
        + unitary_form(u, "polar U")
        + hermitian_form(h, "polar H")
        + product(m, [u, h], "polar UH=m")
        + product(m, [rt.u, rt.s, _star(rt.v)], "round trip USV*=m")
        + unitary_form(rt.u, "round trip U")
        + unitary_form(rt.v, "round trip V")
        + jordan_form(rt.s, "round trip S")
    )


SIMILARITY_LABELS = {True: "similar", False: "not_similar", None: "ambiguous"}

# A singular value s of a matrix with 2-norm |x| reads as zero when
# s <= ZERO_BAND[0] |x| and as nonzero when s >= ZERO_BAND[1] |x|.  One in
# between leaves the rank undecided, and the trial is not re-derived.  The
# library's own thresholds (rank 1e-9, eigenvalue clustering 1e-6) lie
# inside the band.
ZERO_BAND = (1e-10, 1e-6)
HERMITIAN_BAND = (1e-11, 1e-7)


class Undecided(Exception):
    """A rank the gate cannot decide with a clear margin."""


def _rank_of(s: np.ndarray, scale: float) -> int:
    if scale == 0:
        return 0
    r = s / scale
    if np.any((r > ZERO_BAND[0]) & (r < ZERO_BAND[1])):
        raise Undecided
    return int(np.count_nonzero(r >= ZERO_BAND[1]))


def rank_of(x: np.ndarray) -> int:
    s = np.linalg.svd(x, compute_uv=False)
    return _rank_of(s, s[0])


def nullities(x: np.ndarray) -> list[int]:
    """dim ker x^k for k = 1, 2, ... until it stops growing.

    Staircase form: ker x^k = {v : x v in ker x^(k-1)}, the kernel of
    x projected off ker x^(k-1), so no power of x is formed.
    """
    n = x.shape[0]
    scale = float(np.linalg.norm(x, 2))
    kernel = np.zeros((n, 0), dtype=complex)
    out: list[int] = []
    while True:
        off = x - kernel @ (kernel.conj().T @ x)
        _, s, vh = np.linalg.svd(off)
        r = _rank_of(s, scale)
        if out and n - r == out[-1]:
            return out
        out.append(n - r)
        if r in (0, n):
            return out
        kernel = vh[r:].conj().T


def nilpotent_sizes(nul: list[int]) -> list[int]:
    """Jordan block sizes at eigenvalue 0 from the nullities of the powers:
    nul[k-1] - nul[k-2] blocks have size k or more."""
    at_least = [b - a for a, b in zip([0] + nul, nul)] + [0]
    return [k + 1 for k in range(len(nul)) for _ in range(at_least[k] - at_least[k + 1])]


def admits_sqrt(sizes: list[int]) -> bool:
    """A matrix has a square root iff its nilpotent block sizes, sorted
    descending and taken in pairs, differ by at most one within each pair,
    with an unpaired last block of size one."""
    sizes = sorted(sizes, reverse=True)
    if any(sizes[i] - sizes[i + 1] > 1 for i in range(0, len(sizes) - 1, 2)):
        return False
    return len(sizes) % 2 == 0 or sizes[-1] == 1


def decide(m) -> tuple[bool, str, bool] | None:
    """(AB similar to BA, JSVD status, pseudoinverse exists) for m = [A, B],
    derived from ranks alone; None when a rank is undecided.

    AB and BA share the Jordan structure of every nonzero eigenvalue
    (Flanders), so they are similar iff ker (AB)^k and ker (BA)^k have the
    same dimensions.  The status follows the library's stated semantics:
    ``not_exists`` when rank A != rank B or AB or BA has no square root;
    otherwise ``exists`` when the pseudoinverse rank condition holds or m
    is Hermitian ([A, A]), which the library's constructions cover, and
    ``unknown`` when neither does.
    """
    a, b = m.a, m.b
    try:
        ra, rb = rank_of(a), rank_of(b)
        nul_ab, nul_ba = nullities(a @ b), nullities(b @ a)
    except Undecided:
        return None
    n = a.shape[0]
    ranks = {ra, rb, n - nul_ab[0], n - nul_ba[0]}
    skew = float(np.abs(a - b).max()) / max(1.0, _norm_inf(m))
    if HERMITIAN_BAND[0] < skew < HERMITIAN_BAND[1]:
        return None
    if ra != rb or not (admits_sqrt(nilpotent_sizes(nul_ab))
                        and admits_sqrt(nilpotent_sizes(nul_ba))):
        status = "not_exists"
    elif len(ranks) == 1 or skew <= HERMITIAN_BAND[0]:
        status = "exists"
    else:
        status = "unknown"
    return nul_ab == nul_ba, status, len(ranks) == 1


# The library clusters eigenvalues of AB and BA at a gap of 1e-6 times the
# largest entry and refuses (``ClusterAmbiguity``) when two clusters lie
# closer than 10 gaps; the gate allows a factor 2 either way for rounding.
AMBIGUITY_BAND = (0.5e-6, 2e-5)


def near_ambiguous(m) -> bool:
    """Two eigenvalues of AB or BA lie in the library's ambiguity band."""
    for x in (m.a @ m.b, m.b @ m.a):
        scale = float(np.abs(x).max())
        if scale == 0:
            continue
        e = np.linalg.eigvals(x)
        d = np.abs(e[:, None] - e[None, :])[np.triu_indices(len(e), 1)] / scale
        if np.any((d > AMBIGUITY_BAND[0]) & (d < AMBIGUITY_BAND[1])):
            return True
    return False


def justified_refusal(got, want, m) -> bool:
    """A trial the library left undecided where the gate derived a verdict.

    Accepted when it claims nothing the derivation contradicts (similarity
    ``None`` or equal, status ``unknown`` or equal, the pseudoinverse
    verdict equal) and the input lies in the ambiguity band, where the
    library documents that it refuses rather than guesses.
    """
    return (got[0] in (None, want[0]) and got[1] in ("unknown", want[1])
            and got[2] == want[2] and near_ambiguous(m))


def scan(records, summary, pairs) -> tuple[list[list[str]], list[str], list[bool]]:
    """Misses per trial record, misses of the scan call as a whole, and
    per trial whether it is a justified refusal.

    ``pairs`` are the trials' input pairs, regenerated from their seeds.
    A trial misses when it recorded an error or its similarity, status or
    pseudoinverse verdict differs from the one ``decide`` derives, unless
    it is a ``justified_refusal``; and when it reports ``exists`` with a
    residual above the reconstruction bound or with Jordan blocks that do
    not add up to n.  The call misses when its (similarity, status) cell
    counts differ from the tally of the derived verdicts (the recorded
    ones where ranks are undecided or the refusal is justified).
    """
    tally: Counter = Counter()
    per_trial = []
    refused = []
    for rec, m in zip(records, pairs):
        misses = []
        got = (rec.similar_ab_ba, rec.jsvd_status, rec.pinv_exists)
        want = decide(m) or got
        refused.append(got != want and justified_refusal(got, want, m))
        if refused[-1]:
            want = got
        elif rec.error is not None:
            misses.append(f"trial seed {rec.seed}: {rec.error}")
        tally[(SIMILARITY_LABELS[want[0]], want[1])] += 1
        if got != want:
            misses.append(f"trial seed {rec.seed}: (similar, status, pinv) "
                          f"recorded {got}, derived {want}")
        if rec.jsvd_status == "exists":
            bound = RECON_TOL * max(_norm_inf(m), 1e-300)
            if rec.residual is None or not rec.residual <= bound:
                misses.append(
                    f"trial seed {rec.seed}: residual {rec.residual} > {bound:.3e}"
                )
            if rec.j_blocks is None or sum(b[2] for b in rec.j_blocks) != rec.n:
                misses.append(f"trial seed {rec.seed}: J blocks do not fill n={rec.n}")
        per_trial.append(misses)
    whole = []
    if summary.trials != len(records):
        whole.append(f"summary counts {summary.trials} trials, {len(records)} recorded")
    if dict(summary.cells) != dict(tally):
        whole.append(f"summary cells {dict(summary.cells)} != derived {dict(tally)}")
    return per_trial, whole, refused


def _pair(obj) -> Pair:
    a = np.asarray(obj["A"], dtype=float)
    b = np.asarray(obj["B"], dtype=float)
    return Pair(a[..., 0] + 1j * a[..., 1], b[..., 0] + 1j * b[..., 1])


def cli(command: str, returncode: int, stdout: str, m) -> list[str]:
    """A CLI command on pair m: exit code 0, a JSON report, a reported
    residual within its bound, and factors that reproduce m."""
    if returncode != 0:
        return [f"{command}: exit code {returncode}"]
    try:
        doc = json.loads(stdout)
    except ValueError:
        return [f"{command}: stdout is not JSON"]
    if command == "check":
        if doc.get("jsvd_status") != "exists":
            return [f"check: status {doc.get('jsvd_status')!r}, expected 'exists'"]
        return []
    out: list[str] = []
    bound = RECON_TOL * max(_norm_inf(m), 1e-300)
    residual = doc.get("residual")
    if not isinstance(residual, (int, float)) or not residual <= bound:
        out.append(f"{command}: reported residual {residual!r} > {bound:.3e}")
    try:
        if command in ("jsvd", "svd"):
            u, s, v = _pair(doc["U"]), _pair(doc["S"]), _pair(doc["V"])
            out += product(m, [u, s, _star(v)], f"{command} USV*=m")
        elif command == "pinv":
            out += penrose(m, _pair(doc["pinv"]), "pinv")
        elif command == "polar":
            u, h = _pair(doc["unitary_factor"]), _pair(doc["hermitian_factor"])
            out += unitary_form(u, "polar U") + hermitian_form(h, "polar H")
            out += product(m, [u, h], "polar UH=m")
    except (KeyError, TypeError, ValueError, IndexError) as ex:
        out.append(f"{command}: malformed factors ({type(ex).__name__}: {ex})")
    return out
