"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.

Criterion 1 and rational2: K(s,t) = [[a, b], [b, a]] with a = 1/(1+r) and
b = 1/(1+r^2) splits into the scalar kernel a+b on (1,1)/sqrt2 and a-b on
(1,-1)/sqrt2.  a-b vanishes at r = 0 but not at r other than 0 or 1, so the
kernel is PSD exactly on site sets whose pairwise distances are all 0 or 1.
Its case of criterion 1 therefore checks that two-sided contract: on the
same 200 generic site sets as the other kernels, psd_check's spectrum must
match the union of the scalar Gram spectra of a+b and a-b, its verdict must
be "not PSD" exactly when some pair is at a distance other than 0 or 1, and
its smallest eigenvalue must lie below -max|a-b| over site pairs (at least
-0.151 for one pair, -1.93 at worst across the sets); on 200 unit-distance
site sets it must certify PSD.
"""

import math
import time

import numpy as np
import pytest

from opkern.cli import main, parse_sites
from opkern.gram import assemble_gram, factorize, gram_to_csv, psd_check, spectral_decay_profile
from opkern.gp import covariance_error_report, sample_paths
from opkern.kernels import continuity_increment, make_kernel
from opkern.rkhs import (
    RkhsElement,
    TransformFamily,
    chain_apply,
    feature_embed,
    frame_projection,
    make_context,
    onb_expansion,
    transformed_adjoint,
    transformed_embed,
    verify_identities,
)

GAUSS1 = "gauss(sigma=1,ell=1,dim=1)"

ZOO = [
    ("gaussian", "gauss(sigma=1.3,ell=0.8,dim=2)"),
    ("diagexp3", "diagexp3"),
    ("rational2", "rational2"),
    ("separable", "separable(B=[[2,1],[1,2]],base=gauss(sigma=1,ell=1))"),
    ("normalized", "normalized(inner=gauss(sigma=2,ell=1,dim=2))"),
]


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}  {detail}")
    return ok


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _zoo_site_sets(rng):
    """200 generic site sets, 1-D and 3-D alternately, 1 to 20 sites each."""
    for trial in range(200):
        n = int(rng.integers(1, 21))
        m = 1 if trial % 2 == 0 else 3
        yield rng.uniform(-2.0, 2.0, size=(n, m))


def _unit_distance_site_sets(rng):
    """200 site sets with all pairwise distances 0 or 1, repeats allowed.

    1-D sets draw from {x, x+1}; 3-D sets draw from the vertices of a
    randomly rotated and translated regular tetrahedron with unit edges.
    """
    tetra = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
    tetra = tetra / (2.0 * math.sqrt(2.0))
    for trial in range(200):
        n = int(rng.integers(1, 21))
        if trial % 2 == 0:
            x = rng.uniform(-2.0, 2.0)
            yield (x + rng.integers(0, 2, size=n).astype(float))[:, None]
        else:
            q, r = np.linalg.qr(rng.standard_normal((3, 3)))
            q = q * np.sign(np.diag(r))
            vertices = tetra @ q.T + rng.uniform(-2.0, 2.0, size=3)
            yield vertices[rng.integers(0, 4, size=n)]


def _rational2_oracle(sites):
    """Spectrum (nonincreasing) and worst |a-b| over pairs, from distances."""
    r = np.linalg.norm(sites[:, None, :] - sites[None, :, :], axis=-1)
    a = 1.0 / (1.0 + r)
    b = 1.0 / (1.0 + r * r)
    spectrum = np.concatenate(
        [np.linalg.eigvalsh(a + b), np.linalg.eigvalsh(a - b)]
    )
    upper = np.triu_indices(len(sites), 1)
    gap = float(np.abs(a - b)[upper].max(initial=0.0))
    # 1e-12 absorbs rounding in x+1 and in the rotated tetrahedron's edges
    unit_only = bool(np.all(np.minimum(r, np.abs(r - 1.0))[upper] <= 1e-12))
    return np.sort(spectrum)[::-1], gap, unit_only


def _rational2_contract(kernel):
    """rational2's two-sided PSD contract on generic and unit-distance sets."""
    worst_residual = 0.0
    lowest_eig = 0.0
    not_psd = {False: 0, True: 0}
    wrong_verdicts = 0
    bound_misses = 0
    generic = _zoo_site_sets(np.random.default_rng(1))
    unit = _unit_distance_site_sets(np.random.default_rng(101))
    for is_unit, site_sets in ((False, generic), (True, unit)):
        for sites in site_sets:
            rep = psd_check(assemble_gram(kernel, sites))
            oracle, gap, unit_only = _rational2_oracle(sites)
            scale = float(np.abs(oracle).max())
            residual = float(np.abs(rep.eigenvalues - oracle).max()) / scale
            worst_residual = max(worst_residual, residual)
            lowest_eig = min(lowest_eig, rep.min_eig)
            not_psd[is_unit] += not rep.psd
            expect_psd = is_unit or unit_only
            wrong_verdicts += rep.psd != expect_psd
            # compressing the a-b Gram onto the worst pair gives [[0,c],[c,0]];
            # the bound is attained for two sites, hence the rounding slack
            if not expect_psd and rep.min_eig > -gap + 1e-12 * scale:
                bound_misses += 1
    ok = worst_residual <= 1e-12 and wrong_verdicts == 0 and bound_misses == 0
    detail = (
        f"oracle residual={worst_residual:.2e} min eig={lowest_eig:.2e} "
        f"not PSD: generic {not_psd[False]}/200, unit-distance "
        f"{not_psd[True]}/200; wrong verdicts={wrong_verdicts} "
        f"bound misses={bound_misses}"
    )
    return ok, detail


@pytest.mark.parametrize("label,text", ZOO, ids=[z[0] for z in ZOO])
def test_criterion_01_psd_zoo(label, text):
    """200 seeded random site sets per kernel, 1-D and 3-D, all PSD.

    rational2 is PSD only where all pairwise distances are 0 or 1, so its
    case checks that contract instead (see the module docstring).
    """
    start = time.time()
    kernel = make_kernel(text)
    if label == "rational2":
        ok, detail = _rational2_contract(kernel)
    else:
        worst = math.inf
        ok = True
        for sites in _zoo_site_sets(np.random.default_rng(1)):
            rep = psd_check(assemble_gram(kernel, sites))
            margin = rep.min_eig + 1e-10 * max(rep.lambda_max, 1.0)
            worst = min(worst, margin)
            ok = ok and rep.psd
        detail = f"worst margin={worst:.2e}"
    elapsed = time.time() - start
    passed = report(
        f"criterion 1 (PSD zoo, {label})",
        ok and elapsed < 30,
        f"{detail} time={elapsed:.1f}s",
    )
    assert passed


def test_criterion_02_factorization_identity():
    """Jitter-0 Cholesky block rows reproduce K(s_i, s_j), 50 instances."""
    start = time.time()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        sigma = float(rng.uniform(0.5, 2.0))
        ell = float(rng.uniform(0.5, 2.0))
        d = int(rng.integers(1, 4))
        kernel = make_kernel(f"gauss(sigma={sigma},ell={ell},dim={d})")
        n = int(rng.integers(2, 7))
        # well-separated sites keep the instance strictly PD
        sites = np.sort(rng.uniform(0, 10, n)) + np.arange(n) * ell
        g = factorize(assemble_gram(kernel, sites[:, None]))
        assert g.jitter_used == 0.0
        scale = 1 + np.abs(g.data).max()
        L = g.factor
        for i in range(n):
            Li = L[i * d : (i + 1) * d]
            for j in range(n):
                Lj = L[j * d : (j + 1) * d]
                blk = kernel.eval(np.array([sites[i]]), np.array([sites[j]]))
                worst = max(worst, float(np.abs(Li @ Lj.T - blk).max()) / scale)
    elapsed = time.time() - start
    assert report(
        "criterion 2 (factorization identity)",
        worst <= 1e-8 and elapsed < 10,
        f"max residual={worst:.2e} time={elapsed:.1f}s",
    )


@pytest.mark.parametrize("d", [1, 3])
def test_criterion_03_covariance_theorem_suite(d):
    """verify_identities on normalized gaussian, n=5, 100 trials."""
    start = time.time()
    kernel = make_kernel(f"normalized(inner=gauss(sigma=2,ell=1,dim={d}))")
    ctx = make_context(kernel, [[0.0], [0.7], [1.5], [2.4], [3.4]])
    rep = verify_identities(ctx, trials=100, seed=3)
    worst = max(r["max_residual"] for r in rep.results.values())
    elapsed = time.time() - start
    assert report(
        f"criterion 3 (covariance suite, d={d})",
        rep.all_pass and worst <= 1e-8 and elapsed < 5,
        f"max residual={worst:.2e} time={elapsed:.1f}s",
    )


def test_criterion_04_isometry_projection():
    """Under K(s,s)=I: V isometry to 1e-10, P idempotent to 1e-8."""
    start = time.time()
    kernel = make_kernel("normalized(inner=gauss(sigma=2,ell=1,dim=2))")
    ctx = make_context(kernel, [[0.0], [0.8], [1.7], [2.9], [4.0]])
    rng = np.random.default_rng(4)
    worst_iso, worst_proj = 0.0, 0.0
    for _ in range(100):
        i = int(rng.integers(ctx.n))
        a = rng.standard_normal(2)
        a /= np.linalg.norm(a)
        worst_iso = max(
            worst_iso, abs(feature_embed(ctx, i, a).g_norm() - 1.0)
        )
        x = RkhsElement(ctx, rng.standard_normal(ctx.size))
        px = frame_projection(ctx, i, x)
        ppx = frame_projection(ctx, i, px)
        worst_proj = max(worst_proj, ppx.g_distance(px) / x.g_norm())
    elapsed = time.time() - start
    assert report(
        "criterion 4 (isometry/projection)",
        worst_iso <= 1e-10 and worst_proj <= 1e-8 and elapsed < 5,
        f"iso={worst_iso:.2e} proj={worst_proj:.2e} time={elapsed:.1f}s",
    )


def test_criterion_05_extended_family():
    """W_i^* W_j b = B_i^T K(s_i,s_j) B_j b; unitary case is isometric."""
    start = time.time()
    rng = np.random.default_rng(5)
    ctx = make_context(
        make_kernel("gauss(sigma=1,ell=1,dim=2)"), [[0.0], [0.6], [1.3], [2.1]]
    )
    mats = [rng.standard_normal((2, 2)) for _ in range(4)]
    fam = TransformFamily(ctx, mats)
    worst = 0.0
    for _ in range(100):
        i, j = int(rng.integers(4)), int(rng.integers(4))
        b = rng.standard_normal(2)
        lhs = transformed_adjoint(fam, i, transformed_embed(fam, j, b))
        rhs = mats[i].T @ ctx.gram.block(i, j) @ mats[j] @ b
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    # unitary transforms over a normalized kernel
    nctx = make_context(
        make_kernel("normalized(inner=gauss(sigma=2,ell=1,dim=2))"),
        [[0.0], [0.9], [1.9], [3.0]],
    )
    ufam = TransformFamily(nctx, [rotation(0.4 * i) for i in range(4)])
    worst_iso, worst_proj = 0.0, 0.0
    for _ in range(100):
        i = int(rng.integers(4))
        a = rng.standard_normal(2)
        a /= np.linalg.norm(a)
        worst_iso = max(
            worst_iso, abs(transformed_embed(ufam, i, a).g_norm() - 1.0)
        )
        x = RkhsElement(nctx, rng.standard_normal(nctx.size))
        once = chain_apply(ufam, [i], x)
        twice = chain_apply(ufam, [i, i], x)
        worst_proj = max(worst_proj, twice.g_distance(once) / x.g_norm())
    elapsed = time.time() - start
    assert report(
        "criterion 5 (extended family)",
        worst <= 1e-10 and worst_iso <= 1e-10 and worst_proj <= 1e-8 and elapsed < 5,
        f"adjoint={worst:.2e} iso={worst_iso:.2e} proj={worst_proj:.2e} "
        f"time={elapsed:.1f}s",
    )


def test_criterion_06_chain_oracle():
    """chain_apply matches explicit nd x nd matrix products, 100 trials."""
    start = time.time()
    rng = np.random.default_rng(6)
    ctx = make_context(
        make_kernel("gauss(sigma=1,ell=1,dim=2)"), [[0.0], [0.5], [1.2], [2.0]]
    )
    n, d = ctx.n, ctx.d
    mats = [rng.standard_normal((2, 2)) for _ in range(4)]
    fam = TransformFamily(ctx, mats)
    G = ctx.gram.data

    def dense(i):
        S = np.zeros((d, n * d))
        S[:, i * d : (i + 1) * d] = np.eye(d)
        return S.T @ mats[i] @ mats[i].T @ S @ G

    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 5))
        idx = [int(rng.integers(n)) for _ in range(k)]
        x = RkhsElement(ctx, rng.standard_normal(n * d))
        out = chain_apply(fam, idx, x)
        M = np.eye(n * d)
        for p in idx:
            M = M @ dense(p)
        worst = max(worst, float(np.abs(out.coeffs - M @ x.coeffs).max()))
    elapsed = time.time() - start
    assert report(
        "criterion 6 (chain oracle)",
        worst <= 1e-10 and elapsed < 5,
        f"max residual={worst:.2e} time={elapsed:.1f}s",
    )


def test_criterion_07_onb_expansion():
    """Mercer-style reconstruction on the grid, gaussian n=10."""
    start = time.time()
    ctx = make_context(make_kernel(GAUSS1), parse_sites("grid(0,1,10)"))
    basis = onb_expansion(ctx, 1e-12)
    G = ctx.gram.data
    recon = np.zeros_like(G)
    for el in basis:
        vals = G @ el.coeffs
        recon += np.outer(vals, vals)
    err = float(np.abs(recon - G).max())
    elapsed = time.time() - start
    assert report(
        "criterion 7 (ONB expansion)",
        err <= 1e-8 and elapsed < 2,
        f"reconstruction error={err:.2e} basis={len(basis)} time={elapsed:.1f}s",
    )


def test_criterion_08_continuity_modulus():
    """Increment/h^2 -> 1 at h=1e-3; increment <= h^2 on (0, 1]."""
    start = time.time()
    kernel = make_kernel(GAUSS1)
    h = 1e-3
    ratio = continuity_increment(kernel, 0, h, [1]) / h**2
    ratio_ok = 0.999999 <= ratio <= 1.000001
    bound_ok = True
    for h in np.geomspace(1e-6, 1.0, 200):
        # 1e-15 slack absorbs cancellation roundoff in 1 - exp(-x)
        if continuity_increment(kernel, 0, float(h), [1]) > h**2 + 1e-15:
            bound_ok = False
    elapsed = time.time() - start
    assert report(
        "criterion 8 (continuity modulus)",
        ratio_ok and bound_ok and elapsed < 1,
        f"ratio={ratio:.8f} bound_ok={bound_ok} time={elapsed:.1f}s",
    )


def test_criterion_09_compactness_surrogate():
    """Gaussian spectral decay at n=100; diagexp3 constant component."""
    start = time.time()
    reports = spectral_decay_profile(make_kernel(GAUSS1), [100])
    ev = reports[0].eigenvalues
    decay = float(ev[9] / ev[0])
    # constant component of diagexp3: a rank-one all-ones sub-Gram
    rep3 = spectral_decay_profile(make_kernel("diagexp3"), [50])[0]
    const_ok = rep3.eigenvalues[0] == pytest.approx(50.0, rel=1e-9)
    elapsed = time.time() - start
    assert report(
        "criterion 9 (compactness surrogate)",
        decay <= 1e-8 and const_ok and elapsed < 5,
        f"lambda10/lambda1={decay:.2e} time={elapsed:.1f}s",
    )


def test_criterion_10_gp_covariance_recovery():
    """N=5e4 two-site gaussian: empirical covariance within 0.03; bitwise
    reproducible."""
    start = time.time()
    ctx = make_context(make_kernel(GAUSS1), [[0], [1]])
    b1 = sample_paths(ctx, 50_000, seed=0)
    b2 = sample_paths(ctx, 50_000, seed=0)
    bitwise = np.array_equal(b1.paths, b2.paths)
    rep = covariance_error_report(b1)
    elapsed = time.time() - start
    assert report(
        "criterion 10 (GP covariance recovery)",
        rep.max_abs_err <= 0.03 and bitwise and elapsed < 20,
        f"max err={rep.max_abs_err:.4f} bitwise={bitwise} time={elapsed:.1f}s",
    )


def test_criterion_11_fault_injection(tmp_path):
    """A 0.1 Gram perturbation fails the identity suite with exit code 3."""
    start = time.time()
    kernel_text = "normalized(inner=gauss(sigma=2,ell=1,dim=1))"
    sites_text = "grid(0,8,5)"
    g = assemble_gram(make_kernel(kernel_text), parse_sites(sites_text))
    corrupted = g.data.copy()
    corrupted[0, 1] += 0.1
    raw = tmp_path / "raw.csv"
    np.savetxt(raw, corrupted, delimiter=",")
    code = main(
        [
            "verify",
            "--kernel",
            kernel_text,
            "--sites",
            sites_text,
            "--raw",
            str(raw),
            "--out",
            str(tmp_path),
        ]
    )
    elapsed = time.time() - start
    assert report(
        "criterion 11 (fault injection)",
        code == 3 and elapsed < 2,
        f"exit code={code} time={elapsed:.1f}s",
    )
