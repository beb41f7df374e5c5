"""Acceptance suite: one test per criterion, one verdict line each under
``pytest -v``.

Each test pins its tolerances and replicate counts in place and asserts its
own wall-clock budget. All Monte Carlo runs use seed 0; every experiment
passed on the first seed tried, so no seed was shopped (margins are noted in
the repository notes). Criterion 4 has two parts: the finite-size value of
the degree-two fraction is asserted exactly (04b_value), and the 1e-3
closeness to its asymptotic limit is a strict expected failure
(04b_limit), because the true distance at nu = 1e4 is 1.234e-3; the
distance shrinks about threefold per decade of nu, roughly like nu^(-1/2)
(0.0135, 0.0040, 0.00123 and 0.00039 at nu = 1e2 to 1e5, from
``degree_pmf``), so no correct implementation can pass that tolerance at
that nu.
"""

import math
import time

import numpy as np
import pytest
from scipy import special
from scipy import stats as sps

from graphex.cli import main as cli_main
from graphex.graphstats import degrees, sparsity_ratio
from graphex.harness import (
    connectivity_experiment,
    degdist_experiment,
    projectivity_test,
    validate_expectations,
)
from graphex.model import build, dilate
from graphex.rng import derive_key
from graphex.sampler import SamplerConfig, sample_keg, sample_planted_degrees
from graphex.theory import (
    degree_pmf,
    expected_degree_count,
    expected_vertices,
)

SLOW = build({"family": "slow-decay"})
FAST = build({"family": "fast-decay"})
CONST_SELF = build({"family": "constant", "params": {"p": 0.5, "c": 2.0},
                    "self_edges": True})


def slow_vertices_closed_form(nu: float) -> float:
    r = math.sqrt(nu / 3.0)
    return nu * (math.sqrt(math.pi) * r * math.erf(r) + math.exp(-nu / 3.0) - 1.0)


def slow_degree_count_closed_form(nu: float, k: int) -> float:
    # nu^(3/2) (Gamma(k - 1/2) - Gamma(k - 1/2, nu/3)) / (2 sqrt(3) k!)
    return (nu ** 1.5 * special.gamma(k - 0.5) * special.gammainc(k - 0.5, nu / 3.0)
            / (2.0 * math.sqrt(3.0) * math.factorial(k)))


def fast_vertices_closed_form(nu: float) -> float:
    return nu * (np.euler_gamma + special.exp1(nu) + math.log(nu))


def fast_degree_count_closed_form(nu: float, k: int) -> float:
    # (nu / k!) * (Gamma(k) - Gamma(k, nu)), the parenthesis being the lower
    # incomplete gamma
    return nu / math.factorial(k) * special.gamma(k) * special.gammainc(k, nu)


def test_criterion_01_slow_decay_vertex_closed_form():
    t0 = time.perf_counter()
    for nu in (1.0, 12.0, 100.0):
        got = expected_vertices(SLOW, nu).value
        assert got == pytest.approx(slow_vertices_closed_form(nu), rel=1e-6)
    ratio = expected_vertices(SLOW, 1e4).value / 1e4 ** 1.5
    band = math.sqrt(math.pi / 3.0)
    assert 0.97 * band <= ratio <= 1.03 * band
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_fast_decay_closed_forms():
    t0 = time.perf_counter()
    for nu in (1.0, 5.0, 100.0):
        got = expected_vertices(FAST, nu).value
        assert got == pytest.approx(fast_vertices_closed_form(nu), rel=1e-6)
        for k in (1, 2, 5):
            got_k = expected_degree_count(FAST, nu, k).value
            assert got_k == pytest.approx(fast_degree_count_closed_form(nu, k),
                                          rel=1e-6)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_03_monte_carlo_expectations():
    t0 = time.perf_counter()
    cases = (
        (SLOW, 1e-2),    # power tail: a looser cutoff keeps the clouds small
        (FAST, 1e-3),
        (CONST_SELF, 1e-3),
    )
    for g, eps in cases:
        report = validate_expectations(
            g, (5.0, 10.0, 20.0), 500, seed=0, eps=eps,
            stats=("edges", "vertices", "degree_1", "degree_2"))
        bad = [r for r in report.rows if not r.ok]
        assert report.all_ok, f"{g.spec.get('family')}: {bad}"
    assert time.perf_counter() - t0 < 120.0


@pytest.mark.frozen
def test_criterion_04a_degree_one_fraction_near_half():
    t0 = time.perf_counter()
    report = degdist_experiment(SLOW, (300.0,), 200, seed=0, k=1, eps=5.0)
    fraction = report.rows[0].empirical_pmf
    assert abs(fraction - 0.5) <= 0.03
    assert time.perf_counter() - t0 < 120.0


def test_criterion_04a_companion_z_against_the_finite_nu_truth():
    # 04a asks for 0.5 +- 0.03, but its draws estimate the finite-nu truth
    # degree_pmf(slow-decay, 300, 1) = 0.52990, 1e-4 inside that window. This
    # checks the same 200 replicates (the harness's child seeds of seed 0 at
    # level index 0) against the truth, at 4 standard errors taken from them
    t0 = time.perf_counter()
    truth = degree_pmf(SLOW, 300.0, 1)
    assert truth == pytest.approx(0.52990, abs=5e-6)
    fractions = []
    for rep in range(200):
        child = int(derive_key(0, 0, rep)[0])
        _, deg = degrees(sample_keg(SLOW, SamplerConfig(nu=300.0, seed=child, eps=5.0)))
        fractions.append(np.count_nonzero(deg == 1) / deg.size)
    fractions = np.array(fractions)
    z = (fractions.mean() - truth) / (fractions.std(ddof=1) / math.sqrt(fractions.size))
    print(f"criterion 04a companion: mean {fractions.mean():.6f}, truth {truth:.6f}, z = {z:.3f}")
    assert abs(z) <= 4.0
    assert time.perf_counter() - t0 < 120.0


def test_criterion_04b_degree_two_pmf_value():
    # finite-size truth at nu = 1e4, frozen from the closed form
    # nu^{3/2} (Gamma(3/2) - Gamma(3/2, nu/3)) / (2 sqrt(3) 2!) over E[v]
    pmf2 = degree_pmf(SLOW, 1e4, 2)
    assert pmf2 == pytest.approx(0.12623356069739336, rel=1e-6)
    assert abs(pmf2 - 0.125) == pytest.approx(1.2336e-3, rel=1e-3)


@pytest.mark.xfail(
    strict=True,
    reason="the degree-two fraction converges to 1/8 about threefold per decade "
           "of nu, roughly like nu^(-1/2); at "
           "nu = 1e4 the true distance is 1.234e-3, which already exceeds "
           "the requested 1e-3, so no correct implementation can pass")
def test_criterion_04b_degree_two_pmf_limit():
    assert abs(degree_pmf(SLOW, 1e4, 2) - 0.125) <= 1e-3


def test_criterion_05_fast_decay_cdf_trend():
    t0 = time.perf_counter()
    report = degdist_experiment(FAST, (100.0, 1000.0), 100, seed=0, beta=0.5)
    cdfs = [1.0 - r.empirical_ccdf for r in report.rows]
    gaps = [abs(c - 0.5) for c in cdfs]
    assert gaps[1] < gaps[0]
    assert gaps[1] <= 0.08
    assert time.perf_counter() - t0 < 180.0


def mean_sparsity_ratio(g, nu, eps, reps, seed_base):
    vals = [sparsity_ratio(sample_keg(g, SamplerConfig(nu=nu, seed=seed_base + r,
                                                       eps=eps)).edges)
            for r in range(reps)]
    return float(np.mean(vals))


def test_criterion_06_dense_vs_sparse_sparsity_ratio():
    t0 = time.perf_counter()
    grid = (10.0, 40.0, 160.0)
    dil = dilate([[0.5]], 1.0)
    dense = {nu: mean_sparsity_ratio(dil, nu, 1e-3, 30, 0) for nu in grid}
    for nu in grid:
        assert 0.9 * dense[160.0] <= dense[nu] <= 1.1 * dense[160.0]
    sparse = {nu: mean_sparsity_ratio(SLOW, nu, 1.0, 30, 500) for nu in grid}
    assert sparse[10.0] >= 2.0 * sparse[160.0]
    assert time.perf_counter() - t0 < 60.0


def test_criterion_07_giant_component_emerges():
    t0 = time.perf_counter()
    report = connectivity_experiment(FAST, (25.0, 50.0, 100.0, 200.0), 50,
                                     seed=0, threshold=0.95)
    assert report.nondecreasing, [r.mean_fraction for r in report.rows]
    assert report.rows[-1].mean_fraction >= 0.95
    assert time.perf_counter() - t0 < 300.0


def test_criterion_08_projectivity():
    t0 = time.perf_counter()
    report = projectivity_test(SLOW, 10.0, 2000, seed=0, eps=1e-2)
    assert report.p_value >= 0.001
    assert time.perf_counter() - t0 < 60.0


def test_criterion_09_star_and_isolated_rates():
    t0 = time.perf_counter()
    g = build({"family": "custom", "exprs": {"W": "0", "S": "exp(-x)"}, "I": 0.2})
    reps = 10_000
    iso = np.empty(reps)
    star = np.empty(reps)
    for r in range(reps):
        by = sample_keg(g, SamplerConfig(nu=10.0, seed=r)).edge_counts_by_provenance()
        iso[r] = by["isolated"]
        star[r] = by["star"]
    for arr, target in ((iso, 20.0), (star, 100.0)):
        se = arr.std(ddof=1) / math.sqrt(reps)
        assert abs(arr.mean() - target) <= 3.0 * se
    assert time.perf_counter() - t0 < 60.0


def test_criterion_10_planted_degree_chi_square():
    t0 = time.perf_counter()
    reps = 10_000
    for lam in (0.0, 2.0):
        mu = (1.0 / 3.0) * (lam + 1.0) ** -2
        draws = sample_planted_degrees(SLOW, 20.0, lam, reps, seed=0, eps=0.05)
        kmax = int(draws.max())
        observed = np.bincount(draws, minlength=kmax + 1).astype(float)
        law = sps.poisson(20.0 * mu)
        expected = law.pmf(np.arange(kmax + 1)) * reps
        expected[-1] += law.sf(kmax) * reps
        # merge the right tail until every cell expects at least 5
        while expected.size > 2 and expected[-1] < 5.0:
            expected[-2] += expected[-1]
            observed[-2] += observed[-1]
            expected = expected[:-1]
            observed = observed[:-1]
        stat, p = sps.chisquare(observed,
                                expected * observed.sum() / expected.sum())
        assert p >= 0.001, f"lam={lam}: chi2={stat:.1f} p={p:.2e}"
    assert time.perf_counter() - t0 < 60.0


@pytest.mark.frozen
def test_criterion_11_byte_identical_reruns(tmp_path):
    decl = '{"family": "fast-decay"}'
    edges = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        assert cli_main(["sample", "--graphex", decl, "--nu", "10",
                         "--seed", "42", "--out", str(path)]) == 0
        edges.append(path.read_bytes())
    assert edges[0] == edges[1]
    reports = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        assert cli_main(["validate", "--graphex", decl, "--nus", "3",
                         "--replicates", "30", "--seed", "7",
                         "--out", str(path)]) == 0
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]
