import json
import math

import numpy as np
import pytest

from graphex.harness import (
    ConnectivityReport,
    DegreeLawReport,
    HarnessError,
    ProjectivityReport,
    ValidationReport,
    _replicates,
    connectivity_experiment,
    degdist_experiment,
    projectivity_test,
    validate_expectations,
    write_csv,
    write_json,
)
from graphex.model import build, dilate
from graphex.sampler import (
    SamplerConfig,
    _block_size,
    SamplerError,
    choose_theta_max,
    sample_planted_degrees,
)
from graphex.theory import TheoryError, degree_ccdf, degree_pmf, expected_degree_count

FAST = build({"family": "fast-decay"})
NULL = build({"family": "custom", "exprs": {"W": "0"}})


# --------------------------------------------------------------------------
# expectation validation
# --------------------------------------------------------------------------

def test_validate_small_run_passes():
    rep = validate_expectations(FAST, (3.0,), 60, seed=101,
                                stats=("edges", "vertices", "degree_1"))
    assert isinstance(rep, ValidationReport)
    assert rep.all_ok
    assert [r.statistic for r in rep.rows] == ["edges", "vertices", "degree_1"]
    for r in rep.rows:
        assert r.replicates == 60 and r.nu == 3.0
        assert abs(r.z) <= 4.0 and r.ok
        assert r.se == pytest.approx(r.sd / np.sqrt(60))


def test_validate_zero_variance_zero_mean():
    # a null kernel never makes an edge: sd = 0 and theory = 0, so z = 0
    rep = validate_expectations(NULL, (2.0,), 30, seed=0,
                                stats=("edges", "vertices"))
    for r in rep.rows:
        assert r.sd == 0.0 and r.mean == 0.0 and r.theory == 0.0
        assert r.z == 0.0 and r.ok
    assert rep.all_ok


def test_validate_report_shape():
    rep = validate_expectations(FAST, (2.0, 3.0), 30, seed=5, stats=("edges",))
    d = rep.to_dict()
    assert set(d) == {"graphex", "seed", "z_crit", "rows", "all_ok"}
    assert d["graphex"]["family"] == "fast-decay"
    assert len(d["rows"]) == 2
    assert set(d["rows"][0]) == {"statistic", "nu", "replicates", "mean", "sd",
                                 "se", "theory", "z", "verdict"}
    assert d["rows"][0]["verdict"] in ("pass", "fail")
    fields, rows = rep.csv_rows()
    assert fields == ValidationReport.CSV_FIELDS
    assert len(rows) == 2


def test_validate_is_deterministic_and_thread_invariant():
    a = validate_expectations(FAST, (3.0,), 30, seed=7)
    b = validate_expectations(FAST, (3.0,), 30, seed=7)
    c = validate_expectations(FAST, (3.0,), 30, seed=7, threads=2)
    assert json.dumps(a.to_dict(), sort_keys=True) \
        == json.dumps(b.to_dict(), sort_keys=True) \
        == json.dumps(c.to_dict(), sort_keys=True)
    d = validate_expectations(FAST, (3.0,), 30, seed=8)
    assert a.to_dict() != d.to_dict()


@pytest.mark.parametrize("threads", [0, -4, True, 2.5])
def test_replicate_engine_refuses_bad_thread_counts(threads):
    # refused before any draw, from the engine and from every experiment on it
    with pytest.raises(HarnessError, match="threads"):
        next(_replicates(FAST, (3.0,), 30, 0, 1e-3, threads, lambda graph, i_nu: 0))
    with pytest.raises(HarnessError, match="threads"):
        validate_expectations(FAST, (3.0,), 30, seed=0, threads=threads)


def test_validate_argument_errors():
    # a z threshold that is not finite and positive passes or fails every row
    for z_crit in (math.nan, -1.0, 0.0, math.inf):
        with pytest.raises(HarnessError, match="z_crit"):
            validate_expectations(FAST, (3.0,), 30, seed=0, z_crit=z_crit)
    with pytest.raises(HarnessError):
        validate_expectations(FAST, (3.0,), 29, seed=0)
    with pytest.raises(HarnessError):
        validate_expectations(FAST, (), 30, seed=0)
    with pytest.raises(HarnessError):
        validate_expectations(FAST, (-1.0,), 30, seed=0)
    with pytest.raises(HarnessError):
        validate_expectations(FAST, (3.0,), 30, seed=0, stats=("edges", "degree_0"))
    with pytest.raises(HarnessError):
        validate_expectations(FAST, (3.0,), 30, seed=0, stats=("triangles",))


# --------------------------------------------------------------------------
# degree-law experiment
# --------------------------------------------------------------------------

def test_degdist_fixed_k():
    rep = degdist_experiment(FAST, (5.0, 50.0), 40, seed=202, k=1)
    assert isinstance(rep, DegreeLawReport)
    assert [r.k for r in rep.rows] == [1, 1]
    assert rep.rows[-1].gap < rep.rows[0].gap
    assert rep.gaps_shrink and rep.ok
    d = rep.to_dict()
    assert set(d) == {"graphex", "seed", "rows", "gaps_shrink", "ok"}
    assert set(d["rows"][0]) == {"nu", "k", "replicates", "rejected",
                                 "empirical_ccdf", "theory_ccdf",
                                 "empirical_pmf", "theory_pmf", "gap"}


def test_degdist_beta_mode_scales_k():
    rep = degdist_experiment(FAST, (9.0, 100.0), 40, seed=203, beta=0.5)
    assert [r.k for r in rep.rows] == [3, 10]
    assert rep.ok


def test_degdist_argument_errors():
    with pytest.raises(HarnessError):
        degdist_experiment(FAST, (5.0,), 40, seed=0)  # neither k nor beta
    with pytest.raises(HarnessError):
        degdist_experiment(FAST, (5.0,), 40, seed=0, k=1, beta=0.5)
    with pytest.raises(HarnessError):
        degdist_experiment(FAST, (5.0,), 40, seed=0, k=0)
    with pytest.raises(HarnessError):
        degdist_experiment(FAST, (5.0,), 40, seed=0, beta=1.5)
    with pytest.raises(HarnessError, match="empty"):
        degdist_experiment(NULL, (1.0,), 30, seed=0, k=1)


# bool is a subclass of int, but True is no count, degree, level or budget; each
# module refuses it with its own error
@pytest.mark.parametrize("call, error", [
    (lambda: degdist_experiment(FAST, (3.0,), 30, 0, k=True), HarnessError),
    (lambda: validate_expectations(FAST, (2.0, True), 30, 0), HarnessError),
    (lambda: projectivity_test(FAST, True, 30, 0), HarnessError),
    (lambda: SamplerConfig(nu=2.0, seed=0, eps=True), SamplerError),
    (lambda: sample_planted_degrees(FAST, 2.0, True, True, 0), SamplerError),
    (lambda: sample_planted_degrees(FAST, 2.0, 1.0, 30, 0, eps=True), SamplerError),
    (lambda: choose_theta_max(FAST, True, 1e-3), SamplerError),
    (lambda: expected_degree_count(FAST, 2.0, True), TheoryError),
    (lambda: degree_ccdf(FAST, 2.0, True), TheoryError),
    (lambda: degree_pmf(FAST, 2.0, True), TheoryError),
    (lambda: validate_expectations(FAST, (2.0,), 30, 0, z_crit=True), HarnessError),
    (lambda: projectivity_test(FAST, 2.0, 30, 0, p_floor=True), HarnessError),
    (lambda: connectivity_experiment(FAST, (2.0,), 30, 0, threshold=True), HarnessError),
], ids=["degdist-k", "grid-nu", "projectivity-nu", "sampler-eps", "planted-reps",
        "planted-eps", "cutoff-nu", "degk-k", "ccdf-k", "pmf-k", "validate-z-crit",
        "projectivity-p-floor", "connectivity-threshold"])
def test_bool_is_refused_as_a_number(call, error):
    with pytest.raises(error):
        call()


# --------------------------------------------------------------------------
# connectivity
# --------------------------------------------------------------------------

def test_connectivity_growth():
    rep = connectivity_experiment(FAST, (5.0, 30.0), 30, seed=303, threshold=0.5)
    assert isinstance(rep, ConnectivityReport)
    fr = [r.mean_fraction for r in rep.rows]
    assert fr[0] < fr[1] and all(0.0 < f <= 1.0 for f in fr)
    assert rep.nondecreasing and rep.final_ok and rep.ok
    d = rep.to_dict()
    assert set(d) == {"graphex", "seed", "threshold", "rows", "nondecreasing",
                      "final_ok", "ok"}


def test_connectivity_takes_any_kernel_the_sampler_draws():
    # the complete bipartite block graphon: every visible vertex is in the
    # one component
    block = dilate([[0.0, 1.0], [1.0, 0.0]], 1.0)
    rep = connectivity_experiment(block, (5.0,), 30, seed=0)
    assert rep.rows[0].mean_fraction == 1.0
    # what the sampler cannot draw, its caps refuse
    with pytest.raises(SamplerError, match="max_pair_coins"):
        connectivity_experiment(block, (3e4,), 30, seed=0)


# --------------------------------------------------------------------------
# projectivity
# --------------------------------------------------------------------------

def test_projectivity_passes_for_correct_sampler():
    rep = projectivity_test(FAST, 3.0, 200, seed=404)
    assert isinstance(rep, ProjectivityReport)
    assert 0.0 <= rep.ks_statistic <= 1.0
    assert rep.p_value >= rep.p_floor and rep.ok
    d = rep.to_dict()
    assert set(d) == {"graphex", "seed", "nu", "replicates", "ks_statistic",
                      "p_value", "p_floor", "ok"}


def test_projectivity_argument_errors():
    with pytest.raises(HarnessError):
        projectivity_test(FAST, 0.0, 30, seed=0)
    with pytest.raises(HarnessError):
        projectivity_test(FAST, 3.0, 10, seed=0)
    # a p-value floor outside (0, 1) passes or fails every run
    for p_floor in (math.nan, 0.0, 1.0, 2.0, -0.5):
        with pytest.raises(HarnessError, match="p_floor"):
            projectivity_test(FAST, 3.0, 30, seed=0, p_floor=p_floor)


def test_connectivity_argument_errors():
    # a threshold outside [0, 1] is no fraction; NaN would reach the report,
    # which json then writes as the invalid token NaN
    for threshold in (math.nan, -0.1, 1.5, math.inf):
        with pytest.raises(HarnessError, match="threshold"):
            connectivity_experiment(FAST, (3.0,), 30, seed=0, threshold=threshold)


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def test_write_json_and_csv(tmp_path):
    rep = degdist_experiment(FAST, (5.0,), 30, seed=1, k=1)
    jpath = tmp_path / "report.json"
    write_json(rep.to_dict(), jpath)
    with open(jpath, encoding="utf-8") as fh:
        assert json.load(fh) == rep.to_dict()
    # a second write is byte-identical
    first = jpath.read_bytes()
    write_json(rep.to_dict(), jpath)
    assert jpath.read_bytes() == first

    cpath = tmp_path / "report.csv"
    fields, rows = rep.csv_rows()
    write_csv(cpath, fields, rows)
    lines = cpath.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == ",".join(fields)
    assert len(lines) == 1 + len(rows)


# --------------------------------------------------------------------------
# blocks and threads
# --------------------------------------------------------------------------

def test_reports_are_the_same_bytes_for_any_thread_count():
    # several blocks per level, so that two threads share them out
    g = build({"family": "fast-decay", "exprs": {"S": "exp(-x)"}, "I": 0.1})
    assert _block_size(g, SamplerConfig(nu=30.0, seed=0)) < 20
    runs = {}
    for threads in (None, 1, 2):
        reports = (
            validate_expectations(g, (3.0, 30.0), 60, 7, threads=threads),
            degdist_experiment(g, (3.0, 30.0), 60, 8, k=1, threads=threads),
            connectivity_experiment(g, (3.0, 30.0), 60, 9, threshold=0.1, threads=threads),
            projectivity_test(g, 15.0, 60, 10, threads=threads),
        )
        runs[threads] = [json.dumps(r.to_dict(), sort_keys=True) for r in reports]
    assert runs[None] == runs[1] == runs[2]


def test_a_seed_past_2_64_addresses_its_low_64_bits():
    # the child seeds come from the key derivation, which masks a seed to 64
    # bits
    wide = validate_expectations(FAST, (3.0,), 30, seed=2**64 + 3)
    assert wide.rows == validate_expectations(FAST, (3.0,), 30, seed=3).rows

