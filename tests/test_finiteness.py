"""The five local-finiteness conditions, graded honestly by evidence."""

import math

import pytest

from graphex import finiteness
from graphex.finiteness import CONDITION_KEYS, FinitenessReport, check_local_finiteness
from graphex.model import Graphex, build, dilate

ANALYTIC = "holds-analytic"
NUMERIC = "holds-numeric"


def statuses(report):
    return {c.key: c.status for c in report.conditions}


def test_report_shape():
    rep = check_local_finiteness(build({"family": "fast-decay"}))
    assert tuple(c.key for c in rep.conditions) == CONDITION_KEYS
    d = rep.to_dict()
    assert set(d) == {"conditions", "all_hold", "any_violated"}
    assert len(d["conditions"]) == 5
    for c in d["conditions"]:
        assert c["status"] in (ANALYTIC, NUMERIC, "violated", "undecidable")
    with pytest.raises(KeyError):
        rep["no_such_condition"]


def test_slow_decay_all_hold_analytically():
    rep = check_local_finiteness(build({"family": "slow-decay", "self_edges": True}))
    assert rep.all_hold and not rep.any_violated
    assert set(statuses(rep).values()) == {ANALYTIC}
    # the kernel is integrable, so the level-set condition comes from Markov
    assert rep["marginal_level_sets"].bound == pytest.approx(1.0 / 3.0)


def test_dense_families_hold_via_compact_support():
    for g in (build({"family": "constant", "params": {"p": 0.5, "c": 2.0},
                     "self_edges": True}),
              dilate([[0.2, 0.9], [0.9, 0.4]], 3.0, self_edges=True)):
        rep = check_local_finiteness(g)
        assert rep.all_hold
        assert set(statuses(rep).values()) == {ANALYTIC}


def test_nonintegrable_indicator_kernel_is_still_locally_finite():
    # mu(x) = 1/x: the kernel has infinite mass yet every condition holds;
    # the level-set and restricted-kernel verdicts are numeric by necessity
    rep = check_local_finiteness(build({"family": "custom",
                                        "exprs": {"W": "le(x*y, 1)"}}))
    assert rep.all_hold
    st = statuses(rep)
    assert st["marginal_level_sets"] == NUMERIC
    assert st["kernel_core_integrable"] == NUMERIC
    # the crossing of mu through 1 sits near x = 1
    assert rep["marginal_level_sets"].bound == pytest.approx(1.0, abs=0.05)
    # honesty note: point probes cannot certify the null infinite set
    assert "black-box" in rep["marginal_level_sets"].note


def test_infinite_isolated_rate_violates():
    rep = check_local_finiteness(build({"family": "custom", "exprs": {"W": "0"},
                                        "I": math.inf}))
    assert statuses(rep)["isolated_rate_finite"] == "violated"
    assert rep.any_violated and not rep.all_hold


def test_nonintegrable_star_rate_violates():
    rep = check_local_finiteness(build({"family": "custom",
                                        "exprs": {"W": "0", "S": "1/(1+x)"}}))
    assert statuses(rep)["star_rate_integrable"] == "violated"


def test_integrable_star_rate_numeric():
    rep = check_local_finiteness(build({"family": "custom",
                                        "exprs": {"W": "0", "S": "(1+x)^-3"}}))
    v = rep["star_rate_integrable"]
    assert v.status == NUMERIC
    assert v.bound == pytest.approx(0.5, rel=1e-6)


def test_divergent_marginal_everywhere_violates_level_sets():
    # min(1, 1/(x y)) has a log-divergent marginal at every x > 0
    rep = check_local_finiteness(build({"family": "custom",
                                        "exprs": {"W": "min(1, 1/(x*y+1e-300))"}}))
    assert statuses(rep)["marginal_level_sets"] == "violated"
    # with no usable level-set bound the core condition cannot be probed
    assert statuses(rep)["kernel_core_integrable"] == "undecidable"


def test_band_kernel_diagonal_violates_when_self_edges_on():
    # 0.4 on the band |x - y| <= 1: the diagonal is a non-integrable constant
    g = build({"family": "custom", "exprs": {"W": "0.4 * le(abs(x - y), 1)"},
               "self_edges": True})
    rep = check_local_finiteness(g)
    assert statuses(rep)["diagonal_integrable"] == "violated"
    # the same kernel restricted to its (empty) high-marginal region has
    # infinite mass; the probes may prove it or give up, but never call it fine
    assert statuses(rep)["kernel_core_integrable"] in ("violated", "undecidable")


def test_band_kernel_diagonal_ignored_without_self_edges():
    g = build({"family": "custom", "exprs": {"W": "0.4 * le(abs(x - y), 1)"}})
    rep = check_local_finiteness(g)
    assert statuses(rep)["diagonal_integrable"] == ANALYTIC


def test_integrable_diagonal_numeric():
    g = build({"family": "caron-fox", "exprs": {"g": "exp(-x)"}, "self_edges": True})
    rep = check_local_finiteness(g)
    v = rep["diagonal_integrable"]
    assert v.status == NUMERIC
    assert v.ok


def test_caron_fox_holds_from_the_majorant_without_a_marginal(monkeypatch):
    # W = 1 - exp(-r(x) r(y)) <= r(x) r(y), so ||W||_1 <= ||r||_1^2 = 2 for
    # r = sqrt(2) exp(-x); no marginal is evaluated to show it
    def no_marginal(*args, **kwargs):
        raise AssertionError("the check evaluated a marginal")

    monkeypatch.setattr(Graphex, "refined_marginal", no_marginal)
    monkeypatch.setattr(Graphex, "marginal_nodes", no_marginal)
    rep = check_local_finiteness(build({"family": "caron-fox"}))
    assert rep.all_hold
    for key in ("marginal_level_sets", "kernel_core_integrable"):
        assert rep[key].status == NUMERIC
        assert rep[key].bound == pytest.approx(2.0, rel=1e-12)
        assert "r(x) r(y)" in rep[key].note


def test_caron_fox_with_a_jump_holds_from_the_majorant():
    # the theory cannot integrate this kernel's nested marginal across the
    # jump at 1, so this check is its only certificate: ||r||_1^2 = 2 (2 - 1/e)^2
    g = build({"family": "caron-fox", "exprs": {"g": "exp(-x)*(1+le(x,1))"}})
    rep = check_local_finiteness(g)
    assert rep.all_hold
    for key in ("marginal_level_sets", "kernel_core_integrable"):
        assert rep[key].status == NUMERIC
        assert rep[key].bound == pytest.approx(2.0 * (2.0 - math.exp(-1.0)) ** 2, rel=1e-9)
        assert rep[key].bound == pytest.approx(5.3276, abs=1e-4)


def test_caron_fox_without_a_majorant_keeps_its_probes():
    # ||r||_1 of g = 1/(1+x) diverges, so there is no bound and the probes
    # see mu = infinity everywhere
    st = statuses(check_local_finiteness(build({"family": "caron-fox",
                                                "exprs": {"g": "1/(1+x)"}})))
    assert st["marginal_level_sets"] == "violated"
    assert st["kernel_core_integrable"] == "undecidable"


def test_null_graphex_holds_trivially():
    rep = check_local_finiteness(build({"family": "custom", "exprs": {"W": "0"}}))
    assert rep.all_hold


def test_probe_config_is_respected(monkeypatch):
    # a tiny shell budget downgrades a hard verdict to undecidable, never to a
    # false pass/fail
    monkeypatch.setattr(finiteness, "_MAX_SHELLS", 4)
    g = build({"family": "custom", "exprs": {"W": "0", "S": "1/(1+x)"}})
    rep = check_local_finiteness(g)
    assert rep["star_rate_integrable"].status in ("violated", "undecidable")
    assert isinstance(rep, FinitenessReport)
