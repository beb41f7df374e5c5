"""Frozen bytes of the four report kinds.

Each case writes its report as JSON (``write_json``) and as CSV
(``write_csv`` of ``csv_rows()``) and compares the sha256 of both files with
a frozen value. A change to the replicate seeds, the random streams, the
theory values or the serializers shows up here. The cases cover a thread
pool, replicates rejected as empty graphs, a null kernel, and star and
isolated-edge rates.
"""

import hashlib

import pytest

from graphex.harness import (
    connectivity_experiment,
    degdist_experiment,
    projectivity_test,
    validate_expectations,
    write_csv,
    write_json,
)
from graphex.model import build

FAST = build({"family": "fast-decay"})
SLOW = build({"family": "slow-decay"})
NULL = build({"family": "custom", "exprs": {"W": "0"}})
STAR_ISO = build({"family": "custom", "exprs": {"W": "0", "S": "exp(-x)"}, "I": 0.2})

CASES = {
    "validate-threads": lambda: validate_expectations(FAST, (2.0, 3.0), 30, 5, threads=2),
    "validate-null": lambda: validate_expectations(
        NULL, (2.0,), 30, 0, stats=("edges", "vertices", "degree_1")),
    "validate-star-iso": lambda: validate_expectations(
        STAR_ISO, (3.0,), 30, 1, stats=("edges", "vertices", "degree_1")),
    "degdist-rejected": lambda: degdist_experiment(SLOW, (2, 4), 30, 11, k=1, eps=1e-2),
    "degdist-threads": lambda: degdist_experiment(FAST, (9.0, 25.0), 30, 4, beta=0.5,
                                                  threads=2),
    "connectivity-threads": lambda: connectivity_experiment(FAST, (5.0, 10.0), 30, 3,
                                                            threads=2),
    "connectivity-rejected": lambda: connectivity_experiment(SLOW, (1.0, 2.0), 30, 3,
                                                             eps=1e-2),
    "projectivity-threads": lambda: projectivity_test(FAST, 3.0, 60, 4, threads=2),
    "projectivity-slow": lambda: projectivity_test(SLOW, 2.0, 40, 9, eps=1e-2),
}

# case -> (sha256 of the JSON file, sha256 of the CSV file)
GOLDEN = {
    "connectivity-rejected": (
        "ffd728c22c1e09d451142e34e8b7c695ce8e40235a7d5e0f90a8223c869d47c9",
        "f62757921781609639e53c288309d7290ff78330b53852664184a4741e57b2f1"),
    "connectivity-threads": (
        "822485f4149a464d6bd8cb00fbdb90ad02f766306b1ac78ac428b3e91d0ee653",
        "f8769a2b5f8141ca789ec3b9c150ed09f96db687747aea96df697162b948c591"),
    "degdist-rejected": (
        "d547fc3328c10ba4ecc9cfb828b4794445b63e47563db314354cf35fe947d642",
        "f7d3f70b25154bbcf0c1858802842418e2a9c21e842c08185fb2ad10d012c03a"),
    "degdist-threads": (
        "7509f4ba0426a86be7d0de6797ef32dd6ee297645536fe040b3aff5a3bc7f976",
        "806c0fad3b5abf3754920e153c414b7db79af88519790b5334f5da160d7afb5d"),
    "projectivity-slow": (
        "35f02083dd49a4331cc897272360def556c8baba53189c6a7df3aa114b5ad868",
        "b69f868f3e090d15d5defd57352d4ba78a4cd5f6750731ad128b6f539430f156"),
    "projectivity-threads": (
        "d9e4696b1bdba9eaa137eefd8c67b2c78da61b275b12e1e9b1560a689c7cd8be",
        "5fbd8315a8821ca63b3971ef18a852dba6019ad3d1602a75b52f11065a6fbd13"),
    "validate-null": (
        "9389acd61a1c5ed20d2fd7062c46197e19870b0d80fbbb9789382db2ca099ca2",
        "b29c3d8acd66826dd38d5810b3498dc7a7f9325abd4ba77cc4538829a6842ff0"),
    "validate-star-iso": (
        "a593d357e84c74b0cfe7101b1c2fa415625735e2e080cc0c126b5fe5bc4cf0ba",
        "25af19e6d53bc1fb43ff5a01f3ffc35be3eeb36387df70b775d613ea129067b9"),
    "validate-threads": (
        "e29dbb291505e695d553eb129f881977fd507b3c037c11c6afdad7c3f712541d",
        "50b00c9bb1ccf4292d0c71a8229b85bb641a103487e2ee8d08c0d1647fdebdf3"),
}


def report_digests(report, tmp_path):
    json_path, csv_path = tmp_path / "report.json", tmp_path / "report.csv"
    write_json(report.to_dict(), json_path)
    write_csv(csv_path, *report.csv_rows())
    return tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (json_path, csv_path))


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_are_frozen(case, tmp_path):
    assert report_digests(CASES[case](), tmp_path) == GOLDEN[case]


def test_rejected_replicates_are_counted():
    report = CASES["degdist-rejected"]()
    assert [r.rejected for r in report.rows] == [15, 4]
