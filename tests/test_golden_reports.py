"""Frozen bytes of the four experiment report kinds and of ``check`` reports.

Each experiment case writes its report as JSON (``write_json``) and as CSV
(``write_csv`` of ``csv_rows()``) and compares the sha256 of both files with
a frozen value. A change to the replicate seeds, the random streams, the
theory values or the serializers shows up here. The cases cover replicates
rejected as empty graphs, a null kernel, and star and isolated-edge rates.
The ``*-threads`` cases are named for the ``threads`` option the harness
once took; the thread pool a level now chooses for itself changes no byte.

Each ``check`` case writes the local-finiteness report of one declaration as
JSON, as ``graphex check`` does; a change to the probe budgets, the probe
grid or the quadrature under them moves its digest.
"""

import hashlib

import pytest

from graphex.finiteness import check_local_finiteness
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
    "validate-threads": lambda: validate_expectations(FAST, (2.0, 3.0), 30, 5),
    "validate-null": lambda: validate_expectations(
        NULL, (2.0,), 30, 0, stats=("edges", "vertices", "degree_1")),
    "validate-star-iso": lambda: validate_expectations(
        STAR_ISO, (3.0,), 30, 1, stats=("edges", "vertices", "degree_1")),
    "degdist-rejected": lambda: degdist_experiment(SLOW, (2, 4), 30, 11, k=1, eps=1e-2),
    "degdist-threads": lambda: degdist_experiment(FAST, (9.0, 25.0), 30, 4, beta=0.5),
    "connectivity-threads": lambda: connectivity_experiment(FAST, (5.0, 10.0), 30, 3),
    "connectivity-rejected": lambda: connectivity_experiment(SLOW, (1.0, 2.0), 30, 3,
                                                             eps=1e-2),
    "projectivity-threads": lambda: projectivity_test(FAST, 3.0, 60, 4),
    "projectivity-slow": lambda: projectivity_test(SLOW, 2.0, 40, 9, eps=1e-2),
}

# case -> (sha256 of the JSON file, sha256 of the CSV file)
GOLDEN = {
    "connectivity-rejected": (
        "353241a8cb6983521fae2aefd0a54e0abb7a434506bf1055b81866fc992aa17d",
        "fb3feaeca8428564f400ae1c55d11a85b8320c477c0a539214cf5b9b3bee219d"),
    "connectivity-threads": (
        "790945828f82eb257e33b3ff2791e3941f4e898b4f26ecab41245b25f3f5cafb",
        "4a191db9fbf9e9ca5dbd4a24df43079ac9f0d03a3380fc5189f33eba9f6ca83d"),
    "degdist-rejected": (
        "78095e0ae1280bd4efc54dc1d717a5a7cf5e62026c540ecf20e84728ad904c14",
        "decb4415c1b938b4ed9c7587032ffe405ba9f0ddc0de3eb933ebc7aa9d620d7e"),
    "degdist-threads": (
        "5bc8230be3d38b25469efb975736ef3608bd19a96d5929ef83ce3b79ecc46ebf",
        "19fcf8d524700e4df76831191ffeb32fb25c7f910e0e676819b953dda35f73c5"),
    "projectivity-slow": (
        "91a5145ec53d2e8c2fc8f26e95046f7fe0dcd7c805b232c2aaf1f32eb393e2d6",
        "f05143f00a88f8c3c4f09e9b9b765bcd7d9373a36b896e24c9cd68bc0f7b708a"),
    "projectivity-threads": (
        "4e00d0bac90262c0d2467b4cc0a344063fb8a4ae27f1fabe39a50b8f31c2d4f9",
        "8e6977a43b53b55012122c71181139cd8236dc8ca69a5f9842d4a9e09d6f3f9b"),
    "validate-null": (
        "9389acd61a1c5ed20d2fd7062c46197e19870b0d80fbbb9789382db2ca099ca2",
        "b29c3d8acd66826dd38d5810b3498dc7a7f9325abd4ba77cc4538829a6842ff0"),
    "validate-star-iso": (
        "a593d357e84c74b0cfe7101b1c2fa415625735e2e080cc0c126b5fe5bc4cf0ba",
        "25af19e6d53bc1fb43ff5a01f3ffc35be3eeb36387df70b775d613ea129067b9"),
    "validate-threads": (
        "ba7b11e180fca0ceed61a7db1902d92d19bdac4b9fd6fa885d30b5424df2b346",
        "910c2eb185092f6566b843b91624164c4fd7a88d1d5ac96e87f7c127e0f5b235"),
}


def report_digests(report, tmp_path):
    json_path, csv_path = tmp_path / "report.json", tmp_path / "report.csv"
    write_json(report.to_dict(), json_path)
    write_csv(csv_path, *report.csv_rows())
    return tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (json_path, csv_path))


@pytest.mark.frozen
@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_are_frozen(case, tmp_path):
    assert report_digests(CASES[case](), tmp_path) == GOLDEN[case]


@pytest.mark.frozen
def test_rejected_replicates_are_counted():
    report = CASES["degdist-rejected"]()
    assert [r.rejected for r in report.rows] == [20, 8]


# declaration -> sha256 of write_json(check_local_finiteness(build(spec)).to_dict())
CHECK_CASES = {
    "caron-fox": {"family": "caron-fox"},
    "caron-fox-self": {"family": "caron-fox", "self_edges": True},
    "custom-exp": {"family": "custom", "exprs": {"W": "exp(-x-y)"}},
    # the declaration of docs/recipes/check-custom-kernel.sh
    "custom-recipe": {"family": "custom",
                      "exprs": {"W": "exp(-x-y)", "S": "0.5*exp(-x)"}, "I": 0.1},
    "custom-star-violated": {"family": "custom", "exprs": {"W": "0", "S": "1/(1+x)"}},
    "custom-indicator": {"family": "custom", "exprs": {"W": "le(x*y, 1)"}},
}
CHECK_GOLDEN = {
    "caron-fox": "4efb960b9c7a12b615557df21693d649f8dd6f0335838f4fbc613d394e5d1f30",
    "caron-fox-self": "8e4f4686ae2dee4c042f9f2a4aacaef920a511d4c58edb160e8bb689461c8255",
    "custom-exp": "8dcd1ea737d34004744bc41cfd9b8bb58549009831d9e33e98b363dcbc0d59ae",
    "custom-indicator": "a1cdf948cd05b604b7f5ee4f702c04aab7b73ac7816ae7ee17e585314198650e",
    "custom-recipe": "53abc58df5e5f5cbcf90594b380fe7aaa75962b1432a07fdfa8bf7e4ad394e1d",
    "custom-star-violated": "77b25a4a61c798d4fda105f85e0822aa9aa6b769cac4a0273c3cbb28c053f09b",
}


@pytest.mark.frozen
@pytest.mark.parametrize("case", sorted(CHECK_CASES))
def test_check_report_bytes_are_frozen(case, tmp_path):
    path = tmp_path / "check.json"
    write_json(check_local_finiteness(build(CHECK_CASES[case])).to_dict(), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CHECK_GOLDEN[case]
