import hashlib
import json
import math
import subprocess
import sys

import pytest

from graphex.cli import EXIT_CONFIG, EXIT_FAIL, EXIT_OK, main

FAST = '{"family": "fast-decay"}'
CONST = '{"family": "constant", "params": {"p": 0.5, "c": 2.0}}'


def run(*argv):
    return main(list(argv))


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "graphex 0.1.0"


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run()
    assert exc.value.code == 2


# --------------------------------------------------------------------------
# sample
# --------------------------------------------------------------------------

def test_sample_deterministic_files(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ("sample", "--graphex", FAST, "--nu", "10", "--seed", "42")
    assert run(*argv, "--out", str(out1)) == EXIT_OK
    assert run(*argv, "--out", str(out2)) == EXIT_OK
    data = out1.read_bytes()
    assert data == out2.read_bytes()
    lines = data.decode().strip().split("\n")
    assert lines[0] == "u_index,v_index,u_label,v_label,provenance"
    assert len(lines) > 1
    # another seed gives another graph
    out3 = tmp_path / "c.csv"
    assert run("sample", "--graphex", FAST, "--nu", "10", "--seed", "43",
               "--out", str(out3)) == EXIT_OK
    assert out3.read_bytes() != data


def test_sample_caron_fox_is_frozen(tmp_path):
    # no closed-form marginal: the cutoff comes from the separable majorant
    # 2 ||g||_1 (integral of g past a), and this digest pins it (theta_max
    # 13.5927734375, as the nested tail of the marginal gave) with the whole
    # draw of the Caron-Fox construction
    out, meta = tmp_path / "e.csv", tmp_path / "meta.json"
    assert run("sample", "--graphex", '{"family": "caron-fox"}', "--nu", "20",
               "--seed", "1", "--out", str(out), "--meta-out", str(meta)) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "de4da543109f04a8b1a81b2b6432981868bc78ec30c92ffc2adf7d8f2aaf43cf"
    assert hashlib.sha256(meta.read_bytes()).hexdigest() == \
        "ab3530f4e87cbf28e2ca8bd27ec9cc4cdbbf182395db89003c64126d71f4952f"


def test_sample_nu_zero_writes_header_only(tmp_path, capsys):
    assert run("sample", "--graphex", FAST, "--nu", "0", "--seed", "1") == EXIT_OK
    assert capsys.readouterr().out == "u_index,v_index,u_label,v_label,provenance\n"


def test_sample_sidecars(tmp_path):
    meta = tmp_path / "meta.json"
    latent = tmp_path / "latent.csv"
    assert run("sample", "--graphex", FAST, "--nu", "8", "--seed", "7",
               "--out", str(tmp_path / "e.csv"),
               "--latent-out", str(latent), "--meta-out", str(meta)) == EXIT_OK
    md = json.loads(meta.read_text())
    assert set(md) == {"nu", "seed", "theta_max", "epsilon", "vertices",
                       "edges", "edges_by_provenance"}
    assert md["nu"] == 8.0 and md["seed"] == 7
    assert md["theta_max"] == pytest.approx(math.log(8.0 ** 2 / 1e-3), rel=1e-6)
    lat_lines = latent.read_text().strip().split("\n")
    assert lat_lines[0] == "vertex_index,latent"
    assert len(lat_lines) == 1 + md["vertices"]


def test_sample_graphex_from_file(tmp_path):
    decl = tmp_path / "g.json"
    decl.write_text(FAST)
    out = tmp_path / "e.csv"
    assert run("sample", "--graphex", str(decl), "--nu", "5", "--seed", "1",
               "--out", str(out)) == EXIT_OK
    inline = tmp_path / "e2.csv"
    assert run("sample", "--graphex", FAST, "--nu", "5", "--seed", "1",
               "--out", str(inline)) == EXIT_OK
    assert out.read_bytes() == inline.read_bytes()


def test_sample_impossible_request_is_config_error(tmp_path, capsys):
    # slow tail at nu=100 wants ~3e8 latent points: refused, not attempted
    code = run("sample", "--graphex", '{"family": "slow-decay"}',
               "--nu", "100", "--seed", "0")
    assert code == EXIT_CONFIG
    assert "graphex: error:" in capsys.readouterr().err


def test_an_expression_error_at_a_quadrature_node_is_config_error(capsys):
    # g divides by zero at x = 1, off the probe grid that build vets, so the
    # build succeeds and the cutoff's quadrature meets the error
    decl = '{"family": "caron-fox", "exprs": {"g": "exp(-x)/abs(x-1)"}}'
    code = run("sample", "--graphex", decl, "--nu", "5", "--seed", "0")
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("graphex: error:") == 1 and "division by zero" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("validate", "--nus", "3", "--z-crit", "nan"),
    ("projectivity", "--nu", "3", "--p-floor", "2"),
    ("connectivity", "--nus", "3", "--threshold", "nan"),
])
def test_a_verdict_level_out_of_range_is_config_error(argv, capsys):
    code = run(argv[0], "--graphex", FAST, *argv[1:], "--replicates", "30", "--seed", "0")
    assert code == EXIT_CONFIG
    assert "graphex: error:" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-4"])
def test_bad_thread_count_is_config_error(capsys, threads):
    code = run("validate", "--graphex", FAST, "--nus", "3", "--replicates", "30",
               "--seed", "0", f"--threads={threads}")
    assert code == EXIT_CONFIG
    assert "threads must be None or an integer >= 1" in capsys.readouterr().err


# --------------------------------------------------------------------------
# expect / check
# --------------------------------------------------------------------------

def test_expect_edges_payload(capsys):
    assert run("expect", "--graphex", CONST, "--nu", "3") == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"statistic", "nu", "value", "components",
                            "error_estimate"}
    assert payload["statistic"] == "edges"
    assert payload["value"] == pytest.approx(9.0, rel=1e-9)


def test_expect_degk_requires_k(capsys):
    assert run("expect", "--graphex", FAST, "--nu", "2", "--stat", "degk",
               "--k", "1") == EXIT_OK
    assert json.loads(capsys.readouterr().out)["statistic"] == "degree_1"
    assert run("expect", "--graphex", FAST, "--nu", "2",
               "--stat", "degk") == EXIT_CONFIG


def test_check_exit_codes(tmp_path, capsys):
    assert run("check", "--graphex", '{"family": "slow-decay"}') == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["all_hold"] is True
    statuses = {c["key"]: c["status"] for c in report["conditions"]}
    assert statuses["isolated_rate_finite"] == "holds-analytic"

    bad = '{"family": "custom", "exprs": {"W": "0", "S": "1/(1+x)"}}'
    out = tmp_path / "check.json"
    assert run("check", "--graphex", bad, "--out", str(out)) == EXIT_FAIL
    report = json.loads(out.read_text())
    assert report["any_violated"] is True


# --------------------------------------------------------------------------
# experiments (small runs, fixed seeds)
# --------------------------------------------------------------------------

def test_validate_pass_and_fail(tmp_path):
    out = tmp_path / "v.json"
    csv = tmp_path / "v.csv"
    argv = ("validate", "--graphex", FAST, "--nus", "3", "--replicates", "60",
            "--seed", "101", "--stats", "edges,vertices")
    assert run(*argv, "--out", str(out), "--csv", str(csv)) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["all_ok"] is True
    assert csv.read_text().startswith("statistic,nu,replicates,")
    # an absurd z threshold flips the verdict, not the computation
    assert run(*argv, "--z-crit", "0.0001", "--out", str(out)) == EXIT_FAIL


def test_degdist_pass_and_fail(tmp_path):
    out = tmp_path / "d.json"
    ok = ("degdist", "--graphex", FAST, "--nus", "5,50", "--replicates", "40",
          "--seed", "202", "--k", "1", "--out", str(out))
    assert run(*ok) == EXIT_OK
    assert json.loads(out.read_text())["gaps_shrink"] is True
    # reversed grid: the gap grows, the experiment reports failure
    rev = ("degdist", "--graphex", FAST, "--nus", "50,5", "--replicates", "40",
           "--seed", "202", "--k", "1", "--out", str(out))
    assert run(*rev) == EXIT_FAIL


def test_degdist_flag_exclusivity():
    with pytest.raises(SystemExit) as exc:
        run("degdist", "--graphex", FAST, "--nus", "5", "--seed", "0")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run("degdist", "--graphex", FAST, "--nus", "5", "--seed", "0",
            "--k", "1", "--beta", "0.5")
    assert exc.value.code == 2


def test_connectivity_exit_codes(tmp_path):
    out = tmp_path / "c.json"
    base = ("connectivity", "--graphex", FAST, "--nus", "5,30",
            "--replicates", "30", "--seed", "303", "--out", str(out))
    assert run(*base, "--threshold", "0.5") == EXIT_OK
    assert run(*base, "--threshold", "0.999") == EXIT_FAIL


def test_connectivity_on_caron_fox(tmp_path):
    # no separable factor: the Caron-Fox construction draws the replicates
    out = tmp_path / "c.json"
    assert run("connectivity", "--graphex", '{"family": "caron-fox"}', "--nus", "10,40",
               "--replicates", "30", "--seed", "0", "--out", str(out)) == EXIT_OK
    rows = json.loads(out.read_text())["rows"]
    assert [r["rejected"] for r in rows] == [0, 0] and rows[-1]["mean_fraction"] >= 0.95


def test_projectivity_cli(tmp_path):
    out = tmp_path / "p.json"
    assert run("projectivity", "--graphex", FAST, "--nu", "3",
               "--replicates", "200", "--seed", "404",
               "--out", str(out)) == EXIT_OK
    assert json.loads(out.read_text())["ok"] is True


# --------------------------------------------------------------------------
# configuration errors
# --------------------------------------------------------------------------

@pytest.mark.parametrize("decl", [
    '{"family": "nope"}',
    '{"family": "constant", "params": {"p": 2.0, "c": 1.0}}',
    '{not json',
    "/does/not/exist.json",
])
def test_bad_graphex_is_config_error(decl, capsys):
    assert run("expect", "--graphex", decl, "--nu", "1") == EXIT_CONFIG
    assert "graphex: error:" in capsys.readouterr().err


def test_bad_nus_list():
    with pytest.raises(SystemExit) as exc:
        run("validate", "--graphex", FAST, "--nus", "abc", "--seed", "0")
    assert exc.value.code == 2


def test_console_script_installed():
    proc = subprocess.run(["graphex", "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "graphex 0.1.0"
    proc = subprocess.run(
        [sys.executable, "-c",
         "from graphex.cli import main; raise SystemExit(main(['--version']))"],
        capture_output=True, text=True)
    assert proc.returncode == 0
