"""CLI contract: commands, exit codes, determinism, config handling."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest

from springer_rca import Params, verify
from springer_rca.cli import main
from springer_rca.linalg import RatMat
from springer_rca.verify import stabilization_degree


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fixed_points_json(capsys):
    code, out, _ = run_cli(
        capsys, "fixed-points", "--n", "2", "--k", "3", "--max-degree", "3",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "fixed-points"
    assert payload["params"] == {"n": 2, "k": 3, "max_degree": 3}
    assert payload["results"]["counts"] == [1, 1, 2, 2]
    assert payload["results"]["strata"][2]["labels"] == [[0, 2], [1, 1]]
    assert "version" in payload


def test_fixed_points_degree_zero(capsys):
    code, out, _ = run_cli(
        capsys, "fixed-points", "--n", "2", "--k", "3", "--max-degree", "0"
    )
    assert code == 0
    assert json.loads(out)["results"]["strata"][0]["labels"] == [[0, 0]]


NON_COPRIME = {
    "fixed-points": ["fixed-points", "--n", "2", "--k", "4", "--max-degree", "3"],
    "operator X": ["operator", "--op", "X", "--n", "2", "--k", "4", "--max-degree", "3"],
    **{
        f"verify {suite}": [
            "verify", "--suite", suite, "--n", "2", "--k", "4", "--max-degree", "5",
        ]
        for suite in (*verify.SUITES, "all")
    },
}


@pytest.mark.parametrize("argv", NON_COPRIME.values(), ids=NON_COPRIME.keys())
def test_non_coprime_exits_3(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: unsupported parameters: ")
    assert "not isolated" in err


# each non-coprime command line with one of its required options left out;
# verify --suite stabilizer takes no --max-degree
MISSING_OPTION = {
    f"{name} without {option}": (argv, option)
    for name, argv in NON_COPRIME.items()
    for option in ("--max-degree", "--op", "--suite")
    if option in argv and not (option == "--max-degree" and "stabilizer" in argv)
}


@pytest.mark.parametrize(
    "argv,option", MISSING_OPTION.values(), ids=MISSING_OPTION.keys()
)
def test_non_coprime_missing_option_exits_2(capsys, argv, option):
    # a missing required option is reported before the non-coprime (n, k)
    at = argv.index(option)
    code, out, err = run_cli(capsys, *argv[:at], *argv[at + 2 :])
    assert code == 2
    assert out == ""
    assert err == f"error: missing required option {option}\n"


def test_fixed_points_csv(capsys):
    code, out, _ = run_cli(
        capsys, "fixed-points", "--n", "2", "--k", "3", "--max-degree", "2",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "degree,index,label"
    assert lines[1] == "0,0,0 0"
    assert lines[-1] == "2,1,1 1"


def test_operator_x_blocks(capsys):
    code, out, _ = run_cli(
        capsys, "operator", "--op", "X", "--n", "2", "--k", "3",
        "--max-degree", "2",
    )
    assert code == 0
    payload = json.loads(out)
    blocks = payload["results"]["blocks"]
    assert blocks[0] == {"degree": 0, "rows": 1, "cols": 1, "entries": [[0, 0, "2"]]}
    assert payload["results"]["shift"] == 1


def test_operator_h_wrong_rank_exits_3(capsys):
    code, _, err = run_cli(
        capsys, "operator", "--op", "H", "--n", "3", "--k", "4", "--max-degree", "2"
    )
    assert code == 3
    assert "requires n = 2" in err


def test_operator_commutator_diagonal(capsys):
    code, out, _ = run_cli(
        capsys, "operator", "--op", "commutator-XY", "--n", "2", "--k", "3",
        "--max-degree", "4",
    )
    assert code == 0
    blocks = json.loads(out)["results"]["blocks"]
    for block in blocks:
        assert all(i == j and v == "2" for i, j, v in block["entries"])


def test_operator_fr_with_dressing(capsys):
    code, out, _ = run_cli(
        capsys, "operator", "--op", "Fr", "--r", "2", "--dress", "e1",
        "--n", "3", "--k", "4", "--max-degree", "4",
    )
    assert code == 0
    assert json.loads(out)["results"]["shift"] == -2


def test_operator_monopole_coweight(capsys):
    code, out, _ = run_cli(
        capsys, "operator", "--op", "monopole", "--coweight", "1,0",
        "--n", "2", "--k", "3", "--max-degree", "3",
    )
    assert code == 0
    x_code, x_out, _ = run_cli(
        capsys, "operator", "--op", "X", "--n", "2", "--k", "3", "--max-degree", "3"
    )
    assert json.loads(out)["results"]["blocks"] == json.loads(x_out)["results"]["blocks"]


def test_operator_usage_errors(capsys):
    code, _, err = run_cli(
        capsys, "operator", "--op", "Er", "--n", "2", "--k", "3", "--max-degree", "2"
    )
    assert code == 2 and "--r" in err
    code, _, err = run_cli(
        capsys, "operator", "--op", "monopole", "--coweight", "1,-1",
        "--n", "2", "--k", "3", "--max-degree", "2",
    )
    assert code == 2
    code, _, err = run_cli(
        capsys, "operator", "--op", "X", "--dress", "e1",
        "--n", "2", "--k", "3", "--max-degree", "2",
    )
    assert code == 2 and "dressing" in err


def test_bad_operator_name_exits_2(capsys):
    code = main(
        ["operator", "--op", "Q", "--n", "2", "--k", "3", "--max-degree", "2"]
    )
    capsys.readouterr()
    assert code == 2


def test_missing_required_option_exits_2(capsys):
    code, _, err = run_cli(capsys, "fixed-points", "--n", "2", "--k", "3")
    assert code == 2
    assert "--max-degree" in err


def test_verify_all_passes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "all", "--n", "2", "--k", "3",
        "--max-degree", "10",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["all_passed"] is True
    names = [entry["suite"] for entry in payload["results"]["suites"]]
    assert names == [
        "weyl", "sl2", "singular", "kernel-y", "appendix-b",
        "stabilizer", "euler", "oracle",
    ]


def test_verify_all_skips_rank_two_suites(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "all", "--n", "3", "--k", "4",
        "--max-degree", "9",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["skipped_suites"] == ["sl2", "appendix-b"]


@pytest.mark.parametrize("suite", ["sl2", "appendix-b"])
def test_verify_rank_two_suite_on_n_3_exits_3_before_its_degree(capsys, suite):
    code, out, err = run_cli(
        capsys, "verify", "--suite", suite, "--n", "3", "--k", "4", "--max-degree", "0"
    )
    assert code == 3
    assert out == ""
    assert "requires n = 2" in err


def test_verify_under_truncation_exits_4(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--suite", "kernel-y", "--n", "4", "--k", "5",
        "--max-degree", "8",
    )
    assert code == 4
    assert "16" in err


@pytest.mark.parametrize("suite", ["appendix-b", "all"])
def test_verify_rank_two_at_k_1_passes(capsys, suite):
    # l = 0: one explicit kernel vector and two lowest-weight classes
    code, out, err = run_cli(
        capsys, "verify", "--suite", suite, "--n", "2", "--k", "1", "--max-degree", "5"
    )
    assert code == 0, err
    assert json.loads(out)["results"]["all_passed"] is True


@pytest.mark.parametrize(
    "suite,k,max_degree,required",
    [("appendix-b", 7, 3, 8), ("appendix-b", 3, 1, 4), ("sl2", 3, 0, 1)],
)
def test_verify_low_truncation_exits_4(capsys, suite, k, max_degree, required):
    code, out, err = run_cli(
        capsys, "verify", "--suite", suite, "--n", "2", "--k", str(k),
        "--max-degree", str(max_degree),
    )
    assert code == 4
    assert out == ""
    assert err.startswith("error: under-truncation: ")
    assert f">= {required}," in err


@pytest.mark.parametrize("max_degree", [0, 1])
def test_verify_weyl_below_degree_2_exits_4(capsys, max_degree):
    # the relation is compared on degrees 0..D-2, so D < 2 would certify nothing
    code, out, err = run_cli(
        capsys, "verify", "--suite", "weyl", "--n", "3", "--k", "4",
        "--max-degree", str(max_degree),
    )
    assert code == 4
    assert out == ""
    assert err.startswith("error: under-truncation: ")
    assert ">= 2," in err


def _verify_payload(capsys, suite, n, k, max_degree):
    code, out, err = run_cli(
        capsys, "verify", "--suite", suite, "--n", str(n), "--k", str(k),
        "--max-degree", str(max_degree),
    )
    return code, json.loads(out) if out else None, err


def test_verify_all_runs_oracle_up_to_its_budget(capsys):
    # D = 24 was the oracle's colength budget; all still runs it there
    code, payload, err = _verify_payload(capsys, "all", 2, 3, 24)
    assert code == 0, err
    assert payload["results"]["skipped_suites"] == []
    assert payload["results"]["suites"][-1]["suite"] == "oracle"


def test_verify_all_runs_oracle_past_degree_24(capsys):
    code, payload, err = _verify_payload(capsys, "all", 2, 3, 25)
    assert code == 0, err
    assert payload["results"]["skipped_suites"] == []
    assert payload["results"]["suites"][-1]["suite"] == "oracle"
    code, payload, err = _verify_payload(capsys, "all", 3, 4, 25)
    assert code == 0, err
    assert payload["results"]["skipped_suites"] == ["sl2", "appendix-b"]


def test_verify_all_5_7_30_runs_kernel_y_and_oracle(capsys):
    # the stabilization degree of (5, 7) is 29, past the old D = 24 oracle cap
    code, payload, err = _verify_payload(capsys, "all", 5, 7, 30)
    assert code == 0, err
    assert payload["results"]["skipped_suites"] == ["sl2", "appendix-b"]
    suites = [entry["suite"] for entry in payload["results"]["suites"]]
    assert "kernel-y" in suites and "oracle" in suites
    assert payload["results"]["all_passed"] is True


def test_verify_all_skips_suites_below_their_least_degree(capsys):
    code, payload, err = _verify_payload(capsys, "all", 3, 4, 1)
    assert code == 0, err
    assert payload["results"]["skipped_suites"] == ["weyl", "sl2", "kernel-y", "appendix-b"]
    assert [entry["suite"] for entry in payload["results"]["suites"]] == [
        "singular", "stabilizer", "euler", "oracle",
    ]
    assert payload["results"]["all_passed"] is True


def test_verify_all_7_8_24_skips_kernel_y(capsys):
    # the stabilization degree of (7, 8) is 49: kernel-y is skipped up front
    code, payload, err = _verify_payload(capsys, "all", 7, 8, 24)
    assert code == 0, err
    assert payload["results"]["skipped_suites"] == ["sl2", "kernel-y", "appendix-b"]
    assert payload["results"]["all_passed"] is True
    assert payload["results"]["suites"][-1]["suite"] == "oracle"


@pytest.mark.parametrize("max_degree", [25, 40])
def test_verify_oracle_alone_past_degree_24(capsys, max_degree):
    code, payload, err = _verify_payload(capsys, "oracle", 2, 3, max_degree)
    assert code == 0, err
    (report,) = payload["results"]["suites"]
    assert report["status"] == "pass"
    assert len(report["details"]["ideal_counts"]) == max_degree + 1


def test_cli_import_loads_no_dataclasses_inspect_or_csv():
    # -S keeps site hooks out, so only the package's own imports count
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import springer_rca.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'csv'} & set(sys.modules)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_verify_all_builds_basis_and_each_operator_once(capsys, monkeypatch):
    calls = {"basis": 0, "operator": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(verify, "build_graded_basis", counted("basis", verify.build_graded_basis))
    monkeypatch.setattr(verify, "minuscule_monopole", counted("operator", verify.minuscule_monopole))
    monkeypatch.setattr(verify, "operator_h", counted("operator", verify.operator_h))
    code, _, err = _verify_payload(capsys, "all", 2, 3, 8)
    assert code == 0, err
    # X, Y = F_1, E_2, F_2 and H
    assert calls == {"basis": 1, "operator": 5}


SWEEP = [(n, k) for n in range(1, 4) for k in range(1, 8) if gcd(n, k) == 1]


@pytest.mark.parametrize("n,k", SWEEP)
def test_verify_all_matches_each_suite_alone(capsys, n, k):
    max_degree = max(stabilization_degree(Params(n, k)), k + 1)
    code, payload, err = _verify_payload(capsys, "all", n, k, max_degree)
    assert code == 0, err
    for entry in payload["results"]["suites"]:
        name = entry["suite"]
        alone_code, alone, _ = _verify_payload(capsys, name, n, k, max_degree)
        assert alone_code == 0
        assert alone["results"]["suites"] == [entry], name


def test_verify_oracle(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "oracle", "--n", "3", "--k", "4",
        "--max-degree", "6",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["suites"][0]["details"]["ideal_counts"] == [
        1, 1, 2, 3, 4, 4, 5,
    ]


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "fixed-points", "--n", "2", "--k", "3", "--max-degree", "2",
        "--output", str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["results"]["counts"] == [1, 1, 2]


def test_config_file(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("n = 2\nk = 3\nmax_degree = 3\nformat = json\n# comment\n")
    code, out, _ = run_cli(capsys, "fixed-points", "--config", str(config))
    assert code == 0
    assert json.loads(out)["results"]["counts"] == [1, 1, 2, 2]
    # explicit flags win over the config file
    code, out, _ = run_cli(
        capsys, "fixed-points", "--config", str(config), "--max-degree", "1"
    )
    assert json.loads(out)["results"]["counts"] == [1, 1]


def test_config_file_bad_key(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("nope = 1\n")
    code, _, err = run_cli(capsys, "fixed-points", "--config", str(config))
    assert code == 2
    assert "nope" in err


def test_verify_csv(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "weyl", "--n", "2", "--k", "3",
        "--max-degree", "8", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "suite,status,claim"
    assert lines[1].startswith("weyl,pass,")


def test_verify_invariant_violation_exits_5(capsys, monkeypatch):
    # Y has a nonzero kernel at degree 2, so its exact nullspace runs there
    monkeypatch.setattr(
        RatMat, "nullspace", lambda self: [[Fraction(1)] * self.ncols]
    )
    code, out, err = run_cli(
        capsys, "verify", "--suite", "kernel-y", "--n", "2", "--k", "3",
        "--max-degree", "4",
    )
    assert code == 5
    assert out == ""
    assert err.startswith("error: invariant violated: ")


BAD_INPUTS = {
    "verify negative degree": (
        ["verify", "--suite", "weyl", "--n", "2", "--k", "3", "--max-degree", "-1"], None,
    ),
    "operator negative degree": (
        ["operator", "--op", "X", "--n", "2", "--k", "3", "--max-degree", "-1"], None,
    ),
    "fixed-points negative degree": (
        ["fixed-points", "--n", "2", "--k", "3", "--max-degree", "-1"], None,
    ),
    "oracle negative degree": (
        ["verify", "--suite", "oracle", "--n", "2", "--k", "3", "--max-degree", "-2"], None,
    ),
    "non-integer config value": (
        ["fixed-points", "--k", "3"], "n = two\nmax_degree = 3\n",
    ),
    "threads config key": (
        ["verify", "--suite", "weyl", "--n", "2", "--k", "3", "--max-degree", "4"],
        "threads = 2\n",
    ),
    "config suite outside its choices": (
        ["verify", "--n", "2", "--k", "3", "--max-degree", "4"], "suite = bogus\n",
    ),
    "config format outside its choices": (
        ["fixed-points", "--n", "2", "--k", "3", "--max-degree", "2"], "format = xml\n",
    ),
    "command config key": (
        ["fixed-points", "--n", "3", "--k", "4", "--max-degree", "1"], "command = verify\n",
    ),
    "config key naming a config file": (
        ["fixed-points", "--n", "3", "--k", "4", "--max-degree", "1"],
        "config = /nonexistent\n",
    ),
    "bad config value under a flag": (
        ["fixed-points", "--n", "2", "--k", "3", "--max-degree", "1"], "n = two\n",
    ),
    "output into a missing directory": (
        [
            "fixed-points", "--n", "2", "--k", "3", "--max-degree", "1",
            "--output", os.path.join(os.path.dirname(__file__), "missing", "out.json"),
        ],
        None,
    ),
}


@pytest.mark.parametrize("argv,config", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_exits_2(argv, config, tmp_path, capsys):
    if config:
        path = tmp_path / "run.cfg"
        path.write_text(config)
        argv = argv + ["--config", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
