"""CLI contract: commands, exit codes, determinism, config handling."""

import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest

from springer_rca import Params, cli, operators, verify
from springer_rca.cli import main
from springer_rca.errors import DimensionError, TruncationError
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


# each row: the operator argv at (n, k, D) = (2, 3, 2), and a word of its error
OPERATOR_USAGE_ERRORS = {
    "Er without --r": (["--op", "Er"], "--r"),
    "--r 0": (["--op", "Er", "--r", "0"], "r = 0"),
    "--r 3 at n = 2": (["--op", "Fr", "--r", "3"], "r = 3"),
    "X with --r": (["--op", "X", "--r", "1"], "--r"),
    "Er with --coweight": (["--op", "Er", "--r", "1", "--coweight", "1,0"], "--coweight"),
    "monopole with --r": (["--op", "monopole", "--coweight", "1,0", "--r", "1"], "--r"),
    "X with a dressing": (["--op", "X", "--dress", "e1"], "dressing"),
    "monopole without --coweight": (["--op", "monopole"], "--coweight"),
    "unparsable coweight": (["--op", "monopole", "--coweight=,"], "coweight"),
    "coweight of length 3": (["--op", "monopole", "--coweight", "1,0,0"], "length"),
    "non-minuscule coweight": (["--op", "monopole", "--coweight", "1,-1"], "minuscule"),
}


@pytest.mark.parametrize(
    "argv,word", OPERATOR_USAGE_ERRORS.values(), ids=OPERATOR_USAGE_ERRORS.keys()
)
def test_operator_usage_error_exits_2(capsys, argv, word):
    code, out, err = run_cli(
        capsys, "operator", *argv, "--n", "2", "--k", "3", "--max-degree", "2"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and word in err


@pytest.mark.parametrize("op", cli.OPERATORS)
def test_dress_1_is_no_dressing_for_every_operator(capsys, op):
    argv = ["operator", "--op", op, "--n", "2", "--k", "3", "--max-degree", "2"]
    needed = {"Er": ["--r", "1"], "Fr": ["--r", "2"], "monopole": ["--coweight", "0,1"]}
    argv += needed.get(op, [])
    plain = run_cli(capsys, *argv)
    assert plain[0] == 0
    assert run_cli(capsys, *argv, "--dress", "1") == plain


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


def test_verify_all_7_8_10_skips_kernel_y(capsys):
    # the stabilization degree of (7, 8) is 49: kernel-y is skipped up front
    code, payload, err = _verify_payload(capsys, "all", 7, 8, 10)
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


def test_module_entry_point_propagates_the_exit_code():
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = ["verify", "--suite", "kernel-y", "--n", "4", "--k", "5", "-D", "8"]
    result = subprocess.run(
        [sys.executable, "-m", "springer_rca.cli", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert result.returncode == 4, result.stderr
    assert result.stdout == ""
    assert result.stderr.startswith("error: under-truncation: ")


# command lines that no other test runs, each of which must pass
SMOKE_RUNS = [
    "verify --suite all --n 2 --k 1 --max-degree 6",
    "verify --suite singular --n 6 --k 7 --max-degree 36",
    "verify --suite oracle --n 7 --k 8 --max-degree 24",
    "verify --suite oracle --n 6 --k 11 --max-degree 56",
    "operator --op F --n 2 --k 5 --max-degree 8",
    "operator --op H --n 2 --k 5 --max-degree 8",
    "operator --op Fr --r 2 --dress e1 --n 3 --k 4 --max-degree 6",
    "operator --op Er --r 2 --dress e2 --n 4 --k 5 --max-degree 12",
    "operator --op monopole --coweight=-1,-1,0 --n 3 --k 4 --max-degree 8",
    "fixed-points --n 3 --k 4 --max-degree 10",
]


@pytest.mark.parametrize("line", SMOKE_RUNS)
def test_smoke_run_exits_0(capsys, line):
    code, out, err = run_cli(capsys, *line.split())
    assert code == 0, err
    assert json.loads(out)["command"] == line.split()[0]


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


def _planted(error):
    def planted(*args):
        raise error

    return planted


VERIFY_WEYL = ["verify", "--suite", "weyl", "--n", "2", "--k", "3", "--max-degree", "4"]
OPERATOR_E1 = ["operator", "--op", "Er", "--r", "1", "--n", "2", "--k", "3", "-D", "2"]


def _zero_gap_tables(weights, k):
    n = len(weights)
    return [0] * n * n, [0] * (n * n + n)


# name -> (module, name patched in it, replacement, argv, message).  The
# monopole build turns a plain ValueError into a usage error but passes a
# package error on, such as a DimensionError; an InvariantError is no
# ValueError, so a zero gap table passes it on as well.
PACKAGE_ERRORS = {
    "TruncationError": (
        verify, "_check_weyl_relation", _planted(TruncationError("planted")),
        VERIFY_WEYL, "planted",
    ),
    "DimensionError": (
        verify, "_check_weyl_relation", _planted(DimensionError("planted")),
        VERIFY_WEYL, "planted",
    ),
    "DimensionError in a monopole build": (
        operators, "gap_table", _planted(DimensionError("planted")),
        OPERATOR_E1, "planted",
    ),
    "zero gap tables in a monopole build": (
        operators, "gap_table", _zero_gap_tables,
        OPERATOR_E1, "zero denominator for (0, 0)",
    ),
}


@pytest.mark.parametrize(
    "module,name,replacement,argv,message",
    PACKAGE_ERRORS.values(),
    ids=PACKAGE_ERRORS.keys(),
)
def test_every_package_error_exits_5(
    capsys, monkeypatch, module, name, replacement, argv, message
):
    monkeypatch.setattr(module, name, replacement)
    code, out, err = run_cli(capsys, *argv)
    assert code == 5
    assert out == ""
    assert err == f"error: invariant violated: {message}\n"


NEGATIVE_DEGREE = "--max-degree must be nonnegative"
NOT_AN_INTEGER = "config key 'n' must be an integer, got 'two'"
# name -> (argv, config file text or bytes or None, start of the error line
# after "error: ", with {path} the config file's path)
BAD_INPUTS = {
    "verify negative degree": (
        ["verify", "--suite", "weyl", "--n", "2", "--k", "3", "--max-degree", "-1"], None,
        NEGATIVE_DEGREE,
    ),
    "operator negative degree": (
        ["operator", "--op", "X", "--n", "2", "--k", "3", "--max-degree", "-1"], None,
        NEGATIVE_DEGREE,
    ),
    "fixed-points negative degree": (
        ["fixed-points", "--n", "2", "--k", "3", "--max-degree", "-1"], None,
        NEGATIVE_DEGREE,
    ),
    "oracle negative degree": (
        ["verify", "--suite", "oracle", "--n", "2", "--k", "3", "--max-degree", "-2"], None,
        NEGATIVE_DEGREE,
    ),
    "non-positive n": (
        ["fixed-points", "--n", "0", "--k", "3", "-D", "2"], None,
        "n and k must be positive, got (0, 3)",
    ),
    "non-integer config value": (
        ["fixed-points", "--k", "3"], "n = two\nmax_degree = 3\n", NOT_AN_INTEGER,
    ),
    "config line without =": (
        ["fixed-points", "--n", "2", "--k", "3", "-D", "2"], "max_degree 2\n",
        "{path}:1: expected key=value, got 'max_degree 2\\n'",
    ),
    "threads config key": (
        ["verify", "--suite", "weyl", "--n", "2", "--k", "3", "--max-degree", "4"],
        "threads = 2\n",
        "unknown config key 'threads'",
    ),
    "config suite outside its choices": (
        ["verify", "--n", "2", "--k", "3", "--max-degree", "4"], "suite = bogus\n",
        "config key 'suite' must be one of weyl, sl2, singular, kernel-y, "
        "appendix-b, stabilizer, euler, oracle, all, got 'bogus'",
    ),
    "config format outside its choices": (
        ["fixed-points", "--n", "2", "--k", "3", "--max-degree", "2"], "format = xml\n",
        "config key 'format' must be one of json, csv, got 'xml'",
    ),
    "command config key": (
        ["fixed-points", "--n", "3", "--k", "4", "--max-degree", "1"], "command = verify\n",
        "unknown config key 'command'",
    ),
    "config key naming a config file": (
        ["fixed-points", "--n", "3", "--k", "4", "--max-degree", "1"],
        "config = /nonexistent\n",
        "unknown config key 'config'",
    ),
    "bad config value under a flag": (
        ["fixed-points", "--n", "2", "--k", "3", "--max-degree", "1"], "n = two\n",
        NOT_AN_INTEGER,
    ),
    "config file that is not UTF-8": (
        ["fixed-points", "--n", "2", "--k", "3", "--max-degree", "2"],
        "max_degree = 2\n".encode("utf-16"),
        "{path}: config file is not UTF-8 text: ",
    ),
    "output into a missing directory": (
        [
            "fixed-points", "--n", "2", "--k", "3", "--max-degree", "1",
            "--output", os.path.join(os.path.dirname(__file__), "missing", "out.json"),
        ],
        None,
        "[Errno 2] ",
    ),
}


@pytest.mark.parametrize(
    "argv,config,message", BAD_INPUTS.values(), ids=BAD_INPUTS.keys()
)
def test_bad_input_exits_2(argv, config, message, tmp_path, capsys):
    path = tmp_path / "run.cfg"
    if config:
        if isinstance(config, bytes):
            path.write_bytes(config)
        else:
            path.write_text(config)
        argv = argv + ["--config", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: " + message.format(path=path))
    assert err.count("\n") == 1 and "Traceback" not in err


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_operator_commutator_reads_each_degree_once(capsys, monkeypatch):
    products = []
    matmul = RatMat.__matmul__

    def counted(self, other):
        products.append(1)
        return matmul(self, other)

    monkeypatch.setattr(RatMat, "__matmul__", counted)
    code, out, _ = run_cli(
        capsys, "operator", "--op", "commutator-XY", "--n", "3", "--k", "4",
        "--max-degree", "8",
    )
    assert code == 0
    # the report of the eagerly composing implementation, byte for byte
    assert _sha256(out) == (
        "ea2c08a789ad887bc247a621a8410707af8c4774ba3c50915904dea637a9099f"
    )
    # degrees 0..7, X Y and Y X once each; X Y at degree 0 composes nothing,
    # since Y maps it to the empty stratum
    assert len(json.loads(out)["results"]["blocks"]) == 8
    assert len(products) == 2 * 8 - 1


WRITER_CASES = {
    "operator": ("operator", "--op", "X", "--n", "3", "--k", "4", "--max-degree", "12"),
    "verify": ("verify", "--suite", "all", "--n", "2", "--k", "5", "--max-degree", "12"),
}


class _RawSink(io.RawIOBase):
    """A raw byte stream that keeps every write it is handed."""

    def __init__(self):
        self.writes = []

    def writable(self):
        return True

    def write(self, data):
        self.writes.append(bytes(data))
        return len(data)


@pytest.mark.parametrize("buffer_size", [1, 7, 4096])
@pytest.mark.parametrize("argv", WRITER_CASES.values(), ids=WRITER_CASES.keys())
def test_report_is_written_in_pieces_as_json_dumps_writes_it(
    argv, buffer_size, capsys, monkeypatch, tmp_path
):
    payloads = []
    make_payload = cli._payload

    def recorded(*args):
        payloads.append(make_payload(*args))
        return payloads[-1]

    monkeypatch.setattr(cli, "_payload", recorded)
    # stdout is a text layer over a byte buffer of `buffer_size` bytes, so the
    # encoder's chunks reach the raw stream split and joined at that size
    raw = _RawSink()
    text = io.TextIOWrapper(
        io.BufferedWriter(raw, buffer_size=buffer_size),
        encoding="utf-8", newline="\n", write_through=True,
    )
    writes = []

    class Recorder:
        def write(self, chunk):
            writes.append(chunk)
            return text.write(chunk)

    monkeypatch.setattr(sys, "stdout", Recorder())
    code = main(list(argv))
    monkeypatch.undo()
    text.flush()
    assert code == 0
    out = b"".join(raw.writes).decode("utf-8")
    [payload] = payloads
    assert out == json.dumps(payload, indent=2) + "\n"
    # one write per encoder chunk, then the final newline
    chunks = sum(1 for _ in json.JSONEncoder(indent=2).iterencode(payload))
    assert 1 < len(writes) == chunks + 1
    assert len(raw.writes) > 1
    target = tmp_path / "report.json"
    assert run_cli(capsys, *argv, "--output", str(target))[:2] == (0, "")
    assert target.read_text(encoding="utf-8") == out


# digests of CSV reports as the whole-string writer produced them
CSV_DIGESTS = {
    "operator --op Y --n 3 --k 4 --max-degree 10 --format csv":
        "88ee5ec58ded509903d545d38394df9d801feac8950c1b0f2aa9ec88e427f73a",
    "operator --op X --n 2 --k 3 --max-degree 4 --format csv":
        "f235c3a255416a62d99059a270ad52fb76eb2758c931e3d6b0c3d66885e0149f",
    "verify --suite all --n 2 --k 5 --max-degree 12 --format csv":
        "ac723ad6c391922291315f171fd873321c3e1b83542affbde2a7736694f8d97c",
}


@pytest.mark.parametrize("key,digest", CSV_DIGESTS.items(), ids=CSV_DIGESTS.keys())
def test_csv_reports_are_unchanged(key, digest, capsys, tmp_path):
    code, out, _ = run_cli(capsys, *key.split())
    assert code == 0
    assert _sha256(out) == digest
    target = tmp_path / "report.csv"
    assert run_cli(capsys, *key.split(), "--output", str(target))[:2] == (0, "")
    assert target.read_text(encoding="utf-8") == out


# dressed lowering reports: F_2[e1] twisted by hbar in Truncation, and the
# raw coweight route, which evaluates its dressing at phi as given
DRESSED_DIGESTS = {
    "operator --op Fr --r 2 --dress e1 --n 3 --k 4 --max-degree 8":
        "f9cc01317a81f536dd8873e665fd59a607b51c52d09be61ef8bf9c2f681eb4ee",
    "operator --op monopole --coweight=0,-1,-1 --dress e1 --n 3 --k 4 --max-degree 8":
        "ede8430f07b083a87fab44ae453c043ee4902fe616aabe95343a87d18a001647",
}


@pytest.mark.parametrize("key,digest", DRESSED_DIGESTS.items(), ids=DRESSED_DIGESTS.keys())
def test_dressed_lowering_reports_are_unchanged(key, digest, capsys):
    code, out, err = run_cli(capsys, *key.split())
    assert code == 0, err
    assert _sha256(out) == digest


GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "golden.json"
)
with open(GOLDEN_PATH, encoding="utf-8") as _golden:
    GOLDEN = json.load(_golden)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_report_matches_its_golden_digest(capsys, key):
    # every benchmark case's report, byte for byte, as the benchmark records it
    code, out, err = run_cli(capsys, *key.split())
    assert code == 0, err
    assert _sha256(out) == GOLDEN[key]
