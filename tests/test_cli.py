import hashlib
import json
import os
import random
import re
import subprocess
import sys

import pytest

import isotypic.characters as characters
import isotypic.gram as gram
from isotypic.cli import _all_digits, build_parser, main
from isotypic.linalg import VectorConfiguration
from isotypic.partitions import Partition
from isotypic.selfcheck import TrialSpec, VerificationReport, run_verification
from fresh_process import SRC, cli_modules, package_submodules
from oracles import character_fault, position_map_fault


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps({"dim": 2, "vectors": [["1", "0"], ["1", "0"], ["0", "1"]]})
    )
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_character_table_json(capsys):
    code, out, _ = run_cli(capsys, "character-table", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 3
    assert obj["classes"] == ["3", "2,1", "1,1,1"]
    assert obj["class_sizes"] == [2, 3, 1]
    assert obj["rows"]["2,1"] == [-1, 0, 2]


def test_character_table_pretty(capsys):
    code, out, _ = run_cli(capsys, "character-table", "3", "--pretty")
    assert code == 0
    assert "2,1" in out


def test_decide_all_methods(capsys, config_file):
    code, out, _ = run_cli(capsys, "decide", "--config", config_file, "--shape", "2,1")
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"appears", "certificate", "methods_agreed"}
    assert obj["appears"] is True
    assert obj["methods_agreed"] is True
    blocks = [sorted(b) for b in obj["certificate"]]
    assert sorted(len(b) for b in blocks) == [1, 2]


def test_decide_sparse_vectors_at_the_top_of_a_large_space(tmp_path):
    # the brute route reads a weight as a sorted tuple of indices, so three
    # standard basis vectors e_(D-2), e_(D-1), e_D of Q^D with D = 50000
    # build one weight block, and no number sized by D; a cold process
    # answers every method well within the timeout
    dim = 50_000
    vectors = [[int(j == i) for j in range(dim)] for i in range(dim - 3, dim)]
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"dim": dim, "vectors": vectors}))
    result = subprocess.run(
        [sys.executable, "-m", "isotypic", "decide", "--method", "all",
         "--config", str(config), "--shape", "2,1"],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=30,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {
        "appears": True, "certificate": [[1, 2], [3]], "methods_agreed": True
    }


def test_decide_single_method(capsys, config_file):
    for method, appears in [
        ("brute", False),
        ("gram", False),
        ("gamas", False),
        ("dominance", False),
    ]:
        code, out, _ = run_cli(
            capsys,
            "decide", "--config", config_file, "--shape", "1,1,1", "--method", method,
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["appears"] is appears
        assert obj["methods_agreed"] is True


def test_rank_partition_command(capsys, config_file):
    code, out, _ = run_cli(capsys, "rank-partition", "--config", config_file)
    assert code == 0
    assert json.loads(out) == {"rho": [2, 1], "covered": 3}


def test_symmetrize_command(capsys, config_file):
    code, out, _ = run_cli(
        capsys, "symmetrize", "--config", config_file, "--shape", "2,1"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 3 and obj["dim"] == 2
    assert obj["entries"] == [
        {"index": [1, 1, 2], "value": "2/3"},
        {"index": [1, 2, 1], "value": "-1/3"},
        {"index": [2, 1, 1], "value": "-1/3"},
    ]


def test_gmf_with_matrix_file(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"entries": [["1", "1", "1"]] * 3}))
    code, out, _ = run_cli(capsys, "gmf", "--matrix", str(path), "--shape", "2,1")
    assert code == 0
    assert json.loads(out) == {"value": "0"}


def test_gmf_with_config(capsys, config_file):
    # permanent of the Gram matrix [[1,1,0],[1,1,0],[0,0,1]]
    code, out, _ = run_cli(capsys, "gmf", "--config", config_file, "--shape", "3")
    assert code == 0
    assert json.loads(out) == {"value": "2"}


def test_gmf_requires_exactly_one_source(capsys, config_file):
    code, _, err = run_cli(capsys, "gmf", "--shape", "2,1")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "command, obj, shape, expected",
    [
        ("gmf", {"entries": [[1, 2], [3, 4], [5, 6]]}, "2,1", "matrix must be square, got 3x2"),
        ("gmf", {"entries": [[1, 2], [3, 4]]}, "2,1", "shape size 3 does not match matrix size 2"),
        ("gmf", {"entries": []}, "", "n must be at least 1"),
        ("gmf", {"entries": [[(i * j) % 5 - 2 for j in range(11)] for i in range(11)]}, "6,5",
         "degree 11 exceeds cap 10"),
        ("decide", {"dim": 2, "vectors": [[str(i), "1"] for i in range(11)]}, "6,5",
         "degree 11 exceeds cap 10"),
    ],
    ids=["not-square", "size-mismatch", "n=0", "gmf-n=11", "gram-decide-n=11"],
)
def test_gram_route_input_errors(capsys, tmp_path, monkeypatch, command, obj, shape, expected):
    # every input the gram route refuses exits 2 with its message, before
    # any sum is formed and without building the character table: the cap
    # is checked by the shape's character row
    def refused(*args):
        raise AssertionError("reached for a refused input")

    monkeypatch.setattr(gram, "_cycle_sums", refused)
    monkeypatch.setattr(characters, "character_table", refused)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    if command == "gmf":
        argv = ("gmf", "--matrix", str(path), "--shape", shape)
    else:
        argv = ("decide", "--config", str(path), "--shape", shape, "--method", "gram")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {expected}\n")


_THREE = {"dim": 2, "vectors": [["1", "0"], ["1", "0"], ["0", "1"]]}
_EMPTY = {"dim": 2, "vectors": []}
_ELEVEN = {"dim": 2, "vectors": [[str(i), "1"] for i in range(11)]}
_ROUTES = ("brute", "gram", "gamas", "dominance", "all", "symmetrize")
_CONFIG_KEYS = 'a configuration is a JSON object with keys "dim" and "vectors"'


def _mismatch(route, size, n):
    # the gram route names the Gram matrix, every other route the vectors
    return f"shape size {size} does not match " + (
        f"matrix size {n}" if route == "gram" else f"{n} vectors"
    )


# test id -> (route: a decide method, symmetrize or rank-partition, config,
# shape, message); rank-partition takes no shape
_ROUTE_ERRORS = {
    **{f"{r}-size-mismatch": (r, _THREE, "2", _mismatch(r, 2, 3)) for r in _ROUTES},
    **{f"{r}-empty": (r, _EMPTY, "", "n must be at least 1") for r in _ROUTES},
    **{f"{r}-empty-size-mismatch": (r, _EMPTY, "2,1", _mismatch(r, 3, 0)) for r in _ROUTES},
    **{f"{r}-n=11": (r, _ELEVEN, "6,5", "degree 11 exceeds cap 10")
       for r in ("brute", "all", "symmetrize")},
    "vectors-not-a-list": ("all", {"dim": 2, "vectors": "ab"}, "2",
                           "vectors must be a JSON list of vectors, got 'ab'"),
    "vector-not-a-list": ("all", {"dim": 2, "vectors": [["1", "0"], "10"]}, "2",
                          "vectors[1] must be a JSON list, got '10'"),
    "ragged-vector": ("all", {"dim": 2, "vectors": [["1", "0"], ["1"]]}, "2",
                      "vector of length 1 in dimension 2"),
    "float-entry": ("all", {"dim": 2, "vectors": [["1", "0"], [0.5, "1"]]}, "2",
                    "not an exact scalar: 0.5"),
    "bool-dim": ("all", {"dim": True, "vectors": [["1"]]}, "1",
                 "dimension must be a nonnegative integer, got True"),
    **{f"{r}-{label}-dim": (r, {"dim": dim, "vectors": [["1", "0"]]}, "1",
                            f"dimension must be a nonnegative integer, got {dim}")
       for r in ("all", "rank-partition") for label, dim in (("float", 2.9), ("negative", -3))},
    "rank-partition-bool-dim": ("rank-partition", {"dim": True, "vectors": [["1"]]}, None,
                                "dimension must be a nonnegative integer, got True"),
    "missing-dim": ("all", {"vectors": [["1", "0"]]}, "1", _CONFIG_KEYS),
    "missing-vectors": ("all", {"dim": 2}, "1", _CONFIG_KEYS),
    "shape-not-decreasing": ("all", _THREE, "1,2", "parts not weakly decreasing: (1, 2)"),
    "shape-not-integers": ("all", _THREE, "a", "a shape is comma-separated integers, got 'a'"),
    "symmetrize-shape-not-integers": (
        "symmetrize", _THREE, "a", "a shape is comma-separated integers, got 'a'"
    ),
}


@pytest.mark.parametrize(
    "route, obj, shape, expected", list(_ROUTE_ERRORS.values()), ids=list(_ROUTE_ERRORS)
)
def test_route_input_errors(capsys, tmp_path, route, obj, shape, expected):
    # every input a decide method, symmetrize or rank-partition refuses
    # exits 2 with its message and nothing on stdout; the empty
    # configuration is refused under every method alike
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    if route == "rank-partition":
        argv = ("rank-partition", "--config", str(path))
    elif route == "symmetrize":
        argv = ("symmetrize", "--config", str(path), "--shape", shape)
    else:
        argv = ("decide", "--config", str(path), "--shape", shape, "--method", route)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {expected}\n")


# 3 vectors in Q^2 with 2001-digit entries: every answer entry has over
# 4300 digits, Python's default limit for converting an int to str
_RNG = random.Random(35)
_BIG = {"dim": 2, "vectors": [[str(_RNG.randrange(10**2000, 10**2001)) for _ in range(2)]
                              for _ in range(3)]}


def _digit_limit():
    # CPython before 3.10.7 has no limit
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


@pytest.mark.parametrize(
    "argv",
    ["symmetrize --shape 2,1", "symmetrize --shape 2,1 --pretty",
     "gmf --shape 2,1", "gmf --shape 3 --pretty"],
)
def test_exact_answers_of_any_size_are_printed(capsys, tmp_path, argv):
    # the limit is lifted only while the answer is written, and restored
    path = tmp_path / "big.json"
    path.write_text(json.dumps(_BIG))
    limit = _digit_limit()
    code, out, err = run_cli(capsys, *argv.split(), "--config", str(path))
    assert (code, err) == (0, "")
    assert _digit_limit() == limit
    assert max(len(run) for run in re.findall(r"\d+", out)) > 4300
    if argv == "gmf --shape 2,1":
        cfg = VectorConfiguration.from_json_obj(_BIG)
        value = gram.generalized_matrix_function(gram.gram_matrix(cfg), Partition((2, 1)))
        with _all_digits():
            assert json.loads(out) == {"value": str(value)}


@pytest.mark.skipif(_digit_limit() is None, reason="no int-to-str digit limit before 3.10.7")
@pytest.mark.parametrize("command", ["symmetrize", "decide"])
def test_an_input_literal_past_the_digit_limit_is_refused(capsys, tmp_path, command):
    # the input limit bounds every answer: at most DEGREE_CAP factors of
    # at most 4300 digits each
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dim": 2, "vectors": [["1" * 4301, "1"], ["1", "0"]]}))
    code, out, err = run_cli(capsys, command, "--config", str(path), "--shape", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "4300" in err


@pytest.mark.parametrize(
    "argv",
    ["decide --shape 1 --config", "symmetrize --shape 1 --config",
     "rank-partition --config", "gmf --shape 1 --config", "gmf --shape 1 --matrix",
     "replay --report"],
)
def test_deeply_nested_json_is_an_input_error(capsys, tmp_path, argv):
    # the JSON decoder's RecursionError is a refused input, not a crash
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(capsys, *argv.split(), str(path))
    assert (code, out, err) == (2, "", f"error: {path}: JSON nested too deeply\n")


@pytest.mark.parametrize("argv", ["decide --shape 1 --config", "gmf --shape 1 --matrix"])
def test_an_empty_file_name_is_an_input_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split(), "")
    assert (code, out, err) == (2, "", "error: [Errno 2] No such file or directory: ''\n")


def test_missing_file_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "decide", "--config", "nope.json", "--shape", "2")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "option, obj, expected",
    [
        ("--config", [["1", "0"]], 'keys "dim" and "vectors"'),
        ("--config", {"vectors": [["1", "0"]]}, 'keys "dim" and "vectors"'),
        ("--config", {"dim": 2}, 'keys "dim" and "vectors"'),
        ("--matrix", {"rows": [["1"]]}, 'the key "entries"'),
        ("--matrix", [["1"]], 'the key "entries"'),
        ("--config", {"dim": 1, "vectors": "1"}, "vectors must be a JSON list of vectors, got '1'"),
        ("--config", {"dim": 2, "vectors": ["12"]}, "vectors[0] must be a JSON list, got '12'"),
        (
            "--config",
            {"dim": 2, "vectors": [{"1": 0, "0": 1}]},
            "vectors[0] must be a JSON list, got {'1': 0, '0': 1}",
        ),
        ("--config", {"dim": 1, "vectors": [None]}, "vectors[0] must be a JSON list, got None"),
        ("--matrix", {"entries": "1"}, "entries must be a JSON list of rows, got '1'"),
        ("--matrix", {"entries": ["1"]}, "entries[0] must be a JSON list, got '1'"),
        ("--matrix", {"entries": [None]}, "entries[0] must be a JSON list, got None"),
        ("--config", {"dim": 2, "vectors": [["1", None]]}, "not an exact scalar: None"),
        ("--config", {"dim": 2, "vectors": [["1", ["0"]]]}, "not an exact scalar: ['0']"),
        ("--config", {"dim": 1, "vectors": [[{"1": 0}]]}, "not an exact scalar: {'1': 0}"),
        # every entry is parsed before any length is checked
        ("--config", {"dim": 2, "vectors": [["1"], ["0", 0.5]]}, "not an exact scalar: 0.5"),
        (
            "--config",
            {"dim": 1, "vectors": [["1/0"]]},
            "zero denominator in rational literal: '1/0'",
        ),
        ("--config", {"dim": 1.5, "vectors": [["1"]]}, "dimension must be a nonnegative integer"),
        ("--matrix", {"entries": [[None]]}, "not an exact scalar: None"),
        ("--matrix", {"entries": [[["1"]]]}, "not an exact scalar: ['1']"),
        ("--matrix", {"entries": [["1/0"]]}, "zero denominator in rational literal: '1/0'"),
        ("--matrix", {"entries": [[]]}, "matrix must be square, got 1x0"),
        ("--matrix", {"entries": [["1", "2"]]}, "matrix must be square, got 1x2"),
    ],
    ids=[
        "config-list", "config-no-dim", "config-no-vectors", "matrix-no-entries", "matrix-list",
        "config-vectors-string", "config-vector-string", "config-vector-object",
        "config-vector-null", "matrix-entries-string", "matrix-row-string", "matrix-row-null",
        "config-entry-null", "config-entry-list", "config-entry-object",
        "config-float-after-short-vector", "config-zero-denominator", "config-dim-float",
        "matrix-entry-null", "matrix-entry-list", "matrix-zero-denominator", "matrix-empty-row",
        "matrix-not-square",
    ],
)
def test_malformed_json_input_is_usage_error(capsys, tmp_path, option, obj, expected):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "gmf", option, str(path), "--shape", "1")
    assert code == 2
    assert out == ""
    assert expected in err
    if option == "--config":
        code, out, err = run_cli(capsys, "rank-partition", "--config", str(path))
        assert (code, out) == (2, "")
        assert expected in err


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("selfcheck", "--dims", ""), "--dims must be comma-separated integers, got ''"),
        (("selfcheck", "--dims", "1,,2"), "--dims must be comma-separated integers, got '1,,2'"),
        (("selfcheck", "--dims", "2,2"), "dims must be distinct; repeated: 2"),
        (("decide", "--shape", "a"), "a shape is comma-separated integers, got 'a'"),
        (("symmetrize", "--shape", "2,x"), "a shape is comma-separated integers, got '2,x'"),
        (("gmf", "--shape", "1.5"), "a shape is comma-separated integers, got '1.5'"),
    ],
    ids=[
        "dims-empty", "dims-empty-item", "dims-repeated", "decide-shape", "symmetrize-shape",
        "gmf-shape",
    ],
)
def test_malformed_argument_is_usage_error(capsys, config_file, argv, expected):
    if argv[0] != "selfcheck":
        argv += ("--config", config_file)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {expected}\n"


def test_selfcheck_rejects_nonpositive_jobs(capsys):
    code, _, err = run_cli(capsys, "selfcheck", "--n-max", "1", "--jobs", "0")
    assert code == 2
    assert "jobs" in err


def test_selfcheck_rejects_entry_range_past_one_draw(capsys):
    code, out, err = run_cli(
        capsys, "selfcheck", "--n-max", "1", "--dims", "1", "--trials", "1",
        "--entry-range", str(2**63),
    )
    assert (code, out) == (2, "")
    assert "entry_range must be in 1..2**63 - 1" in err


def test_selfcheck_command_and_replay_cycle(capsys, tmp_path):
    code, out, err = run_cli(
        capsys,
        "selfcheck", "--n-max", "2", "--dims", "2", "--trials", "4",
    )
    assert code == 0
    report = json.loads(out)
    assert report["violations"] == []
    assert report["spec"]["n_max"] == 2
    assert "elapsed" in err

    # a faulted run produces violations (exit 1) and a replayable report
    with character_fault(Partition([2]), Partition([2])):
        code, out, _ = run_cli(
            capsys,
            "selfcheck", "--n-max", "2", "--dims", "2", "--trials", "4",
        )
        assert code == 1
        report_path = tmp_path / "report.json"
        report_path.write_text(out)

        # under the same fault the violation reproduces
        code, out, _ = run_cli(
            capsys, "replay", "--report", str(report_path), "--index", "0"
        )
        assert code == 1
        assert json.loads(out)["reproduced"] is True

    # without the fault the replayed trial passes
    code, out, _ = run_cli(
        capsys, "replay", "--report", str(report_path), "--index", "0"
    )
    assert code == 0
    assert json.loads(out)["reproduced"] is False


def test_replay_returns_the_replayed_suites_records(capsys, tmp_path):
    # every record of a faulted report replays: a trial record gives back
    # its trial's records of its suite, a standalone record its suite's
    # records, as the report lists them (sorted by n, then shape, stably)
    with position_map_fault():
        report = run_verification(TrialSpec(n_max=4)).to_json_obj()
        report_path = tmp_path / "report.json"
        report_path.write_text(json.dumps(report))
        records = report["violations"]
        kinds = set()
        for index, record in enumerate(records):
            code, out, _ = run_cli(
                capsys, "replay", "--report", str(report_path), "--index", str(index)
            )
            replayed = json.loads(out)
            trial = record["config"] is not None
            keys = ("suite", "n", "d", "trial_index") if trial else ("suite",)
            same = [r for r in records if all(r[k] == record[k] for k in keys)]
            fresh = sorted(replayed["violations"], key=lambda r: (r["n"], r["shape"] or ""))
            assert (code, replayed["reproduced"], replayed["record"]) == (1, True, record)
            assert fresh == same
            kinds.add(record["suite"] if not trial else "trial")
    assert kinds == {"trial", "idempotent_system"}


def test_replay_rejects_missing_violation(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "selfcheck", "--n-max", "1", "--dims", "1", "--trials", "1")
    assert code == 0
    report_path = tmp_path / "clean.json"
    report_path.write_text(out)
    for index in ("0", "-1"):
        code, out, err = run_cli(
            capsys, "replay", "--report", str(report_path), "--index", index
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "no violation" in err
    # a standalone record whose suite the harness does not know
    report = json.loads(report_path.read_text())
    report["violations"] = [
        {"suite": "bogus", "n": None, "d": None, "trial_index": None, "shape": None, "config": None}
    ]
    report_path.write_text(json.dumps(report))
    code, _, err = run_cli(capsys, "replay", "--report", str(report_path))
    assert code == 2
    assert "unknown suite" in err


def _without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


# the form of a standalone suite's record, which replays without a trial
_STANDALONE_RECORD = {
    "suite": "character_orthogonality", "n": None, "d": None, "trial_index": None, "shape": None,
    "config": None, "expected": 0, "actual": 1,
}


def _with_spec(report, **fields):
    """The report with a replayable record, so only the spec can stop it."""
    return dict(report, spec=dict(report["spec"], **fields), violations=[_STANDALONE_RECORD])


# a trial record of the default spec (n_max 5, dims 1..3, 50 trials per cell)
_TRIAL_RECORD = {
    "suite": "four_decider_agreement", "n": 1, "d": 1, "trial_index": 0, "shape": "1",
    "config": {"dim": 1, "vectors": [["1"]]}, "expected": "", "actual": "",
}


def _with_record(report, **fields):
    """The default spec with one trial record, changed only in the given fields."""
    return dict(
        report, spec=TrialSpec().to_json_obj(), violations=[dict(_TRIAL_RECORD, **fields)]
    )


@pytest.mark.parametrize(
    "mangle, expected",
    [
        (lambda report: [report], 'keys "spec" and "violations"'),
        (lambda report: {"violations": []}, 'keys "spec" and "violations"'),
        (lambda report: {"spec": report["spec"]}, 'keys "spec" and "violations"'),
        (lambda report: dict(report, spec=_without(report["spec"], "n_max")), "missing: n_max"),
        (lambda report: dict(report, spec=[]), "missing: seed, n_max"),
        (lambda report: _with_spec(report, entry_range=2.5), "entry_range must be an integer"),
        (lambda report: _with_spec(report, seed=True), "seed must be an integer"),
        (lambda report: _with_spec(report, n_max="3"), "n_max must be an integer"),
        (lambda report: _with_spec(report, dims=[1.5]), "dims must be integers"),
        (lambda report: _with_spec(report, dims=5), "dims must be a list of integers"),
        (lambda report: _with_spec(report, dims=[2, 2]), "dims must be distinct; repeated: 2"),
        (lambda report: _with_spec(report, p_zero=True), "p_zero must be a number"),
        (lambda report: dict(report, violations=5), "violations must be a list"),
        (lambda report: dict(report, violations=[5]), "violation #0 is a JSON object"),
        (
            lambda report: dict(report, violations=[_without(_STANDALONE_RECORD, "suite")]),
            "violation #0 is a JSON object with keys suite, n, d, trial_index, shape; "
            "missing: suite",
        ),
        (lambda report: _with_record(report, n="1"), "n must be an integer in 1..5, got '1'"),
        (lambda report: _with_record(report, n=6), "n must be an integer in 1..5, got 6"),
        (lambda report: _with_record(report, d=7), "d must be one of the dims 1, 2, 3, got 7"),
        (
            lambda report: _with_record(report, trial_index=-5),
            "trial_index must be an integer in 0..49, got -5",
        ),
        (
            lambda report: _with_record(report, trial_index=1000000),
            "trial_index must be an integer in 0..49, got 1000000",
        ),
        (lambda report: _with_record(report, suite=5), "unknown suite 5 for a trial record"),
        (
            lambda report: _with_record(report, suite="bogus"),
            "unknown suite 'bogus' for a trial record",
        ),
        (lambda report: _with_record(report, shape=5), "shape must be a string or null, got 5"),
        (
            lambda report: dict(report, violations=[dict(_STANDALONE_RECORD, suite=["x"])]),
            "violation #0: unknown suite ['x'] for a standalone record",
        ),
        (
            lambda report: dict(report, violations=[dict(_STANDALONE_RECORD, suite=7)]),
            "violation #0: unknown suite 7 for a standalone record",
        ),
    ],
    ids=[
        "list", "no-spec", "no-violations", "spec-no-n_max", "spec-list",
        "entry_range-float", "seed-bool", "n_max-str", "dims-float", "dims-int",
        "dims-repeated", "p_zero-bool", "violations-int", "violation-int", "violation-no-suite",
        "record-n-str", "record-n-above-n_max", "record-d-not-in-dims",
        "record-trial_index-negative", "record-trial_index-too-large", "record-suite-int",
        "record-suite-bogus", "record-shape-int", "standalone-suite-list",
        "standalone-suite-int",
    ],
)
def test_malformed_report_is_usage_error(capsys, tmp_path, mangle, expected):
    spec = TrialSpec(n_max=1, dims=(1,), trials_per_cell=1)
    report = {"spec": spec.to_json_obj(), "cells_run": 1, "trials_run": 1, "violations": []}
    path = tmp_path / "report.json"
    path.write_text(json.dumps(mangle(report)))
    code, out, err = run_cli(capsys, "replay", "--report", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and expected in err


# an entry of 200000 ints, a non-literal string of a million characters, a
# configuration whose vectors are that string, and a record whose shape is
# that list: each error line echoes the value, cut to a few entries
_HUGE_LIST, _HUGE_TEXT = list(range(200_000)), "x" * 1_000_000


@pytest.mark.parametrize(
    "command, obj",
    [
        ("decide", {"dim": 2, "vectors": [[_HUGE_LIST, "1"], ["1", "0"]]}),
        ("decide", {"dim": 2, "vectors": [[_HUGE_TEXT, "1"], ["1", "0"]]}),
        ("decide", {"dim": 2, "vectors": _HUGE_TEXT}),
        ("replay", _with_record({}, shape=_HUGE_LIST)),
    ],
    ids=["entry-list", "entry-text", "vectors-text", "record-shape-list"],
)
def test_oversized_input_gets_a_short_error_line(capsys, tmp_path, command, obj):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    if command == "replay":
        argv = ("replay", "--report", str(path))
    else:
        argv = ("decide", "--config", str(path), "--shape", "2")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and len(err.encode()) < 300


def test_selfcheck_defaults_are_the_default_spec(monkeypatch, capsys):
    specs = []

    def record_spec(spec, jobs):
        specs.append(spec)
        return VerificationReport(spec, cells_run=0, trials_run=0)

    monkeypatch.setattr("isotypic.selfcheck.run_verification", record_spec)
    args = build_parser().parse_args(["selfcheck"])
    assert args.func(args) == 0
    assert specs == [TrialSpec()]


def test_cli_import_leaves_the_process_pool_unloaded():
    # only selfcheck --jobs N>1 starts a pool, so no other command pays for
    # importing multiprocessing; a serial selfcheck loads every library module
    loaded = cli_modules("selfcheck", "--n-max", "1", "--jobs", "1")
    assert "isotypic.selfcheck" in loaded
    assert not {"multiprocessing", "concurrent.futures.process"} & loaded


@pytest.mark.parametrize(
    "argv, used, unused",
    [
        ("decide --shape 2,1 --method dominance", {"matroid"},
         {"brute", "characters", "gram", "symgroup", "tensors", "selfcheck"}),
        ("decide --shape 2,1 --method gamas", {"matroid"},
         {"brute", "characters", "gram", "symgroup", "tensors", "selfcheck"}),
        ("rank-partition", {"matroid"},
         {"brute", "characters", "gram", "symgroup", "tensors", "selfcheck"}),
        ("decide --shape 2,1 --method brute", {"brute"},
         {"tensors", "symgroup", "gram", "characters", "matroid", "selfcheck"}),
        ("decide --shape 2,1 --method gram", {"gram", "characters"},
         {"brute", "tensors", "symgroup", "selfcheck", "matroid"}),
        ("symmetrize --shape 2,1", {"brute"},
         {"tensors", "symgroup", "gram", "characters", "matroid", "selfcheck"}),
        ("gmf --shape 2,1", {"gram", "characters"},
         {"brute", "tensors", "symgroup", "selfcheck", "matroid"}),
        ("character-table 3", {"characters"},
         {"brute", "gram", "symgroup", "tensors", "matroid", "selfcheck"}),
    ],
)
def test_command_loads_only_its_modules(config_file, argv, used, unused):
    # a decide process spends about half its time starting up, so each
    # command imports only the library modules it calls, and only the
    # harness loads dataclasses and with it inspect
    argv = argv.split() + ([] if argv.startswith("character-table") else ["--config", config_file])
    loaded = cli_modules(*argv)
    assert used <= package_submodules(loaded)
    assert unused.isdisjoint(package_submodules(loaded))
    assert {"dataclasses", "inspect"}.isdisjoint(loaded)


def test_selfcheck_report_matches_library(capsys):
    code, out, _ = run_cli(
        capsys,
        "selfcheck", "--n-max", "2", "--dims", "1,2", "--trials", "3", "--seed", "5",
    )
    assert code == 0
    direct = run_verification(
        TrialSpec(seed=5, n_max=2, dims=(1, 2), trials_per_cell=3)
    )
    assert json.loads(out) == direct.to_json_obj()


# sha256 of the selfcheck report: the same spec gives the same bytes on any
# platform and for any number of workers
DEFAULT_REPORT = "5ebd389c9ab831104d5e4c2c31236511152c76ded4b2a554e343540d93b3a047"
N_MAX_6_REPORT = "8cc0fb848aea6870c90f6c08302858816e5800efb4a36bc33e8ae74f084b2df0"


@pytest.mark.parametrize(
    "argv, digest",
    [
        ("selfcheck --jobs 1", DEFAULT_REPORT),
        ("selfcheck --jobs 2", DEFAULT_REPORT),
        ("selfcheck --n-max 6", N_MAX_6_REPORT),
    ],
)
def test_selfcheck_report_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_pretty_flags_smoke(capsys, config_file):
    for argv in [
        ("decide", "--config", config_file, "--shape", "2,1", "--pretty"),
        ("rank-partition", "--config", config_file, "--pretty"),
        ("symmetrize", "--config", config_file, "--shape", "3", "--pretty"),
        ("gmf", "--config", config_file, "--shape", "3", "--pretty"),
    ]:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.strip()
