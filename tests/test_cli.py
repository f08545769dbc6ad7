import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from causalpred import bounds, cli, stattests, synthgen
from causalpred.core import Query, QueryKind, enumerate_queries, load_dataset
from causalpred.learners import pc_fit
from causalpred.errors import ParseError
from causalpred.models import (
    Dag,
    PathModel,
    Polytree,
    cpdag_from_dag,
    d_separated,
    q_anm_polytree,
    save_model,
)
from oracles import PREFIX_KIND, format_query, labelled_pc_fit, ref_polytree_from_anm, ref_write_labels


# --- query grammar ------------------------------------------------------------


def test_parse_ci_with_and_without_conditioning():
    prefix, q = cli.parse_query("ci:0,2|1")
    assert prefix == "ci"
    assert q == Query.ci(0, 2, (1,))
    prefix, q = cli.parse_query("ci:3,1")
    assert q == Query.ci(1, 3)
    _, q = cli.parse_query("ci:0,1|")
    assert q.cond == ()


def test_parse_ordered_kinds():
    assert cli.parse_query("anm:2->0")[1] == Query.ordered_pair(2, 0)
    assert cli.parse_query("dir:0->3")[1] == Query.ordered_pair(0, 3)


def test_parse_pairs_and_tuples():
    assert cli.parse_query("corr:2,0")[1] == Query.unordered_pair(0, 2)
    assert cli.parse_query("sign:1,2")[1] == Query.unordered_pair(1, 2)
    assert cli.parse_query("lingam:2,0,1")[1] == Query.ordered_tuple(2, 0, 1)


@pytest.mark.parametrize(
    "bad", ["ci", "xx:0,1", "ci:0", "anm:0,1", "corr:0->1", "ci:a,b", "lingam:"]
)
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        cli.parse_query(bad)


_ids = st.integers(0, 300)


@st.composite
def _prefixed_queries(draw):
    prefix = draw(st.sampled_from(sorted(PREFIX_KIND)))
    kind = PREFIX_KIND[prefix]
    if kind == QueryKind.ORDERED_TUPLE:
        ids = draw(st.lists(_ids, min_size=1, max_size=6, unique=True))
        return prefix, Query.ordered_tuple(*ids)
    size = 2 + (draw(st.integers(0, 4)) if kind == QueryKind.COND_INDEP else 0)
    ids = draw(st.lists(_ids, min_size=size, max_size=size, unique=True))
    return prefix, Query(kind, tuple(ids[:2]), tuple(ids[2:]))


@given(_prefixed_queries())
def test_format_query_inverts_parse_query(prefixed):
    prefix, q = prefixed
    text = format_query(prefix, q)
    assert cli.parse_query(text) == (prefix, q)
    assert format_query(*cli.parse_query(text)) == text


def test_format_query_rejects_kind_mismatch():
    with pytest.raises(ParseError):
        format_query("ci", Query.ordered_pair(0, 1))


# --- exit codes ---------------------------------------------------------------


def test_no_arguments_usage(capsys):
    # a missing subcommand is a usage error like any other: one JSON
    # object on stderr and argparse's exit code 2
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    err = _one_json_object(capsys.readouterr().err)
    assert err["error"] == "UsageError"
    assert "required: command" in err["message"]


def test_parse_error_exit_code(capsys):
    assert cli.main(["predict", "--model", "nowhere.json", "--query", "zzz:1"]) == 1


def test_missing_file_exit_code(capsys):
    assert cli.main(["test", "--data", "no-such-file.csv", "--query", "ci:0,1"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert "error" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["test", "--query", "zzz:1"], "unknown query kind 'zzz'"),
        (["test", "--query", "dir:0->1"], "no statistical test for query kind 'dir'"),
        (["fit", "polytree", "--out", "m.json"], "polytree fitting needs --k"),
    ],
    ids=["test-unknown-kind", "test-kind-without-a-test", "fit-polytree-without-k"],
)
def test_test_and_fit_refuse_their_arguments_before_reading_the_data(
    tmp_path, monkeypatch, capsys, argv, message
):
    # as predict does: the data file does not exist, so reading it first would exit 2
    monkeypatch.chdir(tmp_path)
    assert cli.main([*argv, "--data", "no-such-file.csv"]) == 1
    assert _one_json_object(capsys.readouterr().err) == {"error": "ParseError", "message": message}


def _one_json_object(err):
    assert err.endswith("\n") and err.count("\n") == 1, err
    return json.loads(err)


@pytest.mark.parametrize("command", [["fit", "pc"], ["fit", "path"]], ids=["pc", "path"])
def test_constant_column_exit_code(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    rows = np.random.default_rng(0).standard_normal((50, 3))
    rows[:, 2] = 1.5
    (tmp_path / "d.csv").write_text(
        "0,1,2\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows.tolist())
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main([*command, "--data", "d.csv", "--out", "m.json"])
    assert rc == 2
    assert not caught
    err = _one_json_object(capsys.readouterr().err)
    assert err == {"error": "DegenerateInput", "message": "column 2 is constant"}


def _write_csv(path, rows):
    path.write_text(
        ",".join(map(str, range(len(rows[0])))) + "\n"
        + "".join(",".join(map(repr, r)) + "\n" for r in np.asarray(rows).tolist())
    )


@pytest.mark.parametrize(
    "command",
    [
        ["test", "--query", "anm:0->1"],
        ["test", "--query", "anm:1->0"],
        ["fit", "polytree", "--k", "2", "--out", "m.json"],
    ],
    ids=["test-source", "test-target", "fit-polytree"],
)
def test_overflowing_column_exit_code(tmp_path, monkeypatch, capsys, command):
    # squared distances between values near 1e160 overflow a double
    monkeypatch.chdir(tmp_path)
    rows = np.random.default_rng(1).standard_normal((60, 2))
    rows[:, 0] *= 1e160
    _write_csv(tmp_path / "d.csv", rows)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main([*command, "--data", "d.csv"])
    assert rc == 2
    assert not caught
    err = _one_json_object(capsys.readouterr().err)
    assert err["error"] == "DegenerateInput"
    assert "squared distances" in err["message"] and "overflow" in err["message"]


@pytest.mark.parametrize(
    "command",
    [["test", "--query", "ci:0,1|"], ["fit", "pc", "--out", "m.json"], ["fit", "path", "--out", "m.json"]],
    ids=["test-ci", "fit-pc", "fit-path"],
)
def test_overflowing_variance_exit_code(tmp_path, monkeypatch, capsys, command):
    # squares of values near 1e160 overflow a double; numpy's correlation
    # would then be 0 (p = 1, no edge removed, or a "zero correlation")
    monkeypatch.chdir(tmp_path)
    rows = np.random.default_rng(1).standard_normal((100, 3))
    rows[:, 0] *= 1e160
    _write_csv(tmp_path / "d.csv", rows)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main([*command, "--data", "d.csv"])
    assert rc == 2
    assert not caught
    err = _one_json_object(capsys.readouterr().err)
    assert err == {"error": "DegenerateInput", "message": "the variance of column 0 overflows; rescale it"}


@pytest.mark.parametrize(
    "command",
    [["test", "--query", "anm:0->1"], ["fit", "polytree", "--k", "1", "--out", "m.json"]],
    ids=["test", "fit-polytree"],
)
def test_anm_size_guard_refuses_before_allocating(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    rows = np.random.default_rng(2).standard_normal((stattests.MAX_ANM_ROWS + 1, 2))
    _write_csv(tmp_path / "d.csv", rows)

    def no_gram(*args, **kwargs):
        raise AssertionError("a Gram was built")

    monkeypatch.setattr(stattests, "_gram", no_gram)
    monkeypatch.setattr(stattests, "median_bandwidth", no_gram)
    assert cli.main([*command, "--data", "d.csv"]) == 2
    err = _one_json_object(capsys.readouterr().err)
    assert err["error"] == "InvalidSize"
    assert str(stattests.MAX_ANM_ROWS + 1) in err["message"]
    assert f"limit is {stattests.MAX_ANM_ROWS} rows" in err["message"]


@pytest.mark.parametrize("command", ["bound", "plan"])
def test_unknown_class_is_a_usage_error(capsys, command):
    args = [command, "--class", "foo", "--n", "10"] + (["--k", "100"] if command == "bound" else [])
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == 2
    err = _one_json_object(capsys.readouterr().err)
    assert err["error"] == "UsageError"
    assert "invalid choice: 'foo'" in err["message"]


@pytest.mark.parametrize(
    "text, error",
    [(text, "ParseError") for text in [
        '{"type": "dag", "n": 3}',
        '{"type": "dag", "n": 3, "directed": [[0]]}',
        "[1, 2]",
        "{not json",
        '{"type": "dag", "n": 1e400, "directed": []}',
        '{"type": "dag", "n": 3, "directed": [[0, 1e400]]}',
        '{"type": "dag", "n": 3.5, "directed": []}',
        '{"type": "dag", "n": 3, "directed": [[0.5, 1]]}',
        '{"type": "polytree", "n": 3, "directed": [["1", 0]]}',
        '{"type": "cpdag", "n": 3, "directed": [], "undirected": [[0, true]]}',
        '{"type": "path", "order": [1, 0.0], "r": [0.5]}',
        '{"type": "zzz", "n": 3, "directed": []}',
    ]] + [
        ('{"type": "cpdag", "n": 3, "directed": [], "undirected": [[0, 0], [5, 7]]}', "GraphError"),
    ],
    ids=["no-directed", "short-edge", "not-an-object", "not-json", "n-1e400", "id-1e400", "n-3.5",
         "id-0.5", "id-string", "id-bool", "path-id-float", "unknown-type", "cpdag-bad-undirected"],
)
def test_predict_on_a_malformed_model_file(tmp_path, capsys, text, error):
    # a ParseError, which the CLI reports with exit code 1; a graph that
    # parses but breaks the rules of its type is a GraphError, exit code 2
    path = tmp_path / "m.json"
    path.write_text(text)
    rc = cli.main(["predict", "--model", str(path), "--query", "ci:0,2|1"])
    assert rc == (1 if error == "ParseError" else 2)
    assert _one_json_object(capsys.readouterr().err)["error"] == error


def test_merge_on_a_malformed_file(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps([[1, 0.5], [0.5, 1]]))
    b.write_text("[[1, 0.4], [0.4")
    assert cli.main(["merge", str(a), str(b)]) == 1
    err = _one_json_object(capsys.readouterr().err)
    assert err["error"] == "ParseError" and str(b) in err["message"]


@pytest.mark.parametrize(
    "text",
    ["[[1, 2], [3]]", '"abc"', "{}", "[1, 2]", "[[[1, 0], [0, 1]]]", '[[1, "0.5"], [0.5, 1]]',
     "[[true, 0], [0, 1]]", "[[1, null], [0, 1]]", "[[1e400, 0], [0, 1]]", "[[NaN, 0], [0, 1]]",
     f"[[1{'0' * 400}, 0], [0, 1]]", "[]"],
    ids=["ragged", "string", "object", "vector", "3-d", "string-entry", "bool-entry", "null-entry",
         "inf-entry", "nan-entry", "int-past-double", "empty"],
)
def test_merge_on_json_that_is_not_a_numeric_matrix(tmp_path, capsys, text):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps([[1, 0.5], [0.5, 1]]))
    b.write_text(text)
    assert cli.main(["merge", str(a), str(b)]) == 1
    err = _one_json_object(capsys.readouterr().err)
    assert err["error"] == "ParseError" and str(b) in err["message"]


def test_merge_refuses_a_glued_covariance_that_overflows(tmp_path, capsys):
    a = tmp_path / "a.json"
    a.write_text(json.dumps([[1e300, 0.5e300], [0.5e300, 1e300]]))
    assert cli.main(["merge", str(a), str(a)]) == 2
    assert _one_json_object(capsys.readouterr().err)["error"] == "DegenerateInput"


@pytest.mark.parametrize("kind", ["linear", "gam"])
def test_gen_size_guard_refuses_before_allocating(tmp_path, monkeypatch, capsys, kind):
    def no_rng(*args, **kwargs):
        raise AssertionError("an SCM was drawn")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    n = synthgen.MAX_SCM_NODES + 1
    out = tmp_path / "d.csv"
    assert cli.main(["gen", kind, "--n", str(n), "--samples", "10", "--out", str(out)]) == 2
    err = _one_json_object(capsys.readouterr().err)
    assert err["error"] == "InvalidSize"
    assert str(n) in err["message"] and f"limit is {synthgen.MAX_SCM_NODES} nodes" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("kind", ["linear", "gam"])
def test_gen_samples_guard_refuses_before_allocating(tmp_path, monkeypatch, capsys, kind):
    def no_rng(*args, **kwargs):
        raise AssertionError("an SCM was drawn")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    samples = synthgen.MAX_SAMPLE_CELLS // 5 + 1
    out = tmp_path / "d.csv"
    assert cli.main(["gen", kind, "--n", "5", "--samples", str(samples), "--out", str(out)]) == 2
    err = _one_json_object(capsys.readouterr().err)
    assert err["error"] == "InvalidSize"
    assert f"{samples} samples of 5 variables" in err["message"]
    assert f"limit is {synthgen.MAX_SAMPLE_CELLS} cells" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--class", "alldags", "--n", str(10**400), "--k", "5"],
        ["plan", "--class", "polytrees", "--n", str(10**400)],
        ["bound", "--class", "pathcorr", "--n", "10", "--k", str(10**400)],
        ["bound", "--class", "alldags", "--n", str(10**200), "--k", "5"],
    ],
    ids=["bound-n", "plan-n", "bound-k", "bound-h"],
)
def test_bound_and_plan_refuse_numbers_a_double_cannot_hold(capsys, argv):
    assert cli.main(argv) == 2
    assert _one_json_object(capsys.readouterr().err)["error"] == "InvalidParams"


@pytest.mark.parametrize("risk", ["nan", "7", "-0.1", "inf", "x"])
def test_bound_empirical_risk_outside_0_1_is_a_usage_error(capsys, risk):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bound", "--class", "alldags", "--n", "10", "--k", "100", "--empirical", risk])
    assert exc.value.code == 2
    err = _one_json_object(capsys.readouterr().err)
    assert err["error"] == "UsageError" and "[0, 1]" in err["message"]


def test_bound_names_the_k_it_refuses(capsys):
    assert cli.main(["bound", "--class", "alldags", "--n", "3", "--k", "0"]) == 2
    err = _one_json_object(capsys.readouterr().err)
    assert err == {"error": "InvalidParams", "message": "need k >= 1, not 0"}


def test_bound_at_huge_k_stays_valid_json(capsys):
    # doubling k = 2^1023 overflows; the gap is still the formula's
    k = 2**1023
    assert cli.main(["bound", "--class", "polytrees", "--n", "10", "--k", str(k)]) == 0
    out = json.loads(capsys.readouterr().out, parse_constant=_not_json)
    h = bounds.vc_upper_bound(bounds.ModelClassId.POLYTREES, 10)
    want = 2.0 * math.sqrt((h * (math.log(2.0) + math.log(k / h) + 1.0) - math.log(0.1 / 9.0)) / k)
    assert out["gap"] == pytest.approx(want, rel=1e-12)


def test_plan_refuses_a_universe_past_the_largest_double(capsys):
    # C(999998, 500000) is about 10^301026, far past the largest double
    argv = ["plan", "--class", "polytrees", "--n", "1000000", "--cond-size", "500000"]
    assert cli.main(argv) == 2
    err = _one_json_object(capsys.readouterr().err)
    assert err == {"error": "InvalidSize", "message": "the universe holds more queries than a double can hold"}


@pytest.mark.parametrize(
    "query", ["ci:0,1|1000000000000000000000000000000", "ci:0,1000000000000000000000000000000|", "ci:0,1|-1"]
)
def test_predict_ci_on_a_node_outside_the_graph(tmp_path, capsys, query):
    # -1 is also the padding of a CI row, so it used to read as no condition
    path = tmp_path / "m.json"
    save_model(Dag(3, [(0, 1), (1, 2)]), path)
    assert cli.main(["predict", "--model", str(path), "--query", query]) == 2
    assert _one_json_object(capsys.readouterr().err)["error"] == "UnknownNode"


def test_fit_pc_names_column_ids_that_are_not_0_to_k_minus_1(tmp_path, capsys):
    rows = np.random.default_rng(3).standard_normal((50, 3))
    (tmp_path / "d.csv").write_text(
        "5,7,9\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows.tolist())
    )
    rc = cli.main(["fit", "pc", "--data", str(tmp_path / "d.csv"), "--out", str(tmp_path / "m.json")])
    assert rc == 2
    err = _one_json_object(capsys.readouterr().err)
    assert err == {
        "error": "DataError",
        "message": "PC needs column ids 0..2 in some order; ids [5, 7, 9] are outside",
    }


@pytest.mark.parametrize("model", ["pc", "path"])
def test_fit_refuses_a_single_column(tmp_path, capsys, model):
    # one column has a 0-d correlation matrix, which PC used to index
    rows = np.random.default_rng(3).standard_normal(50).tolist()
    (tmp_path / "d.csv").write_text("0\n" + "".join(f"{v!r}\n" for v in rows))
    rc = cli.main(["fit", model, "--data", str(tmp_path / "d.csv"), "--out", str(tmp_path / "m.json")])
    assert rc == 2
    err = _one_json_object(capsys.readouterr().err)
    assert err == {"error": "InvalidSize", "message": "need at least two variables"}
    assert not (tmp_path / "m.json").exists()


def test_fit_path_names_column_ids_that_are_not_0_to_k_minus_1(tmp_path, capsys):
    rows = np.random.default_rng(3).standard_normal((50, 2))
    (tmp_path / "d.csv").write_text(
        "3,7\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows.tolist())
    )
    rc = cli.main(["fit", "path", "--data", str(tmp_path / "d.csv"), "--out", str(tmp_path / "m.json")])
    assert rc == 2
    err = _one_json_object(capsys.readouterr().err)
    assert err == {
        "error": "DataError",
        "message": "a path model needs column ids 0..1 in some order; ids [3, 7] are outside",
    }


def test_cli_import_leaves_out_scipy_stats():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, causalpred.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


# --- subcommands --------------------------------------------------------------


@pytest.mark.parametrize("kind", ["linear", "gam"])
def test_predict_reads_the_truth_file_of_gen(tmp_path, capsys, kind):
    # seed 3 leaves node 5 isolated in both families, so the truth file
    # must carry n: its edges alone name nodes 0..4
    truth = tmp_path / "truth.json"
    args = ["--n", "6", "--degree", "1.0", "--samples", "30", "--seed", "3"]
    assert cli.main(["gen", kind, *args, "--out", str(tmp_path / "d.csv"), "--truth", str(truth)]) == 0
    capsys.readouterr()
    if kind == "linear":
        dag = synthgen.gen_linear_scm(6, 1.0, 3).dag()
    else:
        dag = synthgen.gen_gam_scm(6, 1.0, 3).dag
    assert 5 not in {v for e in dag.edges for v in e}
    queries = [q for size in (0, 1) for q in enumerate_queries(6, QueryKind.COND_INDEP, size)]
    for q in queries:
        assert cli.main(["predict", "--model", str(truth), "--query", format_query("ci", q)]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == d_separated(dag, q)
    # a gam truth is a polytree, which also answers additive-noise queries
    for q in enumerate_queries(6, QueryKind.ORDERED_PAIR):
        rc = cli.main(["predict", "--model", str(truth), "--query", format_query("anm", q)])
        if kind == "gam":
            assert rc == 0
            assert json.loads(capsys.readouterr().out)["value"] == q_anm_polytree(dag, q)
        else:
            assert rc == 1
            assert _one_json_object(capsys.readouterr().err)["error"] == "UnsupportedQueryForModel"


def test_gen_and_test_roundtrip(tmp_path, capsys):
    out = tmp_path / "d.csv"
    truth = tmp_path / "truth.json"
    rc = cli.main(
        [
            "gen", "linear", "--n", "4", "--degree", "1.5",
            "--samples", "500", "--seed", "3",
            "--out", str(out), "--truth", str(truth),
        ]
    )
    assert rc == 0
    info = json.loads(capsys.readouterr().out)
    assert info["n"] == 4 and info["l"] == 500
    d = load_dataset(out)
    assert d.l == 500 and d.samples.shape[1] == 4
    assert json.loads(truth.read_text())["type"] == "linear"

    rc = cli.main(["test", "--data", str(out), "--query", "ci:0,1|2", "--alpha", "0.05"])
    assert rc == 0
    result = json.loads(capsys.readouterr().out)
    assert result["tag"] == "binary"
    assert result["value"] in (0, 1)
    assert 0.0 <= result["p_value"] <= 1.0


def test_predict_chain_dag(tmp_path, capsys):
    path = tmp_path / "m.json"
    save_model(Dag(3, [(0, 1), (1, 2)]), path)
    assert cli.main(["predict", "--model", str(path), "--query", "ci:0,2|1"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 1
    assert cli.main(["predict", "--model", str(path), "--query", "dir:0->2"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 1
    assert cli.main(["predict", "--model", str(path), "--query", "lingam:0,1,2"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 1


def test_predict_polytree_missing_edge(tmp_path, capsys):
    path = tmp_path / "t.json"
    save_model(Polytree(3, [(0, 1), (1, 2)]), path)
    assert cli.main(["predict", "--model", str(path), "--query", "anm:2->0"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 0


def test_predict_path_model(tmp_path, capsys):
    path = tmp_path / "p.json"
    save_model(PathModel((0, 1, 2), (0.5, 0.4)), path)
    assert cli.main(["predict", "--model", str(path), "--query", "corr:0,2"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(0.2)
    assert cli.main(["predict", "--model", str(path), "--query", "sign:0,2"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 1


def test_predict_ci_on_a_long_path_model(tmp_path, capsys):
    # the implied chain's trail crosses every node
    n = 3000
    path = tmp_path / "p.json"
    save_model(PathModel(range(n), [0.5] * (n - 1)), path)
    for query, separated in ((f"ci:0,{n - 1}", 0), (f"ci:0,{n - 1}|{n // 2}", 1)):
        assert cli.main(["predict", "--model", str(path), "--query", query]) == 0
        assert json.loads(capsys.readouterr().out) == {"value": separated, "tag": "binary"}


def test_predict_unsupported_query_exit_code(tmp_path, capsys):
    path = tmp_path / "p.json"
    save_model(PathModel((0, 1), (0.5,)), path)
    assert cli.main(["predict", "--model", str(path), "--query", "anm:0->1"]) == 1


def test_predict_on_cpdag_names_the_models_that_answer(tmp_path, capsys):
    path = tmp_path / "cpdag.json"
    save_model(cpdag_from_dag(Dag(3, [(0, 1), (1, 2)])), path)
    assert cli.main(["predict", "--model", str(path), "--query", "ci:0,2|1"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "UnsupportedQueryForModel"
    for model in ("path", "polytree"):
        assert f"fit {model}" in err["message"]
        # the named command exists
        cli.build_parser().parse_args(["fit", model, "--data", "d.csv", "--out", "m.json"])


def test_plan_command_pathcorr_inverts_gap_real(capsys):
    rc = cli.main(["plan", "--class", "pathcorr", "--n", "10", "--eps", "0.1", "--eta", "0.1"])
    assert rc == 0
    k = json.loads(capsys.readouterr().out)["min_k"]
    h = bounds.vc_upper_bound(bounds.ModelClassId.PATH_CORR, 10)
    assert bounds.gap_real(h, k, 0.1, -1.0, 1.0) <= 0.1 < bounds.gap_real(h, k - 1, 0.1, -1.0, 1.0)


def test_fit_pc_end_to_end(tmp_path, capsys):
    data = tmp_path / "d.csv"
    cli.main(["gen", "linear", "--n", "5", "--samples", "4000", "--seed", "1", "--out", str(data)])
    capsys.readouterr()
    model = tmp_path / "m.json"
    labels = tmp_path / "labels.csv"
    rc = cli.main(
        ["fit", "pc", "--data", str(data), "--alpha", "0.01",
         "--out", str(model), "--labels", str(labels)]
    )
    assert rc == 0
    info = json.loads(capsys.readouterr().out)
    assert info["labels"] > 0
    assert json.loads(model.read_text())["type"] == "cpdag"
    assert labels.read_text().startswith("query,outcome,p_value")


def test_fit_pc_labels_parse_back_to_pc_log(tmp_path, capsys):
    data = tmp_path / "d.csv"
    cli.main(["gen", "linear", "--n", "5", "--samples", "2000", "--seed", "2", "--out", str(data)])
    labels = tmp_path / "labels.csv"
    rc = cli.main(
        ["fit", "pc", "--data", str(data), "--alpha", "0.01", "--max-cond", "2",
         "--out", str(tmp_path / "m.json"), "--labels", str(labels)]
    )
    assert rc == 0
    with open(labels, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["query", "outcome", "p_value"]
    assert all(len(row) == 3 for row in rows)
    _, log = pc_fit(load_dataset(data), 0.01, 2)
    assert any(lq.query.cond for lq in log)
    assert [(cli.parse_query(q), int(v), float(p)) for q, v, p in rows[1:]] == [
        (("ci", lq.query), lq.outcome.value.value, lq.outcome.p_value) for lq in log
    ]


def test_fit_pc_labels_keep_the_former_writers_bytes(tmp_path, capsys):
    # the rows are formatted from the log's arrays; the former writer
    # formatted one LabeledQuery per test, through format_query and repr
    data = tmp_path / "d.csv"
    cli.main(["gen", "linear", "--n", "5", "--samples", "5000", "--seed", "0", "--out", str(data)])
    labels = tmp_path / "labels.csv"
    rc = cli.main(
        ["fit", "pc", "--data", str(data), "--alpha", "0.01", "--max-cond", "2",
         "--out", str(tmp_path / "m.json"), "--labels", str(labels)]
    )
    assert rc == 0
    _, ref_log = labelled_pc_fit(load_dataset(data), 0.01, 2)
    p = [lq.outcome.p_value for lq in ref_log]
    assert 0.0 in p and any(0.0 < v < sys.float_info.min for v in p)  # zero and subnormal
    ref_write_labels(ref_log, tmp_path / "ref.csv")
    assert labels.read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_fit_polytree_labels_keep_the_former_writers_bytes(tmp_path, capsys):
    # the rows are formatted from the log's arrays, in drawn order
    data = tmp_path / "d.csv"
    cli.main(["gen", "gam", "--n", "5", "--samples", "300", "--seed", "2", "--out", str(data)])
    labels = tmp_path / "labels.csv"
    rc = cli.main(
        ["fit", "polytree", "--data", str(data), "--k", "15", "--alpha", "0.05", "--seed", "4",
         "--out", str(tmp_path / "m.json"), "--labels", str(labels)]
    )
    assert rc == 0
    _, ref_log = ref_polytree_from_anm(load_dataset(data), 15, 0.05, 4)
    assert {lq.outcome.value.value for lq in ref_log} == {0, 1}
    ref_write_labels(ref_log, tmp_path / "ref.csv")
    assert labels.read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "command",
    [["test", "--query", "ci:0,1|2"], ["fit", "pc", "--out", "m.json"]],
    ids=["test", "fit-pc"],
)
def test_non_finite_cell_exit_code(tmp_path, monkeypatch, capsys, cell, command):
    monkeypatch.chdir(tmp_path)
    rows = np.random.default_rng(0).standard_normal((50, 3)).tolist()
    rows[7][1] = cell
    (tmp_path / "d.csv").write_text(
        "0,1,2\n" + "".join(",".join(map(str, r)) + "\n" for r in rows)
    )
    assert cli.main([*command, "--data", "d.csv"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NonNumericCell"
    assert "row 8, column 1" in err["message"]


def test_bound_command_matches_gap_binary(capsys):
    rc = cli.main(
        ["bound", "--class", "alldags", "--n", "10", "--k", "1000",
         "--eta", "0.1", "--empirical", "0"]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    h = bounds.vc_upper_bound(bounds.ModelClassId.ALL_DAGS, 10)
    assert out["gap"] == pytest.approx(bounds.gap_binary(h, 1000, 0.1))
    assert out["bound"] == pytest.approx(out["gap"])


def test_bound_command_pathcorr_uses_gap_real(capsys):
    rc = cli.main(["bound", "--class", "pathcorr", "--n", "5", "--k", "5000", "--eta", "0.1"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    h = bounds.vc_upper_bound(bounds.ModelClassId.PATH_CORR, 5)
    assert out["gap"] == pytest.approx(bounds.gap_real(h, 5000, 0.1, -1.0, 1.0))
    assert out["gap"] != pytest.approx(bounds.gap_binary(h, 5000, 0.1))


@pytest.mark.parametrize(
    "model_class, possible",
    [("directionality", 90), ("pathsign", 45), ("pathcorr", 45), ("alldags", 360)],
)
def test_plan_command_universe_follows_class(capsys, model_class, possible):
    rc = cli.main(["plan", "--class", model_class, "--n", "10", "--eps", "0.2", "--eta", "0.1"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["possible_tests"] == possible
    assert out["fraction"] == pytest.approx(out["min_k"] / possible)


@pytest.mark.parametrize("model_class", cli.MODEL_CLASSES)
def test_plan_refuses_a_negative_cond_size_for_every_class(capsys, model_class):
    # pair classes ignore --cond-size, yet a negative one is refused for them too
    assert cli.main(["plan", "--class", model_class, "--n", "5", "--cond-size", "-7"]) == 2
    err = _one_json_object(capsys.readouterr().err)
    assert err == {"error": "InvalidSize", "message": "conditioning size -7 is negative"}


def test_plan_command(capsys):
    rc = cli.main(["plan", "--class", "polytrees", "--n", "10", "--eps", "0.1", "--eta", "0.1"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["possible_tests"] == 360
    assert out["min_k"] == bounds.min_training_sets(bounds.ModelClassId.POLYTREES, 10, 0.1, 0.1)
    assert out["fraction"] == pytest.approx(out["min_k"] / 360)


def test_merge_command(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps([[1, 0.5], [0.5, 1]]))
    b.write_text(json.dumps([[1, 0.4], [0.4, 1]]))
    assert cli.main(["merge", str(a), str(b)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["covariance"][0][2] == pytest.approx(0.2)


def test_merge_command_closes_its_files(tmp_path, monkeypatch, capsys):
    opened = []

    def tracking_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        opened.append(fh)
        return fh

    monkeypatch.setattr(cli, "open", tracking_open, raising=False)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps([[1, 0.5], [0.5, 1]]))
    b.write_text(json.dumps([[1, 0.4], [0.4, 1]]))
    assert cli.main(["merge", str(a), str(b)]) == 0
    assert len(opened) == 2
    assert all(fh.closed for fh in opened)


def test_merge_mismatch_exit_code(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps([[1, 0.5], [0.5, 1]]))
    b.write_text(json.dumps([[2, 0.4], [0.4, 2]]))
    assert cli.main(["merge", str(a), str(b)]) == 2


def test_experiment_command(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"experiment": "ci", "n": 5, "l": 1000, "repetitions": 2, "seed": 4})
    )
    out = tmp_path / "records.csv"
    assert cli.main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["records"] == 2
    assert out.exists()


@pytest.mark.parametrize(
    "text",
    [
        '{"experiment": "ci", "bogus": 1}',
        '{"n": 5}',
        "[1]",
        '{"experiment": "anm", "k_values": 3}',
        '{"experiment": "ci", "n": "20"}',
        '{"experiment": "ci", "repetitions": 1.5}',
        '{"experiment": "ci", "expected_degree": "x"}',
        '{"experiment": "anm", "k_values": "12"}',
        '{"experiment": "ci", "n": true}',
        '{"experiment": "ci", "oracle": 1}',
        '{"experiment": "anm", "k_values": [2], "bound_class": "foo"}',
    ],
    ids=["unknown-key", "missing-key", "not-an-object", "k-values-not-a-list", "n-string",
         "repetitions-float", "degree-string", "k-values-string", "n-bool", "oracle-int",
         "unknown-bound-class"],
)
def test_experiment_on_a_malformed_config(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert cli.main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 1
    assert _one_json_object(capsys.readouterr().err)["error"] == "ParseError"


@pytest.mark.parametrize(
    "text", ['{"nam": []}', "{bad", '["x", "y"]', '{"names": [["x"]]}'],
    ids=["no-names", "not-json", "not-an-object", "unhashable-name"],
)
def test_malformed_names_file(tmp_path, capsys, text):
    data, names = tmp_path / "d.csv", tmp_path / "names.json"
    _write_csv(data, np.random.default_rng(3).standard_normal((30, 2)))
    names.write_text(text)
    rc = cli.main(["test", "--data", str(data), "--names", str(names), "--query", "ci:0,1|"])
    assert rc == 1
    err = _one_json_object(capsys.readouterr().err)
    assert err["error"] == "ParseError" and str(names) in err["message"]


@pytest.mark.parametrize(
    "command", [["test", "--query", "ci:0,1|"], ["fit", "path", "--out", "m.json"]], ids=["test", "fit-path"]
)
def test_data_file_that_is_not_utf8_exits_2(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    data = tmp_path / "d.csv"
    data.write_bytes(b"0,1\n1.0,\xff\n")
    assert cli.main([*command, "--data", str(data)]) == 2
    err = _one_json_object(capsys.readouterr().err)
    assert err["error"] == "DataError"
    assert str(data) in err["message"] and "byte 8 " in err["message"]


def test_data_file_of_blank_lines_names_the_missing_header(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("\n\n")
    assert cli.main(["fit", "path", "--data", str(data), "--out", str(tmp_path / "m.json")]) == 2
    err = _one_json_object(capsys.readouterr().err)
    assert err["error"] == "InvalidSize" and "no header ids" in err["message"]


def test_a_graph_past_the_node_limit_is_refused(tmp_path, capsys):
    # one column id, or a model file's n, used to allocate a table per id
    rows = np.random.default_rng(0).standard_normal((100, 2)).tolist()
    (tmp_path / "d.csv").write_text("0,300000\n" + "".join(f"{a!r},{b!r}\n" for a, b in rows))
    argv = ["fit", "polytree", "--data", str(tmp_path / "d.csv"), "--k", "2", "--out", str(tmp_path / "m.json")]
    assert cli.main(argv) == 2
    err = _one_json_object(capsys.readouterr().err)
    assert err == {"error": "InvalidSize", "message": "a graph on 300001 nodes; the limit is 10000 nodes"}
    assert not (tmp_path / "m.json").exists()
    (tmp_path / "m.json").write_text('{"type": "dag", "n": 10001, "directed": [], "undirected": []}')
    assert cli.main(["predict", "--model", str(tmp_path / "m.json"), "--query", "anm:0->1"]) == 2
    err = _one_json_object(capsys.readouterr().err)
    assert err == {"error": "InvalidSize", "message": "a graph on 10001 nodes; the limit is 10000 nodes"}
    # a truth file of gen at its node limit still loads
    scm = synthgen.gen_gam_scm(synthgen.MAX_SCM_NODES, 1.5, 0)
    synthgen.save_truth(scm, tmp_path / "truth.json")
    s, t = min(scm.dag.edges)
    assert cli.main(["predict", "--model", str(tmp_path / "truth.json"), "--query", f"anm:{s}->{t}"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 1


def test_predict_on_a_model_with_negative_n_exits_2(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text('{"type": "dag", "n": -1, "directed": []}')
    assert cli.main(["predict", "--model", str(path), "--query", "ci:0,1|"]) == 2
    assert _one_json_object(capsys.readouterr().err)["error"] == "InvalidSize"


@pytest.mark.parametrize(
    "update",
    [
        {"seed": -1},
        {"alpha": 1.5, "oracle": True},
        {"k_values": [3]},
        {"experiment": "anm", "k_values": [2], "oracle": True, "max_cond": 3},
    ],
    ids=["negative-seed", "alpha-outside-0-1", "ci-with-k-values", "anm-with-oracle-and-max-cond"],
)
def test_experiment_on_invalid_config_params_exits_2(tmp_path, capsys, update):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "ci", "n": 3, "l": 40, "repetitions": 1, **update}))
    assert cli.main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 2
    assert _one_json_object(capsys.readouterr().err)["error"] == "InvalidParams"


def test_negative_seed_is_a_usage_error(tmp_path, capsys):
    # numpy refuses a negative seed; argparse refuses it first
    out = tmp_path / "d.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen", "linear", "--n", "3", "--samples", "10", "--seed", "-1", "--out", str(out)])
    assert exc.value.code == 2
    err = _one_json_object(capsys.readouterr().err)
    assert err["error"] == "UsageError" and "'-1'" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [
        ["gen", "linear", "--n", "3", "--samples", "10", "--out", "d.csv"],
        ["fit", "polytree", "--k", "2", "--data", "d.csv", "--out", "m.json"],
    ],
    ids=["gen", "fit"],
)
def test_bad_seed_env_variable_is_a_usage_error(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(cli.DEFAULT_SEED_ENV, "abc")
    with pytest.raises(SystemExit) as exc:
        cli.main(command)
    assert exc.value.code == 2
    err = _one_json_object(capsys.readouterr().err)
    assert err["error"] == "UsageError" and cli.DEFAULT_SEED_ENV in err["message"]
    # a command without --seed does not read the variable
    assert cli.main(["bound", "--class", "alldags", "--n", "5", "--k", "10"]) == 0


def test_seed_env_variable(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.DEFAULT_SEED_ENV, "42")
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    cli.main(["gen", "linear", "--n", "3", "--samples", "50", "--out", str(out1)])
    cli.main(["gen", "linear", "--n", "3", "--samples", "50", "--seed", "42", "--out", str(out2)])
    capsys.readouterr()
    assert out1.read_text() == out2.read_text()


# --- fuzz: generated files end in an exit code and at most one JSON error ------


@st.composite
def _fuzz_csv(draw):
    """A small CSV whose header ids may be permuted or gapped, whose columns
    may be constant, duplicated, huge or non-finite, and whose text may
    hold ragged rows, quoted cells or blank lines."""
    rows, width = draw(st.integers(1, 12)), draw(st.integers(2, 4))
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((rows, width))
    for j in range(width):
        kind = draw(st.sampled_from(["normal", "constant", "duplicate", "huge", "non-finite"]))
        if kind == "constant":
            data[:, j] = 1.5
        elif kind == "duplicate":
            data[:, j] = data[:, 0]
        elif kind == "huge":
            data[:, j] *= 1e160
        elif kind == "non-finite":
            data[draw(st.integers(0, rows - 1)), j] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    # header ids 0..width-1 in some order, or distinct ids with gaps
    ids = draw(
        st.permutations(range(width))
        | st.lists(st.integers(0, 9), min_size=width, max_size=width, unique=True)
    )
    lines = [",".join(map(str, ids))] + [",".join(map(repr, r)) for r in data.tolist()]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(1, len(lines) - 1))
        fault = draw(st.sampled_from(["ragged", "quoted", "blank"]))
        if fault == "ragged":
            lines[i] += ",0.5"
        elif fault == "quoted":
            lines[i] = '"' + lines[i].replace(",", '","') + '"'
        else:
            lines.insert(i + draw(st.integers(0, 1)), "")
    raw = ("\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))).encode()
    if draw(st.integers(0, 3)) == 0:  # a byte that is not UTF-8 here
        i = draw(st.integers(0, len(raw)))
        raw = raw[:i] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80"])) + raw[i:]
    return raw


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


def _run_cli(argv):
    """``cli.main(argv)`` under the fuzz tests' three requirements: an exit
    code of 0, 1 or 2, exactly one JSON object on stderr when it is not 0
    (else strict JSON on stdout, without NaN or Infinity), and neither a
    traceback nor a warning.  A usage error exits through argparse."""
    out, err = io.StringIO(), io.StringIO()
    # an uncaught exception would end the test with its traceback
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if rc:
        _one_json_object(err.getvalue())
    else:
        assert not err.getvalue()
        json.loads(out.getvalue(), parse_constant=_not_json)
    assert not caught, [str(w.message) for w in caught]
    return rc


@settings(max_examples=80, deadline=None)
@given(_fuzz_csv())
def test_cli_on_generated_files_exits_with_a_code_and_json(tmp_path_factory, raw):
    here = tmp_path_factory.getbasetemp()
    (here / "fuzz.csv").write_bytes(raw)
    for command in (
        ["test", "--query", "ci:0,1|"],
        ["fit", "pc", "--out", str(here / "fuzz-pc.json")],
        ["fit", "path", "--out", str(here / "fuzz-path.json")],
    ):
        _run_cli([*command, "--data", str(here / "fuzz.csv")])


# numbers at and past the limits of a double and of the size guards; a
# valid gen request stays tiny, since every sample count past 50 is over
# the cell limit for any n >= 1
_HUGE = [2**53 + 1, 10**154, 10**308, 2**1023, 2**1024, 10**400]
_FLOATS = ["0.1", "0", "1", "-0.5", "nan", "inf", "-inf", "1e-320", "1e308", "x"]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_numeric_options_exit_with_a_code_and_json(tmp_path_factory, data):
    draw = data.draw
    command = draw(st.sampled_from(["bound", "plan", "gen"]))
    if command == "gen":
        argv = [
            "gen", draw(st.sampled_from(["linear", "gam"])),
            "--n", draw(st.sampled_from([-1, 0, 1, 2, 3, 5, synthgen.MAX_SCM_NODES + 1, *_HUGE])),
            "--samples", draw(st.sampled_from([-1, 0, 1, 2, 50, synthgen.MAX_SAMPLE_CELLS + 1, *_HUGE])),
            "--degree", draw(st.sampled_from(["1.5", "0.5", *_FLOATS])),
            "--seed", draw(st.sampled_from([0, 1, -1, 10**400, "x"])),
            "--out", tmp_path_factory.getbasetemp() / "fuzz-gen.csv",
        ]
    else:
        n = st.sampled_from([-1, 0, 1, 2, 3, 10, 1000, 10**17, *_HUGE])
        argv = [command, "--class", draw(st.sampled_from(cli.MODEL_CLASSES)), "--n", draw(n),
                "--eta", draw(st.sampled_from(_FLOATS))]
        if command == "bound":
            argv += ["--k", draw(st.sampled_from([-3, 0, 1, 10, 5000, 10**42, *_HUGE])),
                     "--empirical", draw(st.sampled_from(["0.05", "7", *_FLOATS]))]
        else:
            argv += ["--eps", draw(st.sampled_from(["0.999", *_FLOATS])),
                     "--cond-size", draw(st.sampled_from([-1, 0, 1, 2, 5, 499, 10**5, 10**16, 10**399]))]
    _run_cli([str(v) for v in argv])


# a JSON value of a wrong type for most fields; "1e400" is written as the
# JSON number, which Python reads as inf
_JUNK = st.sampled_from(["x", "1", "12", 1.5, 0.5, True, None, [], {}, [1], [0, 1, 2], -1, "1e400"])


def _fuzz_object(draw, fields, required=()):
    """Each field valid, junk or (unless required) missing, plus at times an
    unknown key; serialised as JSON text, or at times as bytes that are not
    UTF-8."""
    obj = {}
    for key, valid in fields.items():
        how = draw(st.sampled_from(["valid"] * 4 + ["junk"] + ([] if key in required else ["missing"])))
        if how != "missing":
            obj[key] = draw(valid if how == "valid" else _JUNK)
    if draw(st.integers(0, 9)) == 0:
        obj["bogus"] = 1
    raw = json.dumps(obj).replace('"1e400"', "1e400").encode()
    return raw if draw(st.integers(0, 9)) else b"\xff" + raw


_node_ids = st.integers(-1, 4)
_edges = st.lists(st.lists(_node_ids | _JUNK, min_size=2, max_size=2) | _JUNK, max_size=4)


@st.composite
def _fuzz_model(draw):
    return _fuzz_object(
        draw,
        {
            "type": st.sampled_from(["path", "cpdag", "polytree", "dag", "zzz"]),
            "n": st.integers(-2, 4),
            "directed": _edges,
            "undirected": _edges,
            "order": st.permutations(range(draw(st.integers(0, 4)))) | st.lists(_node_ids, max_size=4),
            "r": st.lists(st.floats(-1.5, 1.5, allow_nan=False) | st.just(0.0), max_size=4),
        },
    )


@settings(max_examples=150, deadline=None)
@given(
    _fuzz_model(),
    st.sampled_from(["ci:0,1|", "ci:0,2|1", "dir:0->1", "anm:1->0", "corr:0,1", "sign:0,2", "lingam:0,1"]),
)
def test_predict_on_generated_models_exits_with_a_code_and_json(tmp_path_factory, raw, query):
    path = tmp_path_factory.getbasetemp() / "fuzz-model.json"
    path.write_bytes(raw)
    _run_cli(["predict", "--model", str(path), "--query", query])


@st.composite
def _fuzz_config(draw):
    """A config that is tiny when valid: n <= 4, l <= 60, one repetition and
    one dataset, which are never left to their large defaults.  It carries
    its own study's fields, and in some examples the other study's, which
    the config refuses.  One example in three draws every field in range,
    without junk, so that valid runs of both studies are reached."""
    experiment = draw(st.sampled_from(["ci", "anm", "zzz"]))
    sound = draw(st.integers(0, 2)) == 0

    def values(in_range, out_of_range):
        return in_range if sound else in_range | out_of_range

    studies = {
        "ci": {"max_cond": values(st.integers(0, 3), st.just(-1)), "oracle": st.booleans()},
        "anm": {
            "k_values": values(
                st.lists(st.integers(1, 2), min_size=1, max_size=2), st.lists(st.integers(-1, 14), max_size=2)
            ),
            "datasets": values(st.just(1), st.just(0)),
        },
    }
    fields = {
        "experiment": st.just(experiment),
        "n": values(st.integers(3, 4), st.integers(-1, 2)),
        "l": values(st.integers(20, 60), st.integers(-1, 19)),
        "alpha": values(st.sampled_from([0.05, 0.2]), st.sampled_from([0, 1, -0.5])),
        "eta": values(st.just(0.1), st.sampled_from([0, 1, 1.5])),
        "repetitions": values(st.just(1), st.sampled_from([0, -1])),
        "seed": values(st.integers(0, 5), st.integers(-2, -1)),
        "expected_degree": values(st.sampled_from([1.5, 1]), st.sampled_from([0, -1, 5])),
    }
    for study, study_fields in studies.items():
        if study == experiment or draw(st.integers(0, 3)) == 0:
            fields.update(study_fields)
    if sound:
        return json.dumps({key: draw(value) for key, value in fields.items()}).encode()
    return _fuzz_object(draw, fields, required=("n", "l", "repetitions", "datasets"))


@settings(max_examples=150, deadline=None)
@given(_fuzz_config())
def test_experiment_on_generated_configs_exits_with_a_code_and_json(tmp_path_factory, raw):
    here = tmp_path_factory.getbasetemp()
    (here / "fuzz-cfg.json").write_bytes(raw)
    rc = _run_cli(["experiment", "--config", str(here / "fuzz-cfg.json"), "--out", str(here / "fuzz-records.csv")])
    if rc == 0:
        event(f"a valid {json.loads(raw)['experiment']} run")


@st.composite
def _fuzz_matrix(draw):
    """A covariance file: a valid, non-PSD or huge 2 x 2 matrix, or one
    whose rows or entries are junk, ragged or missing."""
    matrix = draw(st.sampled_from([
        [[1, 0.5], [0.5, 1]], [[1, 0.4], [0.4, 1]], [[2, 0.4], [0.4, 2]], [[1, 2], [2, 1]],
        [[1e300, 0.5e300], [0.5e300, 1e300]], [[1e-300, 0], [0, 1e-300]], [[1, 0.5], [0.4, 1]],
    ]))
    how = draw(st.sampled_from(["valid"] * 3 + ["entry", "row", "ragged", "whole", "shape"]))
    if how == "entry":
        matrix[draw(st.integers(0, 1))][draw(st.integers(0, 1))] = draw(_JUNK)
    elif how == "row":
        matrix[draw(st.integers(0, 1))] = draw(_JUNK)
    elif how == "ragged":
        matrix[draw(st.integers(0, 1))].pop()
    elif how == "whole":
        matrix = draw(_JUNK)
    elif how == "shape":
        matrix = np.eye(draw(st.integers(0, 3))).tolist()
    raw = json.dumps(matrix).replace('"1e400"', "1e400").encode()
    return raw if draw(st.integers(0, 9)) else b"\xff" + raw


@settings(max_examples=150, deadline=None)
@given(_fuzz_matrix(), _fuzz_matrix())
def test_merge_on_generated_files_exits_with_a_code_and_json(tmp_path_factory, raw_xy, raw_yz):
    here = tmp_path_factory.getbasetemp()
    (here / "fuzz-xy.json").write_bytes(raw_xy)
    (here / "fuzz-yz.json").write_bytes(raw_yz)
    _run_cli(["merge", str(here / "fuzz-xy.json"), str(here / "fuzz-yz.json")])
