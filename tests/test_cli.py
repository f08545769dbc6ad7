import csv
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from causalpred import bounds, cli
from causalpred.core import Query, QueryKind, load_dataset
from causalpred.learners import pc_fit
from causalpred.errors import ParseError
from causalpred.models import Dag, PathModel, Polytree, cpdag_from_dag, save_model


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
    prefix = draw(st.sampled_from(sorted(cli.PREFIX_KIND)))
    kind = cli.PREFIX_KIND[prefix]
    if kind == QueryKind.ORDERED_TUPLE:
        ids = draw(st.lists(_ids, min_size=1, max_size=6, unique=True))
        return prefix, Query.ordered_tuple(*ids)
    size = 2 + (draw(st.integers(0, 4)) if kind == QueryKind.COND_INDEP else 0)
    ids = draw(st.lists(_ids, min_size=size, max_size=size, unique=True))
    return prefix, Query(kind, tuple(ids[:2]), tuple(ids[2:]))


@given(_prefixed_queries())
def test_format_query_inverts_parse_query(prefixed):
    prefix, q = prefixed
    text = cli.format_query(prefix, q)
    assert cli.parse_query(text) == (prefix, q)
    assert cli.format_query(*cli.parse_query(text)) == text


def test_format_query_rejects_kind_mismatch():
    with pytest.raises(ParseError):
        cli.format_query("ci", Query.ordered_pair(0, 1))


# --- exit codes ---------------------------------------------------------------


def test_no_arguments_usage(capsys):
    assert cli.main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_parse_error_exit_code(capsys):
    assert cli.main(["predict", "--model", "nowhere.json", "--query", "zzz:1"]) == 1


def test_missing_file_exit_code(capsys):
    assert cli.main(["test", "--data", "no-such-file.csv", "--query", "ci:0,1"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert "error" in err


# --- subcommands --------------------------------------------------------------


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
    assert d.l == 500 and d.k == 4
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


def test_seed_env_variable(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.DEFAULT_SEED_ENV, "42")
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    cli.main(["gen", "linear", "--n", "3", "--samples", "50", "--out", str(out1)])
    cli.main(["gen", "linear", "--n", "3", "--samples", "50", "--seed", "42", "--out", str(out2)])
    capsys.readouterr()
    assert out1.read_text() == out2.read_text()
