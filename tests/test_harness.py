"""Model I/O, random generation, benchmark campaigns, and the CLI."""

import json

import pytest

from mplverify import (
    BenchmarkConfig,
    Model,
    ModelError,
    bench_abstraction,
    bench_ct,
    is_irreducible,
    load_model,
    random_mpl,
    save_model,
)
from mplverify.bench import ABSTRACTION_CSV_HEADER, CT_CSV_HEADER
from mplverify.cli import main
from mplverify.modelio import parse_constraint, random_irreducible_mpl


# ---------------------------------------------------------------------------
# Model files


def write_model(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_load_golden_railway(tmp_path):
    path = write_model(tmp_path, {"matrix": [[2, 5], [3, 3]], "spec": "F G (t1 <= 5)"})
    model = load_model(path)
    assert model.matrix.to_rows() == [[2, 5], [3, 3]]
    assert model.spec == "F G (t1 <= 5)"
    assert model.initial is None
    assert not model.reducible


def test_load_reducible_flagged(tmp_path):
    path = write_model(tmp_path, {"matrix": [[1, None], [None, 1]]})
    model = load_model(path)
    assert model.reducible


def test_load_rejects_non_regular(tmp_path):
    path = write_model(tmp_path, {"matrix": [[None, None], [1, 2]]})
    with pytest.raises(ModelError, match="row 1"):
        load_model(path)


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ModelError, match="line"):
        load_model(str(path))
    with pytest.raises(ModelError, match="square"):
        load_model(write_model(tmp_path, {"matrix": [[1, 2, 3], [4, 5, 6]]}))
    with pytest.raises(ModelError, match="matrix"):
        load_model(write_model(tmp_path, {"spec": "true"}))


def test_initial_constraints(tmp_path):
    path = write_model(
        tmp_path,
        {"matrix": [[2, 5], [3, 3]], "initial": ["x1 - x2 >= 3"]},
    )
    model = load_model(path)
    xs = [5 * model.matrix.scale, 0]
    assert model.initial.contains(xs)
    assert not model.initial.contains([0, 0])
    with pytest.raises(ModelError, match="constraint"):
        load_model(
            write_model(tmp_path, {"matrix": [[2, 5], [3, 3]], "initial": ["x1 + x2 <= 3"]})
        )


def test_parse_constraint_forms():
    assert parse_constraint("x1 - x2 <= 3", 2, 1) == (0, 1, 3, False)
    assert parse_constraint("x1 - x2 < -2", 2, 1) == (0, 1, -2, True)
    assert parse_constraint("x2 - x1 >= 1", 2, 1) == (0, 1, -1, False)
    assert parse_constraint("x1 - x2 > 0", 2, 1) == (1, 0, 0, True)
    assert parse_constraint("x1 - x2 <= 2.5", 2, 10) == (0, 1, 25, False)
    for bad in ["x1 - x1 <= 0", "x1 - x9 <= 0", "x1 <= 3"]:
        with pytest.raises(ModelError):
            parse_constraint(bad, 2, 1)


def test_save_load_round_trip(tmp_path):
    a = random_mpl(4, m=2, seed=11)
    model = Model(a, None, ("x1 - x2 <= 3",), "F (t1 <= 5)")
    model.initial = None  # constraints kept textual; region rebuilt on load
    path = str(tmp_path / "rt.json")
    save_model(model, path)
    back = load_model(path)
    assert back.matrix.to_rows() == a.to_rows()
    assert back.initial_constraints == model.initial_constraints
    assert back.spec == model.spec


# ---------------------------------------------------------------------------
# Random generation


def test_random_mpl_deterministic():
    a = random_mpl(3, m=2, seed=7)
    b = random_mpl(3, m=2, seed=7)
    assert a.entries == b.entries


def test_random_mpl_finite_counts():
    a = random_mpl(5, m=2, seed=1)
    finite = sum(1 for row in a.entries for v in row if v is not None)
    assert finite == 10
    assert a.is_regular()


def test_random_mpl_full_rows_irreducible():
    a = random_mpl(3, m=3, seed=5)
    assert is_irreducible(a)


def test_random_mpl_value_range():
    a = random_mpl(4, m=3, value_range=(2, 4), seed=3)
    vals = {v // a.scale for row in a.entries for v in row if v is not None}
    assert vals <= {2, 3, 4}
    with pytest.raises(ValueError):
        random_mpl(2, m=3)
    with pytest.raises(ValueError):
        random_mpl(3, value_range=(5, 1))


def test_random_irreducible_resamples():
    for seed in range(5):
        assert is_irreducible(random_irreducible_mpl(3, m=2, seed=seed))


# ---------------------------------------------------------------------------
# Benchmarks


def test_bench_abstraction_report():
    cfg = BenchmarkConfig(dims=(3, 4), trials=3, seed=9)
    rep = bench_abstraction(cfg)
    assert len(rep["rows"]) == 6
    lines = rep["csv"].strip().splitlines()
    assert lines[0] == ABSTRACTION_CSV_HEADER
    assert len(lines) == 1 + 6 * 3  # three phases per trial
    for line in lines[1:]:
        n, trial, seed, phase, micros = line.split(",")
        assert phase in {"predicates", "states", "dynamics"}
        assert int(micros) >= 0
    assert set(rep["summary"]) == {3, 4}
    for row in rep["summary"].values():
        assert row["avg_micros"] <= row["max_micros"]


def test_bench_abstraction_empty():
    rep = bench_abstraction(BenchmarkConfig(dims=(3,), trials=0, seed=0))
    assert rep["rows"] == []
    assert rep["csv"].strip() == ABSTRACTION_CSV_HEADER


def test_bench_abstraction_seeded_matrices_stable():
    cfg = BenchmarkConfig(dims=(3,), trials=2, seed=4)
    r1, r2 = bench_abstraction(cfg), bench_abstraction(cfg)
    assert [r["seed"] for r in r1["rows"]] == [r["seed"] for r in r2["rows"]]
    assert [r["states"] for r in r1["rows"]] == [r["states"] for r in r2["rows"]]


def test_bench_ct_report():
    cfg = BenchmarkConfig(dims=(2,), trials=3, seed=2)
    rep = bench_ct(cfg, "F G (t1 <= 10)")
    lines = rep["csv"].strip().splitlines()
    assert lines[0] == CT_CSV_HEADER
    assert len(lines) == 4
    assert sum(rep["counts"].values()) == 3
    assert rep["counts"]["gt"] == 0  # Lemma-2 soundness
    for r in rep["rows"]:
        assert r["ct_empirical"] is None or r["ct_empirical"] <= r["ct_lemma"]


def test_bench_ct_unsound_bound_raises(monkeypatch):
    """The soundness check is an explicit exception, kept under python -O."""
    import mplverify.bench

    def above_lemma(a, x_region, formula, *, max_iter):
        return {"ct_empirical": 9, "ct_lemma": 4, "outcome": "violated", "refinements": 0}

    monkeypatch.setattr(mplverify.bench, "empirical_threshold", above_lemma)
    with pytest.raises(RuntimeError, match="analytic threshold 4 below empirical 9"):
        bench_ct(BenchmarkConfig(dims=(2,), trials=1, seed=2), "F G (t1 <= 10)")


# ---------------------------------------------------------------------------
# CLI


@pytest.fixture
def railway_file(tmp_path):
    return write_model(
        tmp_path, {"matrix": [[2, 5], [3, 3]], "spec": "F G (t1 <= 5)"}, "railway.json"
    )


def test_cli_verify_exit_codes(railway_file, capsys):
    assert main(["verify", "-m", railway_file, "--spec", "F (t1 <= 5)"]) == 0
    assert main(["verify", "-m", railway_file, "--spec", "F (t2 <= 2)"]) == 1
    out = capsys.readouterr().out
    assert "direct: contradiction" in out


def test_cli_verify_uses_model_spec(railway_file):
    assert main(["verify", "-m", railway_file]) == 0


def test_cli_verify_json(railway_file, capsys):
    assert main(["verify", "-m", railway_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["outcome"] == "holds"
    assert doc["stats"]["refinements"] == 1


def test_cli_verify_explain_shows_trajectory(railway_file, capsys):
    code = main(
        ["verify", "-m", railway_file, "--spec", "F G (t1 >= 5)",
         "--no-direct", "--explain"]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "abstract path" in out
    assert "witness DBMs" in out
    assert "x(0) =" in out


def test_cli_undecided_exit_code(tmp_path):
    path = write_model(
        tmp_path,
        {
            "matrix": [[1, None], [None, 2]],
            "initial": ["x1 - x2 <= 0"],
            "spec": "F G (t1 <= 0)",
        },
    )
    assert main(["verify", "-m", path, "--no-direct", "--max-iter", "10"]) == 2


def test_cli_ct(railway_file, capsys):
    assert main(["ct", "-m", railway_file]) == 0
    out = capsys.readouterr().out
    assert "lambda=4" in out and "k0=2" in out and "c=2" in out and "CT=4" in out


def test_cli_direct(railway_file, capsys):
    assert main(["direct", "-m", railway_file, "--spec", "F G (t1 >= 5)"]) == 1
    assert main(["direct", "-m", railway_file, "--spec", "F G (t1 <= 5)"]) == 2
    assert main(["direct", "-m", railway_file, "--spec", "(t1>=2) U (t2>=3)"]) == 0


def test_cli_abstract(railway_file, capsys):
    assert main(["abstract", "-m", railway_file, "--dump"]) == 0
    out = capsys.readouterr().out
    assert "3 abstract states" in out
    assert "x1 - x2 < 0" in out
    assert main(["abstract", "-m", railway_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["states"]) == 3
    assert [0, 1] in doc["edges"]


def test_cli_random_roundtrip(tmp_path, capsys):
    out_path = str(tmp_path / "rand.json")
    assert main(["random", "-n", "3", "--seed", "7", "-o", out_path]) == 0
    model = load_model(out_path)
    assert model.matrix.n == 3
    a = random_mpl(3, m=2, seed=7)
    assert model.matrix.to_rows() == a.to_rows()


def test_cli_random_env_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MPLVERIFY_SEED", "42")
    assert main(["random", "-n", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["seed"] == 42
    assert doc["matrix"] == [[v for v in row] for row in random_mpl(3, 2, seed=42).to_rows()]


def test_cli_bench_abstraction_csv(tmp_path, capsys):
    csv_path = str(tmp_path / "bench.csv")
    code = main(
        ["bench", "abstraction", "--dims", "3", "--trials", "2", "--seed", "0",
         "--csv", csv_path]
    )
    assert code == 0
    lines = open(csv_path).read().strip().splitlines()
    assert lines[0] == ABSTRACTION_CSV_HEADER


def test_cli_bench_ct_csv(tmp_path, capsys):
    csv_path = str(tmp_path / "ct.csv")
    code = main(
        ["bench", "ct", "--dims", "2", "--trials", "2", "--seed", "1",
         "--spec", "F G (t1 <= 10)", "--csv", csv_path]
    )
    assert code == 0
    lines = open(csv_path).read().strip().splitlines()
    assert lines[0] == CT_CSV_HEADER


def test_cli_usage_errors(railway_file, capsys, tmp_path):
    assert main(["verify", "-m", str(tmp_path / "nope.json"), "--spec", "true"]) == 3
    assert main(["verify", "-m", railway_file, "--spec", "t1 <?= 5"]) == 3
    assert main(["verify"]) == 3  # no model
    assert main(["bench", "ct", "--dims", "2", "--trials", "1"]) == 3  # no spec
    assert main(["frobnicate"]) == 3  # unknown subcommand


def test_cli_failures_exit_error(tmp_path, capsys, monkeypatch):
    """A failure never exits 1, the code for "violated"."""
    # transient about 2*10^4, past the search cap of 5000
    path = write_model(tmp_path, {"matrix": [[10, 0], [0, 9.999]]})
    assert main(["ct", "-m", path]) == 3
    assert main(["verify", "-m", path, "--spec", "G (t1 <= 10)"]) == 3
    err = capsys.readouterr().err
    assert err.count("error: no (transient, cyclicity) pair within caps") == 2

    def crash(a):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("mplverify.cli.transient_cyclicity", crash)
    assert main(["ct", "-m", path]) == 3
    assert "error: internal error: RecursionError" in capsys.readouterr().err
