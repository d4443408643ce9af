import json
import subprocess
import sys

from grc import (
    CutConstraint,
    GrcInstance,
    SimpleGraph,
    SolveOutcome,
    graph_from_json,
    instance_to_json,
    verify_realization,
)
from grc.cli import cli_main


def write_instance(tmp_path, inst, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(instance_to_json(inst)))
    return str(path)


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_realizable_with_witness(self, tmp_path, capsys):
        inst = GrcInstance((1, 1))
        path = write_instance(tmp_path, inst)
        witness = tmp_path / "w.json"
        code, out, _ = run_cli(capsys, "solve", path, "--witness", str(witness))
        assert code == 0
        doc = json.loads(out)
        assert doc["realizable"] is True
        g = graph_from_json(json.loads(witness.read_text()))
        assert verify_realization(g, inst).ok

    def test_infeasible_exit_zero(self, tmp_path, capsys):
        path = write_instance(tmp_path, GrcInstance((1, 1, 1)))
        code, out, _ = run_cli(capsys, "solve", path)
        assert code == 0
        assert json.loads(out)["realizable"] is False

    def test_invalid_json_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"degrees": "x"}')
        code, _, err = run_cli(capsys, "solve", str(bad))
        assert code == 2 and "error" in err

    def test_non_integer_version_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": true, "degrees": [1, 1]}')
        code, out, err = run_cli(capsys, "solve", str(bad))
        assert code == 2 and out == "" and "unsupported instance document version" in err

    def test_deep_oracle_search_exits_zero(self, tmp_path, capsys):
        inst = GrcInstance((1,) * 46, (CutConstraint((0, 1, 2, 3), 4),))
        code, out, _ = run_cli(capsys, "solve", write_instance(tmp_path, inst))
        assert code == 0
        assert json.loads(out) == {"method": "oracle", "realizable": True}

    def test_budget_exit_three(self, tmp_path, capsys):
        inst = GrcInstance((1,) * 8, (CutConstraint((0, 1, 2, 3), 4),))
        path = write_instance(tmp_path, inst)
        code, out, _ = run_cli(capsys, "solve", path, "--method", "oracle", "--budget", "2")
        assert code == 3
        assert json.loads(out)["realizable"] is None

    def test_env_budget(self, tmp_path, capsys, monkeypatch):
        inst = GrcInstance((1,) * 8, (CutConstraint((0, 1, 2, 3), 4),))
        path = write_instance(tmp_path, inst)
        monkeypatch.setenv("GRC_BUDGET", "2")
        code, _, _ = run_cli(capsys, "solve", path, "--method", "oracle")
        assert code == 3

    def test_inapplicable_method_exit_two(self, tmp_path, capsys):
        path = write_instance(tmp_path, GrcInstance((1, 1, 1, 1)))
        code, _, err = run_cli(capsys, "solve", path, "--method", "tree")
        assert code == 2 and "error" in err

    def test_failed_witness_check_exits_four(self, tmp_path, capsys, monkeypatch):
        # K4 goes to the matching route; hand back an empty graph as its witness.
        monkeypatch.setattr("grc.solver.solve_width2",
                            lambda core: SolveOutcome.realizable(SimpleGraph(4), "ffactor"))
        path = write_instance(tmp_path, GrcInstance((1, 1, 1, 1)))
        code, out, err = run_cli(capsys, "solve", path)
        assert code == 4 and out == ""
        assert err.startswith("error: internal: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_deterministic_bytes(self, tmp_path, capsys):
        path = write_instance(tmp_path, GrcInstance((2, 2, 2)))
        _, out1, _ = run_cli(capsys, "solve", path)
        _, out2, _ = run_cli(capsys, "solve", path)
        assert out1 == out2


class TestVerify:
    def test_pipeline_contract(self, tmp_path, capsys):
        inst = GrcInstance((2, 2, 2), (CutConstraint((0, 1), 2),))
        ipath = write_instance(tmp_path, inst)
        wpath = tmp_path / "w.json"
        code, _, _ = run_cli(capsys, "solve", ipath, "--witness", str(wpath))
        assert code == 0
        code, out, _ = run_cli(capsys, "verify", ipath, str(wpath))
        assert code == 0
        assert json.loads(out)["valid"] is True

    def test_invalid_graph(self, tmp_path, capsys):
        inst = GrcInstance((2, 2, 2), (CutConstraint((0, 1), 4),))
        ipath = write_instance(tmp_path, inst)
        gpath = tmp_path / "g.json"
        gpath.write_text('{"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]}')
        code, out, _ = run_cli(capsys, "verify", ipath, str(gpath))
        assert code == 0
        doc = json.loads(out)
        assert doc["valid"] is False and doc["violations"]


class TestDegseq:
    def test_k4(self, capsys):
        code, out, _ = run_cli(capsys, "degseq", "3,3,3,3")
        assert code == 0 and json.loads(out)["realizable"] is True

    def test_odd(self, capsys):
        code, out, _ = run_cli(capsys, "degseq", "1,1,1")
        assert code == 0 and json.loads(out)["realizable"] is False

    def test_bad_sequence(self, capsys):
        code, _, err = run_cli(capsys, "degseq", "1,x")
        assert code == 2


class TestFFactor:
    def test_triangle(self, tmp_path, capsys):
        host = tmp_path / "host.json"
        host.write_text('{"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]}')
        code, out, _ = run_cli(capsys, "ffactor", str(host), "--f", "2,2,2")
        assert code == 0 and json.loads(out)["feasible"] is True

    def test_infeasible(self, tmp_path, capsys):
        host = tmp_path / "host.json"
        host.write_text('{"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]}')
        code, out, _ = run_cli(capsys, "ffactor", str(host), "--f", "1,1,1")
        assert code == 0 and json.loads(out)["feasible"] is False

    def test_wrong_length(self, tmp_path, capsys):
        host = tmp_path / "host.json"
        host.write_text('{"n": 2, "edges": [[0, 1]]}')
        code, _, _ = run_cli(capsys, "ffactor", str(host), "--f", "1")
        assert code == 2


class TestReduce3:
    def test_emits_instance_and_trace(self, tmp_path, capsys):
        inst = GrcInstance((2, 2, 2, 2, 2, 0), (CutConstraint((0, 1, 2), 4),))
        path = write_instance(tmp_path, inst)
        tpath = tmp_path / "trace.json"
        code, out, _ = run_cli(capsys, "reduce3", path, "--trace", str(tpath))
        assert code == 0
        doc = json.loads(out)
        assert "instance" in doc and "trace" in doc
        assert json.loads(tpath.read_text()) == doc["trace"]

    def test_unsafe_diagnosis(self, tmp_path, capsys):
        inst = GrcInstance((1, 1, 0, 0, 0, 0),
                           (CutConstraint((0, 1, 2), 0), CutConstraint((0, 1, 3), 0)))
        path = write_instance(tmp_path, inst)
        code, out, _ = run_cli(capsys, "reduce3", path)
        assert code == 2
        doc = json.loads(out)
        assert doc["unsafe"]

    def test_infeasible_instance(self, tmp_path, capsys):
        path = write_instance(tmp_path, GrcInstance((1, 1, 1)))
        code, out, _ = run_cli(capsys, "reduce3", path)
        assert code == 0
        assert json.loads(out)["infeasible"] is True


class TestOracleCommand:
    def test_enumerate(self, tmp_path, capsys):
        path = write_instance(tmp_path, GrcInstance((1, 1, 1, 1)))
        code, out, _ = run_cli(capsys, "oracle", path, "--enumerate", "10")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 3 and doc["realizable"] is True

    def test_plain(self, tmp_path, capsys):
        path = write_instance(tmp_path, GrcInstance((2, 2, 2)))
        code, out, _ = run_cli(capsys, "oracle", path)
        assert code == 0 and json.loads(out)["method"] == "oracle"


class TestGenerators:
    def test_gen_sat13_with_map(self, tmp_path, capsys):
        formula = tmp_path / "f.json"
        formula.write_text(json.dumps(
            {"vars": 4, "clauses": [[-1, 3], [1, 2, 4], [1, -4], [-2, -3], [2, 3, 4]]}))
        mpath = tmp_path / "map.json"
        code, out, _ = run_cli(capsys, "gen", "sat13", "--formula", str(formula),
                               "--k", "1", "--map", str(mpath))
        assert code == 0
        doc = json.loads(out)
        assert len(doc["degrees"]) == 32
        assert json.loads(mpath.read_text())["k"] == 1

    def test_gen_sat13_rejects_bad_form(self, tmp_path, capsys):
        formula = tmp_path / "f.json"
        formula.write_text(json.dumps({"vars": 2, "clauses": [[1, 2]]}))
        code, _, err = run_cli(capsys, "gen", "sat13", "--formula", str(formula), "--k", "0")
        assert code == 2

    def test_gen_3dm(self, tmp_path, capsys):
        triples = tmp_path / "t.json"
        triples.write_text(json.dumps(
            {"n": 3, "triples": [[0, 0, 0], [0, 1, 1], [1, 0, 0], [1, 1, 0], [2, 1, 1], [2, 2, 2]]}))
        code, out, _ = run_cli(capsys, "gen", "3dm", "--triples", str(triples))
        assert code == 0
        assert len(json.loads(out)["degrees"]) == 18

    def test_unknown_flag_usage_exit(self, capsys):
        code, _, _ = run_cli(capsys, "solve", "--frobnicate")
        assert code == 2


def test_pipe_gen_to_solve(tmp_path):
    triples = tmp_path / "t.json"
    triples.write_text(json.dumps(
        {"n": 3, "triples": [[0, 0, 0], [0, 1, 1], [1, 0, 0], [1, 1, 0], [2, 1, 1], [2, 2, 2]]}))
    gen = subprocess.run(
        [sys.executable, "-m", "grc.cli", "gen", "3dm", "--triples", str(triples)],
        capture_output=True, text=True, check=True)
    solve = subprocess.run(
        [sys.executable, "-m", "grc.cli", "solve", "-"],
        input=gen.stdout, capture_output=True, text=True)
    assert solve.returncode == 0
    assert json.loads(solve.stdout)["realizable"] is True
