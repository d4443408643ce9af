import io
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

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

    def test_deeply_nested_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        code, out, err = run_cli(capsys, "solve", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: JSON document is nested too deeply")

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

    def test_reads_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(instance_to_json(GrcInstance((1, 1))))))
        code, out, _ = run_cli(capsys, "solve", "-")
        assert code == 0
        assert json.loads(out) == {"method": "tree", "realizable": True}

    def test_negative_budget_exit_two(self, tmp_path, capsys):
        path = write_instance(tmp_path, GrcInstance((1, 1)))
        code, out, err = run_cli(capsys, "solve", path, "--budget", "-5")
        assert code == 2 and out == "" and err.startswith("error:")

    def test_negative_env_budget_exit_two(self, tmp_path, capsys, monkeypatch):
        path = write_instance(tmp_path, GrcInstance((1, 1)))
        for env, message in (("-1", "GRC_BUDGET must be nonnegative, got -1"),
                             ("abc", "GRC_BUDGET must be an integer, got 'abc'")):
            monkeypatch.setenv("GRC_BUDGET", env)
            code, out, err = run_cli(capsys, "solve", path)
            assert (code, out, err) == (2, "", f"error: {message}\n")

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

    def test_out_of_memory_exits_three(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr("grc.cli.solve", exhausted)
        code, out, err = run_cli(capsys, "solve", write_instance(tmp_path, GrcInstance((1, 1))))
        assert (code, out) == (3, "")
        assert err == "error: resource: out of memory\n"

    def test_unexpected_exception_exits_four(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("lost")
        monkeypatch.setattr("grc.cli.solve", broken)
        code, out, err = run_cli(capsys, "solve", write_instance(tmp_path, GrcInstance((1, 1))))
        assert (code, out) == (4, "")
        assert err == "error: internal: 'lost'\n"

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
    def test_k4(self, tmp_path, capsys):
        witness = tmp_path / "w.json"
        code, out, _ = run_cli(capsys, "degseq", "3,3,3,3", "--witness", str(witness))
        assert code == 0 and json.loads(out)["realizable"] is True
        assert json.loads(witness.read_text()) == {
            "n": 4, "edges": [list(p) for p in itertools.combinations(range(4), 2)]}

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
        witness = tmp_path / "w.json"
        code, out, _ = run_cli(capsys, "ffactor", str(host), "--f", "2,2,2", "--witness", str(witness))
        assert code == 0 and json.loads(out)["feasible"] is True
        assert json.loads(witness.read_text()) == json.loads(host.read_text())

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
        witness = tmp_path / "w.json"
        code, out, _ = run_cli(capsys, "oracle", path, "--enumerate", "10", "--witness", str(witness))
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 3 and doc["realizable"] is True
        assert json.loads(witness.read_text()) == [
            {"n": 4, "edges": edges} for edges in ([[0, 1], [2, 3]], [[0, 2], [1, 3]], [[0, 3], [1, 2]])]

    def test_enumerate_needs_a_positive_count(self, tmp_path, capsys):
        path = write_instance(tmp_path, GrcInstance((1, 1)))
        for count in ("0", "-1"):
            code, out, err = run_cli(capsys, "oracle", path, "--enumerate", count)
            assert code == 2 and out == "" and err.startswith("error:")

    def test_enumerate_budget_exit_three(self, tmp_path, capsys):
        path = write_instance(tmp_path, GrcInstance((1, 1)))
        code, out, err = run_cli(capsys, "oracle", path, "--enumerate", "1", "--budget", "0")
        assert (code, err) == (3, "")
        assert json.loads(out) == {"count": None, "method": "oracle", "realizable": None}

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

    def test_gen_3dm_with_map(self, tmp_path, capsys):
        # the README's triples example
        triples = tmp_path / "t.json"
        triples.write_text(json.dumps({"n": 3, "triples": [[0, 0, 0], [0, 1, 1], [1, 0, 0]]}))
        mpath = tmp_path / "map.json"
        code, out, _ = run_cli(capsys, "gen", "3dm", "--triples", str(triples), "--map", str(mpath))
        assert code == 0
        assert json.loads(out)["degrees"] == [1] * 12
        assert json.loads(mpath.read_text()) == {
            "x": [0, 1, 2],
            "y": [{"element": 0, "occurrences": [{"triple": 0, "a": 3, "b": 4},
                                                 {"triple": 2, "a": 5, "b": 6}]},
                  {"element": 1, "occurrences": [{"triple": 1, "a": 7, "b": 8}]},
                  {"element": 2, "occurrences": []}],
            "z": [9, 10, 11]}

    def test_gen_refuses_non_integers(self, tmp_path, capsys):
        # 1.5 is not read as 1, and a fractional variable count is not a crash
        triples = tmp_path / "t.json"
        triples.write_text(json.dumps({"n": 2, "triples": [[0, 0, 0], [1, 1, 1.5]]}))
        code, out, err = run_cli(capsys, "gen", "3dm", "--triples", str(triples))
        assert (code, out) == (2, "")
        assert "must be an integer, got 1.5" in err
        formula = tmp_path / "f.json"
        formula.write_text(json.dumps({"vars": 3.9, "clauses": [[1, 2, 3], [1, 2]]}))
        code, out, err = run_cli(capsys, "gen", "sat13", "--formula", str(formula), "--k", "1")
        assert (code, out) == (2, "")
        assert "must be an integer, got 3.9" in err

    def test_sizes_too_large_to_index_exit_three(self, tmp_path, capsys):
        # 10**20 does not fit an index, so the encoders raise OverflowError
        # before they build any list
        triples = tmp_path / "t.json"
        triples.write_text(json.dumps({"n": 10**20, "triples": []}))
        formula = tmp_path / "f.json"
        formula.write_text(json.dumps({"vars": 10**20, "clauses": []}))
        for argv in (("gen", "3dm", "--triples", str(triples)),
                     ("gen", "sat13", "--formula", str(formula), "--k", "0")):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out, err) == (3, "", "error: resource: out of memory\n")

    def test_unknown_flag_usage_exit(self, capsys):
        code, _, _ = run_cli(capsys, "solve", "--frobnicate")
        assert code == 2


def test_pipe_gen_to_solve(tmp_path):
    triples = tmp_path / "t.json"
    triples.write_text(json.dumps(
        {"n": 3, "triples": [[0, 0, 0], [0, 1, 1], [1, 0, 0], [1, 1, 0], [2, 1, 1], [2, 2, 2]]}))
    # the child processes import grc from this checkout's src, as pytest does
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    gen = subprocess.run(
        [sys.executable, "-m", "grc.cli", "gen", "3dm", "--triples", str(triples)],
        capture_output=True, text=True, check=True, env=env)
    solve = subprocess.run(
        [sys.executable, "-m", "grc.cli", "solve", "-"],
        input=gen.stdout, capture_output=True, text=True, env=env)
    assert solve.returncode == 0
    assert json.loads(solve.stdout)["realizable"] is True



# Values a malformed document may carry where a well-formed one has a number,
# a list or an object.
_JUNK = (0, 1, 2, 3, -1, 7, 1.5, float("nan"), True, None, "1", [], {}, [0, 1], [[0, 1]],
         {"set": [0], "ell": 0})


def _mutated(rng, doc):
    """``doc`` as it is, or with one key dropped or replaced, one entry corrupted, or all junk."""
    roll = rng.random()
    if roll < 0.4:
        return doc
    if roll < 0.45:
        return rng.choice(_JUNK)
    doc = json.loads(json.dumps(doc))
    key = rng.choice(sorted(doc))
    if roll < 0.55:
        del doc[key]
    elif roll < 0.7 or not (isinstance(doc[key], list) and doc[key]):
        doc[key] = rng.choice(_JUNK)
    else:
        i = rng.randrange(len(doc[key]))
        item = doc[key][i]
        if isinstance(item, dict):
            item[rng.choice(sorted(item))] = rng.choice(_JUNK)
        elif isinstance(item, list) and item:
            item[rng.randrange(len(item))] = rng.choice(_JUNK)
        else:
            doc[key][i] = rng.choice(_JUNK)
    return doc


def _csv(rng, n):
    tokens = [str(rng.randint(0, 3)) for _ in range(n if rng.random() < 0.7 else rng.randint(0, 7))]
    if tokens and rng.random() < 0.2:
        tokens[rng.randrange(len(tokens))] = rng.choice(("-1", "x", "", " 2", "1.5"))
    return ",".join(tokens)


def test_fuzz_exit_codes_are_documented(tmp_path, capsys):
    # small valid, malformed and edge-case documents for every subcommand, in
    # process: each run ends with a documented exit code (0, 2 or 3), never a
    # raised exception
    rng = random.Random(11)
    formula = {"vars": 4, "clauses": [[-1, 3], [1, 2, 4], [1, -4], [-2, -3], [2, 3, 4]]}
    triples = {"n": 2, "triples": [[0, 0, 0], [1, 1, 1], [0, 1, 1], [1, 0, 0]]}
    for i in range(300):
        n = rng.randint(1, 6)
        pairs = list(itertools.combinations(range(n), 2))
        edges = rng.sample(pairs, rng.randint(0, min(6, len(pairs))))
        degrees = [sum(v in e for e in edges) for v in range(n)]
        if rng.random() < 0.3:
            degrees[rng.randrange(n)] += rng.choice((-1, 1))
        cuts = [{"set": sorted(rng.sample(range(n), rng.randint(1, max(1, min(n - 1, 4))))),
                 "ell": rng.randint(0, 6)} for _ in range(rng.randint(0, 4))]
        a, b = tmp_path / f"a{i}.json", tmp_path / f"b{i}.json"
        text = json.dumps(_mutated(rng, {"version": 1, "degrees": degrees, "cuts": cuts}))
        if rng.random() < 0.05:
            text = text[:rng.randrange(len(text) + 1)]
        a.write_text(text)
        b.write_text(json.dumps(_mutated(rng, {"n": n, "edges": [list(e) for e in edges]})))
        budget = ("--budget", rng.choice(("0", "1", "40")))
        argv = rng.choice((
            ["solve", str(a), "--method", rng.choice(("auto", "tree", "ffactor", "reduce3", "oracle")),
             *budget],
            ["verify", str(a), str(b)],
            ["reduce3", str(a)],
            ["oracle", str(a), *budget, *rng.choice(((), ("--enumerate", str(rng.randint(-1, 3)))))],
            ["degseq", _csv(rng, n)],
            ["ffactor", str(b), "--f", _csv(rng, n)],
        ))
        if i % 10 == 0:
            c = tmp_path / f"c{i}.json"
            if i % 20:
                c.write_text(json.dumps(_mutated(rng, formula)))
                argv = ["gen", "sat13", "--formula", str(c), "--k", str(rng.randint(-1, 3))]
            else:
                c.write_text(json.dumps(_mutated(rng, triples)))
                argv = ["gen", "3dm", "--triples", str(c)]
        code = cli_main(argv)
        capsys.readouterr()
        assert code in (0, 2, 3), (argv, a.read_text(), b.read_text())
