"""Command-line surface.

Subcommands: solve, verify, reduce3, oracle, degseq, ffactor, gen sat13,
gen 3dm.  Instance/graph arguments are JSON files; "-" reads standard input.
All outputs are newline-terminated single-line JSON for pipeline composition.
Exit codes: 0 for any completed decision (yes or no), 2 for invalid input or
usage, 3 when the node budget or memory runs out or a requested size is too
large to index (the latter two reported on one "error: resource: ..." line),
4 for any other failure, such as an internal consistency check (a bug,
reported on one "error: internal: ..." line).  ``cli_main`` is the one place
that maps an exception to an exit code.  The environment variable GRC_BUDGET
overrides the default node budget; a --budget flag overrides both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .degseq import havel_hakimi
from .ffactor import solve_f_factor
from .hardness import sat_to_grc, tdm_to_grc
from .model import (
    Contradiction,
    InvalidInstanceError,
    Status,
    graph_from_json,
    graph_to_json,
    instance_from_json,
    instance_to_json,
    verify_realization,
)
from .oracle import (
    DEFAULT_NODE_BUDGET,
    OneInThreeInstance,
    ThreeDMInstance,
    _BudgetExhausted,
    enumerate_realizations,
    oracle_solve,
)
from .preprocess import screen_instance, trace_to_json
from .reduce3 import UnsafeReduction, reduce_to_width2
from .solver import METHODS, solve

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _emit(doc) -> None:
    print(json.dumps(doc, sort_keys=True))


def _load_json(path: str):
    # Nesting too deep for the decoder is invalid input, not an internal failure.
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except RecursionError as exc:
        raise InvalidInstanceError(f"JSON document is nested too deeply: {exc}") from None


def _write_json(path: str, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def _budget(args) -> int:
    if getattr(args, "budget", None) is not None:
        budget, source = args.budget, "--budget"
    elif (env := os.environ.get("GRC_BUDGET")) is not None:
        try:
            budget, source = int(env), "GRC_BUDGET"
        except ValueError:
            raise InvalidInstanceError(f"GRC_BUDGET must be an integer, got {env!r}") from None
    else:
        return DEFAULT_NODE_BUDGET
    if budget < 0:
        raise InvalidInstanceError(f"{source} must be nonnegative, got {budget}")
    return budget


def _outcome_exit(args, outcome) -> int:
    if outcome.status is Status.RESOURCE_LIMIT:
        _emit({"realizable": None, "method": outcome.method})
        return EXIT_BUDGET
    _emit({"realizable": outcome.is_realizable, "method": outcome.method})
    if outcome.witness is not None and getattr(args, "witness", None):
        _write_json(args.witness, graph_to_json(outcome.witness))
    return EXIT_OK


def _cmd_solve(args) -> int:
    inst = instance_from_json(_load_json(args.instance))
    outcome = solve(inst, method=args.method, node_budget=_budget(args))
    return _outcome_exit(args, outcome)


def _cmd_verify(args) -> int:
    inst = instance_from_json(_load_json(args.instance))
    g = graph_from_json(_load_json(args.graph))
    report = verify_realization(g, inst)
    _emit({"valid": report.ok, "violations": list(report.violations)})
    return EXIT_OK


def _cmd_reduce3(args) -> int:
    inst = instance_from_json(_load_json(args.instance))
    try:
        reduced, trace = reduce_to_width2(screen_instance(inst))
    except Contradiction as exc:
        _emit({"infeasible": True, "reason": str(exc)})
        return EXIT_OK
    except UnsafeReduction as exc:
        _emit({"unsafe": list(exc.offenders)})
        return EXIT_INVALID
    trace_doc = trace_to_json(trace)
    _emit({"instance": instance_to_json(reduced.to_instance()), "trace": trace_doc})
    if args.trace:
        _write_json(args.trace, trace_doc)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    if args.enumerate is not None and args.enumerate < 1:
        raise InvalidInstanceError(f"--enumerate needs N >= 1, got {args.enumerate}")
    inst = instance_from_json(_load_json(args.instance))
    budget = _budget(args)
    if args.enumerate is not None:
        try:
            witnesses = enumerate_realizations(inst, args.enumerate, budget)
        except _BudgetExhausted:
            _emit({"count": None, "method": "oracle", "realizable": None})
            return EXIT_BUDGET
        _emit({"count": len(witnesses), "method": "oracle",
               "realizable": bool(witnesses)})
        if getattr(args, "witness", None):
            _write_json(args.witness, [graph_to_json(g) for g in witnesses])
        return EXIT_OK
    outcome = oracle_solve(inst, budget)
    return _outcome_exit(args, outcome)


def _int_list(text: str, what: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise InvalidInstanceError(f"{what} must be comma-separated integers: {text!r}") from None


def _cmd_degseq(args) -> int:
    witness = havel_hakimi(_int_list(args.sequence, "degree sequence"))
    _emit({"realizable": witness is not None})
    if witness is not None and args.witness:
        _write_json(args.witness, graph_to_json(witness))
    return EXIT_OK


def _cmd_ffactor(args) -> int:
    host = graph_from_json(_load_json(args.host))
    factor = solve_f_factor(host, _int_list(args.f, "--f"))
    _emit({"feasible": factor is not None})
    if factor is not None and args.witness:
        _write_json(args.witness, graph_to_json(factor))
    return EXIT_OK


def _source_from_json(path: str, cls, keys: tuple[str, str], what: str):
    """The generator source problem ``cls`` read from the document at ``path``."""
    doc = _load_json(path)
    if not isinstance(doc, dict) or any(key not in doc for key in keys):
        raise InvalidInstanceError(f'{what} document needs "{keys[0]}" and "{keys[1]}"')
    try:
        return cls(doc[keys[0]], tuple(tuple(item) for item in doc[keys[1]]))
    except (TypeError, ValueError) as exc:
        raise InvalidInstanceError(f"bad {what} document: {exc}") from None


def _emit_encoding(args, encoded) -> int:
    inst, gm = encoded
    _emit(instance_to_json(inst))
    if args.map:
        _write_json(args.map, gm.to_json())
    return EXIT_OK


def _cmd_gen_sat13(args) -> int:
    formula = _source_from_json(args.formula, OneInThreeInstance, ("vars", "clauses"), "formula")
    return _emit_encoding(args, sat_to_grc(formula, args.k, all_ones=args.all_ones))


def _cmd_gen_3dm(args) -> int:
    triples = _source_from_json(args.triples, ThreeDMInstance, ("n", "triples"), "triples")
    return _emit_encoding(args, tdm_to_grc(triples))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grc",
        description="Realize a simple labeled graph under degree and exact edge-cut-size constraints.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="decide an instance, optionally writing a witness")
    p.add_argument("instance", help='instance JSON file, or "-" for stdin')
    p.add_argument("--witness", help="write the witness graph JSON here")
    p.add_argument("--method", choices=METHODS, default="auto")
    p.add_argument("--budget", type=int, help="search node budget for the exhaustive path")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("verify", help="check a graph against an instance")
    p.add_argument("instance")
    p.add_argument("graph")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("reduce3", help="rewrite size-3 cuts into width-2 form")
    p.add_argument("instance")
    p.add_argument("--trace", help="also write the rewrite trace JSON here")
    p.set_defaults(fn=_cmd_reduce3)

    p = sub.add_parser("oracle", help="exhaustive reference solver")
    p.add_argument("instance")
    p.add_argument("--enumerate", type=int, help="list up to N realizations")
    p.add_argument("--budget", type=int)
    p.add_argument("--witness")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("degseq", help="classical degree-sequence realization")
    p.add_argument("sequence", help="comma-separated degrees, e.g. 3,3,3,3")
    p.add_argument("--witness")
    p.set_defaults(fn=_cmd_degseq)

    p = sub.add_parser("ffactor", help="degree-exact subgraph of a host graph")
    p.add_argument("host", help='host graph JSON file, or "-"')
    p.add_argument("--f", required=True, help="comma-separated degree targets")
    p.add_argument("--witness")
    p.set_defaults(fn=_cmd_ffactor)

    p = sub.add_parser("gen", help="hardness instance generators")
    gen_sub = p.add_subparsers(dest="generator", required=True)

    q = gen_sub.add_parser("sat13", help="encode a (2,1) exactly-one formula with true-count k")
    q.add_argument("--formula", required=True, help='formula JSON: {"vars": n, "clauses": [[lit...]...]}')
    q.add_argument("--k", required=True, type=int)
    q.add_argument("--all-ones", action="store_true", dest="all_ones",
                   help="replace the collector vertex by degree-1 copies")
    q.add_argument("--map", help="write the vertex-role map JSON here")
    q.set_defaults(fn=_cmd_gen_sat13)

    q = gen_sub.add_parser("3dm", help="encode a triple system with occurrence bound 3")
    q.add_argument("--triples", required=True, help='triples JSON: {"n": n, "triples": [[x,y,z]...]}')
    q.add_argument("--map", help="write the vertex-role map JSON here")
    q.set_defaults(fn=_cmd_gen_3dm)

    return parser


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code not in (0, None) else EXIT_OK
    # The one exit map.  InvalidInstanceError, MethodNotApplicable and a bad
    # JSON document are ValueErrors (exit 2); a size too large to allocate or
    # to index exits 3; anything else is a bug (exit 4).
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (MemoryError, OverflowError):
        print("error: resource: out of memory", file=sys.stderr)
        return EXIT_BUDGET
    except Exception as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
