"""Command-line entry point.

Exit codes: 0 success, 1 domain error (validation, parse, evaluation),
2 usage error.  The ``MOREKG_POLICY`` environment variable supplies a
default policy file path.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import yaml

from . import fixtures, serdes, vocab
from .bundle import BundleError
from .cq import run_cases
from .ingestion import emit_kg, load_bundle, validate_bundle
from .ontology import apply_aliases, build_schema
from .privacy import (PolicyError, apply_policy, audit_view, default_policy,
                      load_policy)
from .query import QueryError, evaluate, parse_query, to_csv, to_text
from .rules import RuleError, builtin_ruleset, export_rules, materialize, parse_rules
from .rdf import RdfError

DOMAIN_ERRORS = (BundleError, PolicyError, QueryError, RuleError, RdfError,
                 OSError, ValueError)


def _load_aliases(path) -> dict:
    if not path:
        return {}
    with open(path, encoding="utf-8") as f:
        data = yaml.safe_load(f) or {}
    if not isinstance(data, dict):
        raise BundleError("alias table %s: expected a mapping" % path)
    return {str(k): str(v) for k, v in data.items()}


def _resolve_policy(path):
    path = path or os.environ.get("MOREKG_POLICY")
    if path:
        return load_policy(path)
    return default_policy()


def cmd_build(args) -> int:
    bundle = load_bundle(args.bundle_dir)
    report = validate_bundle(bundle)
    for issue in report.warnings:
        print("warning: %s: %s" % (issue.location, issue.message), file=sys.stderr)
    schema = build_schema(bundle.items)
    graph = emit_kg(bundle, schema)
    graph.update(schema.graph)
    if args.materialize:
        graph = materialize(graph, builtin_ruleset())
    aliases = _load_aliases(args.aliases)
    if aliases:
        graph = apply_aliases(graph, aliases)
    serdes.write_file(graph, args.output)
    print("wrote %d triples to %s" % (len(graph), args.output))
    return 0


def cmd_validate(args) -> int:
    bundle = load_bundle(args.bundle_dir)
    report = validate_bundle(bundle)
    for issue in report.warnings:
        print("warning: %s: %s" % (issue.location, issue.message))
    print("bundle ok: %d participants, %d items, %d results, %d warning(s)"
          % (len(bundle.participants), len(bundle.items), len(bundle.results),
             len(report.warnings)))
    return 0


def cmd_materialize(args) -> int:
    graph = serdes.parse_file(args.kg)
    if args.rules:
        ruleset = parse_rules(Path(args.rules).read_text(encoding="utf-8"),
                              include_builtins=not args.no_builtins)
    elif args.no_builtins:
        raise RuleError("--no-builtins requires --rules")
    else:
        ruleset = builtin_ruleset()
    before = len(graph)
    materialize(graph, ruleset)
    serdes.write_file(graph, args.output)
    print("materialized %d -> %d triples" % (before, len(graph)))
    return 0


def cmd_query(args) -> int:
    graph = serdes.parse_file(args.kg)
    ast = parse_query(Path(args.query).read_text(encoding="utf-8"))
    if args.role:
        graph = apply_policy(graph, _resolve_policy(args.policy), args.role)
    if args.explain:
        from .query import explain
        print(explain(ast, graph))
        return 0
    table = evaluate(graph, ast, avg_places=args.places)
    sys.stdout.write(to_csv(table) if args.format == "csv" else to_text(table))
    return 0


def cmd_cq(args) -> int:
    graph = serdes.parse_file(args.kg)
    policy = _resolve_policy(args.policy)
    summary = run_cases(graph, args.cases_dir, policy)
    sys.stdout.write(summary.to_text())
    return 0 if summary.passed else 1


def cmd_redact(args) -> int:
    graph = serdes.parse_file(args.kg)
    view = apply_policy(graph, _resolve_policy(args.policy), args.role)
    serdes.write_file(view, args.output)
    print("wrote %d triples (from %d) to %s" % (len(view), len(graph), args.output))
    return 0


def cmd_audit(args) -> int:
    graph = serdes.parse_file(args.kg)
    policy = _resolve_policy(args.policy)
    report = audit_view(graph, policy, args.role)
    sys.stdout.write(report.to_csv() if args.format == "csv" else report.to_text())
    return 0 if not report else 1


def cmd_schema(args) -> int:
    if args.bundle_dir:
        items = load_bundle(args.bundle_dir).items
    else:
        items = fixtures.BUILTIN_ITEMS
    schema = build_schema(items)
    serdes.write_file(schema.graph, args.output)
    print("wrote %d schema triples to %s" % (len(schema.graph), args.output))
    return 0


def cmd_rules(args) -> int:
    text = export_rules(builtin_ruleset())
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print("wrote builtin rules to %s" % args.output)
    else:
        sys.stdout.write(text)
    return 0


def cmd_gen_fixture(args) -> int:
    fixtures.generate_fixture(
        args.out_dir, seed=args.seed, participants=args.participants,
        items=args.items, study_id=args.study_id, title=args.title,
        year_start=args.year_start, year_end=args.year_end)
    print("wrote fixture bundle to %s" % args.out_dir)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morekg",
        description="Motor-test study data to BFO-grounded knowledge graph toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="ingest a bundle directory and write the KG")
    p.add_argument("bundle_dir")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--materialize", action="store_true",
                   help="apply builtin rules before writing")
    p.add_argument("--aliases", help="IRI alias table (YAML)")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("validate", help="load and check a bundle directory")
    p.add_argument("bundle_dir")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("materialize", help="forward-chain rules on a KG file")
    p.add_argument("kg")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--rules", help="rule file (.rules)")
    p.add_argument("--no-builtins", action="store_true")
    p.set_defaults(func=cmd_materialize)

    p = sub.add_parser("query", help="run a query file against a KG")
    p.add_argument("kg")
    p.add_argument("query")
    p.add_argument("--role", help="evaluate against this role's policy view")
    p.add_argument("--policy", help="policy file (defaults to $MOREKG_POLICY)")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument("--places", type=int, default=6,
                   help="decimal places for AVG/SUM rendering")
    p.add_argument("--explain", action="store_true",
                   help="print the join plan instead of results")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("cq", help="run competency-question cases against a KG")
    p.add_argument("kg")
    p.add_argument("cases_dir")
    p.add_argument("--policy")
    p.set_defaults(func=cmd_cq)

    p = sub.add_parser("redact", help="write a role's filtered view of a KG")
    p.add_argument("kg")
    p.add_argument("--policy")
    p.add_argument("--role", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_redact)

    p = sub.add_parser("audit", help="check a KG/view against a role's policy")
    p.add_argument("kg")
    p.add_argument("--policy")
    p.add_argument("--role", required=True)
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("schema", help="schema operations (export)")
    p.add_argument("action", choices=("export",))
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--bundle-dir", help="derive item registry from a bundle")
    p.set_defaults(func=cmd_schema)

    p = sub.add_parser("rules", help="rule set operations (export)")
    p.add_argument("action", choices=("export",))
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_rules)

    p = sub.add_parser("gen-fixture", help="write a deterministic synthetic bundle")
    p.add_argument("out_dir")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--participants", type=int, default=30)
    p.add_argument("--items", type=int, default=2)
    p.add_argument("--study-id", default="st01")
    p.add_argument("--title", default="Synthetic motor performance study")
    p.add_argument("--year-start", type=int, default=2016)
    p.add_argument("--year-end", type=int, default=2019)
    p.set_defaults(func=cmd_gen_fixture)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DOMAIN_ERRORS as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
