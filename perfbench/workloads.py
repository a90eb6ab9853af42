"""The three workloads: their inputs, timed bodies and output checks.

Every call into morekg goes through a public function of one of its
layers (fixtures, ingestion, ontology, rules, rdf, serdes, query,
privacy, cq) and is wrapped in a span named ``<layer>.<function>``.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Callable
from itertools import islice
from pathlib import Path

from morekg import cq
from morekg.fixtures import generate_fixture
from morekg.ingestion import emit_kg, load_bundle, validate_bundle
from morekg.ontology import build_schema
from morekg.privacy import apply_policy, audit_view, default_policy
from morekg.query import evaluate, parse_query, to_csv
from morekg.rdf import Graph
from morekg.rules import builtin_ruleset, materialize
from morekg.serdes import parse_ntriples, parse_turtle, write_ntriples, write_turtle

import oracle

_PREFIXES = """\
PREFIX more: <https://w3id.org/more#>
PREFIX obi: <http://purl.obolibrary.org/obo/OBI_>
PREFIX iao: <http://purl.obolibrary.org/obo/IAO_>
PREFIX bfo: <http://purl.obolibrary.org/obo/BFO_>
PREFIX pato: <http://purl.obolibrary.org/obo/PATO_>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
"""

# The values are reached through the value specification's more:hasValue,
# which every datum has whichever object obi:has_value_specification
# carries directly.
QUERIES = {
    "cq1": cq.CQ1_QUERY,
    "cq2": cq.CQ2_QUERY,
    "cq1_shortcut": _PREFIXES + """
SELECT ?age (AVG(?v) AS ?avgStrength)
WHERE {
  more:Handgrip more:measures_disposition ?disp .
  ?disp bfo:inheres_in ?person .
  ?person more:hasAge ?age .
  ?vs obi:specifies_value_of ?disp ;
      more:hasValue ?v .
}
GROUP BY ?age
ORDER BY ?age
""",
    "item_counts": _PREFIXES + """
SELECT ?item (COUNT(?datum) AS ?n)
WHERE {
  ?process pato:executes ?item ;
           obi:has_specified_output ?datum .
}
GROUP BY ?item
""",
    "date_range": _PREFIXES + """
SELECT ?process ?date
WHERE {
  ?process more:hasSessionDate ?date .
  FILTER(?date >= "%s"^^xsd:date && ?date <= "%s"^^xsd:date)
}
""" % (oracle.DATE_LO, oracle.DATE_HI),
    "top10": _PREFIXES + """
SELECT ?v
WHERE {
  ?test a more:HandgripTestProcess ;
        obi:has_specified_output ?datum .
  ?datum obi:has_value_specification ?vs .
  ?vs more:hasValue ?v .
}
ORDER BY DESC(?v)
LIMIT 10
""",
    "process_count": _PREFIXES + """
SELECT (COUNT(?x) AS ?n)
WHERE { ?x a bfo:Process . }
""",
    # public role: more:hasAge is replaced by 5-year more:hasAgeBand labels
    "band_avg": _PREFIXES + """
SELECT ?band (AVG(?v) AS ?avgStrength)
WHERE {
  ?test a more:HandgripTestProcess ;
        obi:has_participant ?person ;
        obi:has_specified_output ?datum .
  ?datum obi:has_value_specification ?vs .
  ?vs more:hasValue ?v .
  ?person more:hasAgeBand ?band .
}
GROUP BY ?band
ORDER BY ?band
""",
}

# The query workload's mix, in the order one pass runs it.
MIX = ("cq1", "cq2", "cq1_shortcut", "item_counts", "date_range", "top10",
       "process_count")
SHAPES = MIX + ("band_avg",)

# Chunk size for loading a KG file in set-up.  Parsing it whole would hold
# the text and its line list next to the graph; run.py resets the peak
# RSS after set-up, and small chunks keep set-up's peak low where that
# reset is unavailable.
LOAD_CHUNK_LINES = 2000


def run_query(g: Graph, shape: str, tr) -> tuple[float, str]:
    """One sample: parse_query + evaluate + to_csv; returns (seconds, csv)."""
    t0 = time.perf_counter()
    with tr.span("query.call." + shape):
        with tr.span("query.parse_query"):
            ast = parse_query(QUERIES[shape])
        with tr.span("query.evaluate." + shape) as sp:
            table = evaluate(g, ast)
            sp.n = len(table.rows)
        with tr.span("query.to_csv." + shape):
            text = to_csv(table)
    return time.perf_counter() - t0, text


def build_kg(bundle_dir, tr) -> tuple[Graph, str]:
    """The ``morekg build --materialize`` pipeline; returns the
    materialized graph and its canonical N-Triples."""
    with tr.span("ingestion.load_bundle"):
        bundle = load_bundle(bundle_dir)
    with tr.span("ingestion.validate_bundle"):
        validate_bundle(bundle)
    with tr.span("ontology.build_schema"):
        schema = build_schema(bundle.items)
    with tr.span("ingestion.emit_kg") as sp:
        g = emit_kg(bundle, schema)
        sp.n = len(g)
    with tr.span("rdf.update_schema"):
        g.update(schema.graph)
    emitted = len(g)
    with tr.span("rules.materialize") as sp:
        kg = materialize(g, builtin_ruleset())
        sp.n = len(kg)
    tr.note("rules.new_triples", len(kg) - emitted)
    tr.note("rules.output_triples", len(kg))
    del g
    with tr.span("serdes.write_ntriples") as sp:
        nt = write_ntriples(kg)
        sp.n = len(kg)
    return kg, nt


def load_kg_file(path: Path, tr) -> Graph:
    g = Graph()
    with open(path, encoding="utf-8") as f:
        while True:
            chunk = "".join(islice(f, LOAD_CHUNK_LINES))
            if not chunk:
                return g
            with tr.span("serdes.parse_ntriples") as sp:
                part = parse_ntriples(chunk)
                sp.n = len(part)
            with tr.span("rdf.update"):
                g.update(part)
            del chunk, part


def _load_nothing(in_dir: Path, tr) -> dict:
    return {}


def _load_kg(in_dir: Path, tr) -> dict:
    return {"kg": load_kg_file(in_dir / "kg.nt", tr)}


def _load_nt_text(in_dir: Path, tr) -> dict:
    return {"nt": (in_dir / "kg.nt").read_text(encoding="utf-8")}


def _ingest_body(state, tr) -> dict:
    kg, nt = build_kg(state["in_dir"] / "bundle", tr)
    return {"kg": kg, "nt": nt}


def _ingest_check(state, out, facts, tr) -> list:
    digest = hashlib.sha256(out.pop("nt").encode("utf-8")).hexdigest()
    first = state.setdefault("digest", digest)
    err = None if digest == first else "canonical N-Triples digest changed"
    return [("ingest.digest", err)]


def _query_body(state, tr) -> dict:
    g = state["kg"]
    return {"kg": g, "calls": [(shape,) + run_query(g, shape, tr) for shape in MIX]}


def _query_check(state, out, facts, tr) -> list:
    return _check_calls(out["calls"], facts)


def _check_calls(calls, facts) -> list:
    """Oracle checks of one pass of the mix: (shape, seconds, csv) each."""
    results = []
    texts = {}
    for shape, _, text in calls:
        texts[shape] = text
        results.append(("query." + shape, _oracle_error(shape, text, facts)))
    results.append(("query.cq1_equals_shortcut",
                     _same_avgs_error(texts["cq1"], texts["cq1_shortcut"])))
    return results


def _redact_body(state, tr) -> dict:
    policy = state["policy"]
    with tr.span("serdes.parse_ntriples") as sp:
        g = parse_ntriples(state["nt"])
        sp.n = len(g)
    with tr.span("privacy.apply_policy.public") as sp:
        view = apply_policy(g, policy, "public")
        sp.n = len(g)
    with tr.span("privacy.audit_view") as sp:
        report = audit_view(view, policy, "public")
        sp.n = len(view)
    with tr.span("serdes.write_ntriples") as sp:
        write_ntriples(view)
        sp.n = len(view)
    with tr.span("serdes.write_turtle") as sp:
        ttl = write_turtle(view)
        sp.n = len(view)
    with tr.span("serdes.parse_turtle") as sp:
        reparsed = parse_turtle(ttl)
        sp.n = len(reparsed)
    _, band = run_query(reparsed, "band_avg", tr)
    with tr.span("privacy.apply_policy.researcher") as sp:
        full = apply_policy(g, policy, "researcher")
        sp.n = len(g)
    return {"kg": g, "view": view, "reparsed": reparsed, "violations": len(report),
            "band": band, "full": full}


def _note_view(tr, kg, view) -> None:
    if not tr.enabled:
        return
    tr.note("privacy.view_triples.public", len(view))
    tr.note("privacy.dropped_triples.public", sum(1 for t in kg if t not in view))


def _redact_check(state, out, facts, tr) -> list:
    _note_view(tr, out["kg"], out["view"])
    return [
        ("redact.turtle_round_trip",
         None if out.pop("reparsed") == out["view"] else "parse_turtle(write_turtle(view)) != view"),
        ("redact.public_audit",
         "%d audit violations" % out["violations"] if out["violations"] else None),
        ("redact.researcher_view",
         None if out.pop("full") == out["kg"] else "researcher view differs from the source"),
        ("redact.band_avg", _oracle_error("band_avg", out["band"], facts)),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    participants: int
    items: int
    seed: int
    needs_kg: bool  # set-up also builds and writes the materialized KG
    # In-process part of set-up: (input dir, tracer) -> state for the body.
    load: Callable[[Path, object], dict]
    # The timed body: (state, tracer) -> outputs; out["kg"] is its KG.
    body: Callable[[dict, object], dict]
    # Outside the timed body: (state, out, facts, tracer) -> one
    # (label, error or None) per check.
    check: Callable[[dict, dict, object, object], list]
    # After each iteration, outside the timed body: one pass of the query
    # mix over the iteration's output KG (query samples and oracle checks).
    mix_after_iteration: bool
    # After the timed loop: round trips and role views of the output KG.
    verify_views: bool

    def prepare(self, out_dir: Path, seed: int, tr) -> None:
        """Write this workload's input files; runs in a child process."""
        bundle_dir = out_dir / "bundle"
        with tr.span("fixtures.generate_fixture"):
            generate_fixture(bundle_dir, seed=seed, participants=self.participants,
                             items=self.items)
        if self.needs_kg:
            _, nt = build_kg(bundle_dir, tr)
            (out_dir / "kg.nt").write_text(nt, encoding="utf-8")

    def setup_state(self, in_dir: Path, tr) -> dict:
        state = {"in_dir": in_dir, "policy": default_policy()}
        state.update(self.load(in_dir, tr))
        return state


WORKLOADS = {
    "ingest": Workload("ingest", participants=300, items=2, seed=42, needs_kg=False,
                       load=_load_nothing, body=_ingest_body, check=_ingest_check,
                       mix_after_iteration=True, verify_views=True),
    "query": Workload("query", participants=300, items=4, seed=7, needs_kg=True,
                      load=_load_kg, body=_query_body, check=_query_check,
                      mix_after_iteration=False, verify_views=True),
    "redact": Workload("redact", participants=100, items=2, seed=11, needs_kg=True,
                       load=_load_nt_text, body=_redact_body, check=_redact_check,
                       mix_after_iteration=True, verify_views=False),
}


def _oracle_error(shape, text, facts):
    try:
        oracle.check(shape, text, facts)
    except oracle.OracleMismatch as e:
        return "%s: %s" % (shape, e)
    return None


def _same_avgs_error(a, b):
    try:
        oracle.check_same_avgs(a, b)
    except oracle.OracleMismatch as e:
        return str(e)
    return None


def verify_mix(kg: Graph, facts, tr) -> tuple[list, list]:
    """One pass of the query mix over ``kg``, checked against the oracles;
    returns (check results, query call seconds)."""
    with tr.root("verify", "verify.mix"):
        calls = [(shape,) + run_query(kg, shape, tr) for shape in MIX]
    return _check_calls(calls, facts), [sec for _, sec, _ in calls]


def verify_views(kg: Graph, facts, policy, tr) -> list:
    """Round trips and role views of a workload's output KG; returns the
    check results.  Runs after the timed loop."""
    results = []
    with tr.root("verify", "verify.views"):
        with tr.span("serdes.write_ntriples") as sp:
            nt = write_ntriples(kg)
            sp.n = len(kg)
        with tr.span("serdes.parse_ntriples") as sp:
            reparsed = parse_ntriples(nt)
            sp.n = len(reparsed)
        del nt
        results.append(("verify.ntriples_round_trip",
                        None if reparsed == kg else "parse_ntriples(write_ntriples(kg)) != kg"))
        del reparsed
        with tr.span("privacy.apply_policy.public") as sp:
            view = apply_policy(kg, policy, "public")
            sp.n = len(kg)
        with tr.span("privacy.audit_view") as sp:
            report = audit_view(view, policy, "public")
            sp.n = len(view)
        results.append(("verify.public_audit",
                        "%d audit violations" % len(report) if report else None))
        _note_view(tr, kg, view)
        with tr.span("serdes.write_turtle") as sp:
            ttl = write_turtle(view)
            sp.n = len(view)
        with tr.span("serdes.parse_turtle") as sp:
            reparsed = parse_turtle(ttl)
            sp.n = len(reparsed)
        del ttl
        results.append(("verify.turtle_round_trip",
                        None if reparsed == view else "parse_turtle(write_turtle(view)) != view"))
        _, band = run_query(reparsed, "band_avg", tr)
        results.append(("verify.band_avg", _oracle_error("band_avg", band, facts)))
        del view, reparsed
        with tr.span("privacy.apply_policy.researcher") as sp:
            full = apply_policy(kg, policy, "researcher")
            sp.n = len(kg)
        results.append(("verify.researcher_view",
                        None if full == kg else "researcher view differs from the source"))
    return results
