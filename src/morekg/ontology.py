"""Schema axioms for the motor-test knowledge graph and an RDFS-subset
closure (subclass transitivity plus type propagation, by the builtin
rules)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import vocab
from .bundle import BundleError, TestItemDef
from .rdf import Graph, IRI, Literal, Term, iri_value, is_iri
from .rules import RuleSet, builtin_ruleset, materialize


class SubclassCycleError(Exception):
    def __init__(self, cycle: list[Term]):
        super().__init__(
            "subclass cycle: " + " -> ".join(map(iri_value, cycle))
        )
        self.cycle = cycle


@dataclass
class OntologySchema:
    """The schema graph and, per item key, the item's definition and its
    three terms: the test-item individual, its process class and its
    disposition kind."""
    graph: Graph
    items: dict[str, TestItemDef]
    item_iris: dict[str, Term]
    process_classes: dict[str, Term]
    disposition_kinds: dict[str, Term]


_FIXED_SUBCLASS_AXIOMS = (
    (vocab.MORE_STUDY, vocab.IAO_PLAN_SPECIFICATION),
    (vocab.IAO_PLAN_SPECIFICATION, vocab.IAO_INFORMATION_CONTENT_ENTITY),
    (vocab.MORE_TEST_ITEM, vocab.IAO_PLAN_SPECIFICATION),
    (vocab.MORE_TEST_PROCESS, vocab.OBI_ASSAY),
    (vocab.MORE_TEST_PROCESS, vocab.BFO_PROCESS),
    (vocab.MORE_PERSON, vocab.BFO_MATERIAL_ENTITY),
    (vocab.MORE_HANDGRIP_TEST_PROCESS, vocab.MORE_TEST_PROCESS),
)


def build_schema(item_registry: Sequence[TestItemDef]) -> OntologySchema:
    """Fixed axioms plus, per item, a process subclass, a test-item
    individual, and a disposition kind."""
    items: dict[str, TestItemDef] = {}
    for item in item_registry:
        if item.key in items:
            raise BundleError("duplicate test item key: %r" % item.key)
        items[item.key] = item

    g = Graph()
    for sub, sup in _FIXED_SUBCLASS_AXIOMS:
        g.add(sub, vocab.RDFS_SUBCLASSOF, sup)
    for prop in vocab.DECLARED_PROPERTIES:
        g.add(prop, vocab.RDF_TYPE, vocab.RDF_PROPERTY)

    schema = OntologySchema(g, items, {}, {}, {})
    for key, item in items.items():
        name = vocab.camel_case(key)
        kind = vocab.camel_case(item.disposition_label)
        if not kind.endswith("Disposition"):
            kind += "Disposition"
        item_iri = schema.item_iris[key] = IRI(vocab.MORE + name)
        proc_cls = schema.process_classes[key] = IRI(vocab.MORE + name + "TestProcess")
        kind_iri = schema.disposition_kinds[key] = IRI(vocab.MORE + kind)
        g.add(proc_cls, vocab.RDFS_SUBCLASSOF, vocab.MORE_TEST_PROCESS)
        g.add(item_iri, vocab.RDF_TYPE, vocab.MORE_TEST_ITEM)
        g.add(item_iri, vocab.RDFS_LABEL, Literal(item.label))
        g.add(kind_iri, vocab.RDFS_SUBCLASSOF, vocab.BFO_DISPOSITION)

    _check_subclass_cycles(g)
    return schema


def _check_subclass_cycles(g: Graph) -> None:
    """Raise ``SubclassCycleError`` on a ``rdfs:subClassOf`` cycle through
    two or more classes, naming it from its first class round to it."""
    direct: dict = {}
    for s, _, o in g.match(None, vocab.RDFS_SUBCLASSOF, None):
        if s != o:
            direct.setdefault(s, []).append(o)

    done: set = set()
    path: list = []

    def visit(c):
        if c in done:
            return
        if c in path:
            raise SubclassCycleError(path[path.index(c):] + [c])
        path.append(c)
        for d in direct.get(c, ()):
            visit(d)
        path.pop()
        done.add(c)

    for c in direct:
        visit(c)


_RDFS_RULES = ("subclass-transitivity", "type-propagation")


def rdfs_closure(g: Graph, schema: Optional[OntologySchema] = None) -> Graph:
    """Graph plus transitive subclass triples and propagated rdf:type
    triples: the fixpoint of the builtin ``subclass-transitivity`` and
    ``type-propagation`` rules, as a new graph; ``g`` is unchanged.
    Monotone and idempotent; raises ``SubclassCycleError`` on a subclass
    cycle."""
    g = g.copy()
    if schema is not None:
        g.update(schema.graph)
    _check_subclass_cycles(g)
    rdfs = [r for r in builtin_ruleset() if r.name in _RDFS_RULES]
    return materialize(g, RuleSet(rdfs))


def apply_aliases(g: Graph, aliases: dict[str, str]) -> Graph:
    """Rewrite IRIs per an alias table (old IRI -> replacement IRI)."""
    if not aliases:
        return g

    def swap(term):
        if is_iri(term) and iri_value(term) in aliases:
            return IRI(aliases[iri_value(term)])
        return term

    out = Graph()
    for s, p, o in g:
        out.add(swap(s), swap(p), swap(o))
    return out
