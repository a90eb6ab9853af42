"""Schema axioms for the motor-test knowledge graph, the one naming rule
for a test item's terms, and IRI aliasing.

RDFS entailment is ``rules.materialize`` with the builtin rules.  The
schema's subclass graph is acyclic: an item adds only ``<Name>TestProcess
⊑ more:TestProcess`` and ``<Kind>Disposition ⊑ bfo:Disposition``, above
which no class leads back, and ``item_terms`` rejects the empty name that
would put ``more:TestProcess`` under itself."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import vocab
from .bundle import BundleError, TestItemDef
from .rdf import IRI_EXCLUDED, Graph, IRI, Literal, Term, iri_value, is_iri


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
# The classes of the fixed axioms, which no item's individual may name.
FIXED_CLASSES = frozenset(c for axiom in _FIXED_SUBCLASS_AXIOMS for c in axiom)


def item_terms(key: str, disposition_label: str) -> tuple[Term, Term, Term]:
    """An item's individual ``more:<Name>``, process class
    ``more:<Name>TestProcess`` and disposition kind ``more:<Kind>``: the
    name is the camel-cased key, and the kind the camel-cased disposition
    label, suffixed ``Disposition`` unless it already ends so.  Raises
    ``BundleError`` when the name is empty or the kind is not an IRI."""
    name = vocab.camel_case(key)
    if not name:
        raise BundleError("key %r gives an empty item name" % key)
    kind = vocab.camel_case(disposition_label)
    if not kind.endswith("Disposition"):
        kind += "Disposition"
    bad = IRI_EXCLUDED.search(kind)
    if bad:
        raise BundleError("disposition_label %r gives a class name that is not an "
                          "IRI: it holds %r" % (disposition_label, bad.group()))
    return (IRI(vocab.MORE + name), IRI(vocab.MORE + name + "TestProcess"),
            IRI(vocab.MORE + kind))


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
        item_iri, proc_cls, kind_iri = item_terms(key, item.disposition_label)
        schema.item_iris[key] = item_iri
        schema.process_classes[key] = proc_cls
        schema.disposition_kinds[key] = kind_iri
        g.add(proc_cls, vocab.RDFS_SUBCLASSOF, vocab.MORE_TEST_PROCESS)
        g.add(item_iri, vocab.RDF_TYPE, vocab.MORE_TEST_ITEM)
        g.add(item_iri, vocab.RDFS_LABEL, Literal(item.label))
        g.add(kind_iri, vocab.RDFS_SUBCLASSOF, vocab.BFO_DISPOSITION)
    return schema


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
