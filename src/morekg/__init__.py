"""Toolkit for turning tabular motor-test study data into a
BFO-grounded RDF knowledge graph, with rule materialization, a SPARQL
subset, and privacy-filtered graph views."""

from .rdf import BlankNode, Graph, IRI, Literal, PrefixMap, Term

__version__ = "0.1.0"

__all__ = [
    "BlankNode",
    "Graph",
    "IRI",
    "Literal",
    "PrefixMap",
    "Term",
    "__version__",
]
