"""Hypothesis strategies for RDF terms, triples, and graphs."""

from hypothesis import strategies as st

from morekg.privacy import LEVELS, GeneralizationSpec, Policy, Role
from morekg.rdf import BlankNode, Graph, IRI, Literal, iri_value
from morekg.rules import Rule, RuleSet, Var
from morekg import vocab

_LOCAL = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_",
    min_size=1, max_size=12)

iris = st.builds(lambda local: IRI("http://example.org/" + local), _LOCAL)
prefixed_iris = st.builds(lambda local: IRI(vocab.MORE + local), _LOCAL)
blanks = st.builds(BlankNode, _LOCAL)

_datatypes = st.sampled_from([
    iri_value(vocab.XSD_STRING),
    iri_value(vocab.XSD_INTEGER),
    iri_value(vocab.XSD_DECIMAL),
    iri_value(vocab.XSD_DATE),
    "http://example.org/custom",
])

_lexicals = st.text(max_size=20)

plain_literals = st.builds(Literal, _lexicals)
typed_literals = st.builds(Literal, _lexicals, _datatypes)
lang_literals = st.builds(
    lambda lex, lang: Literal(lex, lang=lang),
    _lexicals, st.sampled_from(["en", "de", "en-GB"]))
literals = st.one_of(plain_literals, typed_literals, lang_literals)

subjects = st.one_of(iris, prefixed_iris, blanks)
predicates = st.one_of(iris, prefixed_iris)
objects = st.one_of(iris, prefixed_iris, blanks, literals)

triples = st.tuples(subjects, predicates, objects)


@st.composite
def graphs(draw, max_size=25):
    ts = draw(st.lists(triples, max_size=max_size))
    return Graph(ts)


# Graphs of 8 to 25 triples over six nodes and one literal, using only the
# predicates that rule bodies use (the builtins' and partOfStudy), so that
# rules fire: in roughly 35-45% of examples, against none for ``graphs``.
_rule_nodes = [IRI("http://example.org/n%d" % i) for i in range(6)]
_rule_predicates = [
    vocab.RDF_TYPE, vocab.RDFS_SUBCLASSOF, vocab.PATO_EXECUTES,
    vocab.OBI_HAS_SPECIFIED_OUTPUT, vocab.OBI_HAS_VALUE_SPECIFICATION,
    vocab.OBI_SPECIFIES_VALUE_OF, vocab.BFO_CONCRETIZES, vocab.OBI_REALIZES,
    vocab.MORE_PART_OF_STUDY,
]
rule_triples = st.tuples(
    st.sampled_from(_rule_nodes), st.sampled_from(_rule_predicates),
    st.sampled_from(_rule_nodes + [Literal("v")]))


@st.composite
def rule_graphs(draw, max_size=25):
    return Graph(draw(st.lists(rule_triples, min_size=8, max_size=max_size)))


# Rule bodies of 1 to 4 atoms over the terms of ``rule_graphs``, three
# variables (so that one repeats within an atom or joins two atoms) and a
# constant that no rule graph contains.
_rule_vars = [Var("a"), Var("b"), Var("c")]
ABSENT = IRI("http://example.org/absent")
rule_bodies = st.lists(st.tuples(
    st.sampled_from(_rule_vars + _rule_nodes + [ABSENT]),
    st.sampled_from(_rule_vars + _rule_predicates + [ABSENT]),
    st.sampled_from(_rule_vars + _rule_nodes + [Literal("v"), ABSENT]),
), min_size=1, max_size=4)


@st.composite
def drawn_bodies(draw, graphs):
    """A body whose atom ``i`` is a triple drawn from ``graphs[i]``, with
    some terms made variables throughout the body, so the drawn triples
    are a solution and no join is empty."""
    atoms = [draw(st.sampled_from(sorted(g, key=repr))) for g in graphs]
    terms = sorted({t for atom in atoms for t in atom}, key=repr)
    hidden = draw(st.lists(st.sampled_from(terms), unique=True))
    names = {t: Var("v%d" % i) for i, t in enumerate(hidden)}
    return [tuple(names.get(t, t) for t in atom) for atom in atoms]


@st.composite
def one_graph_joins(draw):
    """``(graph, body)``: 1 to 4 atoms drawn from one rule graph."""
    g = draw(rule_graphs())
    return g, draw(drawn_bodies([g] * draw(st.integers(1, 4))))


@st.composite
def two_graph_joins(draw):
    """``(graphs, body)``: 1 to 4 atoms, each drawn from one of two rule
    graphs."""
    pair = [draw(rule_graphs()), draw(rule_graphs())]
    graphs = draw(st.lists(st.sampled_from(pair), min_size=1, max_size=4))
    return graphs, draw(drawn_bodies(graphs))


# Rule sets of 1 to 3 rules whose constants are any of the terms above:
# bodies of 1 to 3 atoms over three variables, heads over the variables
# their body binds.
_pattern_vars = st.sampled_from([Var("x"), Var("y"), Var("z")])
_body_atoms = st.tuples(st.one_of(_pattern_vars, subjects),
                        st.one_of(_pattern_vars, predicates),
                        st.one_of(_pattern_vars, objects))


@st.composite
def rules(draw):
    out = []
    for i in range(draw(st.integers(1, 3))):
        body = tuple(draw(st.lists(_body_atoms, min_size=1, max_size=3)))
        bound = sorted({t.name for atom in body for t in atom if isinstance(t, Var)})
        known = st.sampled_from([Var(n) for n in bound]) if bound else st.nothing()
        head = tuple(draw(st.lists(st.tuples(
            st.one_of(known, subjects), st.one_of(known, predicates),
            st.one_of(known, objects)), min_size=1, max_size=2)))
        out.append(Rule("r%d" % i, body, head))
    return RuleSet(out)


# Terms for the value order: numbers of five datatypes whose lexicals
# often denote equal values, valid and invalid dates, strings and
# language strings that often share a lexical form, a custom datatype,
# IRIs and blank nodes; each datatype also gets lexicals it cannot parse.
_XSD = "http://www.w3.org/2001/XMLSchema#"
_BAD_LEXICALS = ["", "x", "1.2.3", "--1"]
# "0.1" as a decimal and as a double are two values; "1e-400" as a double
# reads as 0; the 32-digit decimal is above 1, though 28 digits round it to 1.
_NUMBER_LEXICALS = {
    "integer": ["0", "1", "-2", "10", "+7", "-0"],
    "decimal": ["1.0", "0.5", "-2.50", "10.0", "0.1", "5.", ".5",
                "1.0000000000000000000000000000001"],
    "double": ["1e0", "0.5", "-2", "1E1", "INF", "-INF", "NaN", "1e400", "0.1", "1e-400",
               "-0"],
    "float": ["1", "0.5E0", "-2.0"],
    "gYear": ["2015", "2020", "-0044"],
}
_DATE_LEXICALS = ["2015-01-01", "2015-6-01", "2020-02-29", "2019-02-29",
                  "20150101", "2015-01-01Z", "2016-01-01"]
_STRING_LEXICALS = ["", "1", "2015-01-01", "a", "b", "A"]

value_terms = st.one_of(
    st.builds(lambda dt, lex: Literal(lex, _XSD + dt), st.sampled_from(sorted(_NUMBER_LEXICALS)),
              st.sampled_from(_BAD_LEXICALS)),
    *(st.builds(lambda lex, dt=dt: Literal(lex, _XSD + dt), st.sampled_from(lexicals))
      for dt, lexicals in sorted(_NUMBER_LEXICALS.items())),
    st.builds(lambda lex: Literal(lex, iri_value(vocab.XSD_DATE)),
              st.sampled_from(_DATE_LEXICALS + _BAD_LEXICALS)),
    st.builds(Literal, st.sampled_from(_STRING_LEXICALS)),
    st.builds(lambda lex, lang: Literal(lex, lang=lang), st.sampled_from(_STRING_LEXICALS),
              st.sampled_from(["en", "de"])),
    st.builds(lambda lex: Literal(lex, "http://example.org/dt"),
              st.sampled_from(_STRING_LEXICALS)),
    st.builds(lambda local: IRI("http://example.org/" + local), st.sampled_from("abc")),
    st.builds(BlankNode, st.sampled_from("ab")),
)


# Graphs and policies for role views: instances typed with a small class
# hierarchy, properties with subproperties (one of them the band predicate
# of another, so a band triple can meet one already there), integer,
# decimal and string values, and one role that denies at least one level
# and bands some denied properties.  Terms are few, so that leaves hold
# several terms, denied classes have instances and banded properties
# have values: a view both drops and bands in most examples.
_view_nodes = [IRI("http://example.org/n%d" % i) for i in range(4)]
_view_classes = [IRI("http://example.org/C%d" % i) for i in range(2)]
_p0 = IRI("http://example.org/p0")
_view_properties = [_p0, IRI("http://example.org/p1"), IRI(iri_value(_p0) + "Band")]
_view_values = [Literal("7", iri_value(vocab.XSD_INTEGER)),
                Literal("12.5", iri_value(vocab.XSD_DECIMAL)),
                Literal("x")]
view_triples = st.one_of(
    st.tuples(st.sampled_from(_view_nodes), st.just(vocab.RDF_TYPE),
              st.sampled_from(_view_classes)),
    st.tuples(st.sampled_from(_view_classes), st.just(vocab.RDFS_SUBCLASSOF),
              st.sampled_from(_view_classes)),
    st.tuples(st.sampled_from(_view_properties), st.just(vocab.RDFS_SUBPROPERTYOF),
              st.sampled_from(_view_properties)),
    st.tuples(st.sampled_from(_view_nodes), st.sampled_from(_view_properties),
              st.sampled_from(_view_nodes + _view_values)),
    st.tuples(st.sampled_from(_view_nodes), st.sampled_from(_view_properties),
              st.sampled_from(_view_nodes + _view_values)),
)


@st.composite
def view_graphs(draw, max_size=40):
    return Graph(draw(st.lists(view_triples, min_size=10, max_size=max_size)))


@st.composite
def view_policies(draw):
    """A policy with one role, ``r``."""
    targets = _view_classes + _view_properties + [vocab.RDF_TYPE]
    annotations = draw(st.dictionaries(st.sampled_from(targets), st.sampled_from(LEVELS),
                                       min_size=1, max_size=5))
    properties = sorted((t for t in annotations if t in _view_properties),
                        key=iri_value)
    generalizations = draw(st.dictionaries(
        st.sampled_from(properties) if properties else st.nothing(),
        st.builds(GeneralizationSpec, st.integers(1, 10))))
    allowed = draw(st.frozensets(st.sampled_from(LEVELS), max_size=2))
    return Policy(annotations=annotations,
                  roles={"r": Role("r", allowed, generalizations)})
