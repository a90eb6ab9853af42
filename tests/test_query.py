import warnings
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from morekg import vocab
from morekg.cq import CQ1_QUERY, CQ2_QUERY
from morekg.fixtures import generate_fixture
from morekg.ingestion import emit_kg, load_bundle
from morekg.ontology import build_schema
from morekg.query import (AggProjection, QueryError, QuerySyntaxError,
                          evaluate, explain, format_decimal, numeric_value,
                          parse_query, to_csv, to_text)
from morekg.rdf import Graph, IRI, Literal, iri_value, literal_parts
from morekg.rules import Var, plan
from morekg.serdes import term_to_ttl

from graph_oracles import (reference_bgp_eval, reference_compare, reference_number,
                           reference_sort_key)
from oracles import cq1_average_by_age, cq2_items_in_range
from strategies import graphs, value_terms

EX = "http://example.org/"

PEOPLE = """
PREFIX more: <https://w3id.org/more#>
SELECT ?p ?age WHERE { ?p a more:Person ; more:hasAge ?age . }
"""


def people_graph():
    g = Graph()
    for n, age in [("a", 9), ("b", 11), ("c", 9)]:
        p = IRI(EX + n)
        g.add(p, vocab.RDF_TYPE, vocab.MORE_PERSON)
        g.add(p, vocab.MORE_HAS_AGE, Literal(str(age), iri_value(vocab.XSD_INTEGER)))
    return g


class TestParser:
    def test_cq1_shape(self):
        q = parse_query(CQ1_QUERY)
        assert len(q.where) == 7
        assert q.group_by == ["age"]
        assert q.order_by == [("age", "asc")]
        agg = q.projections[1]
        assert isinstance(agg, AggProjection)
        assert (agg.func, agg.arg, agg.alias) == ("AVG", "strengthValue",
                                                  "avgStrength")

    def test_cq2_shape(self):
        q = parse_query(CQ2_QUERY)
        assert q.distinct
        assert len(q.where) == 3
        assert len(q.filters) == 1

    def test_syntax_error_position(self):
        with pytest.raises(QuerySyntaxError) as e:
            parse_query("SELECT ?x WHERE {\n?x ?p }")
        assert e.value.line == 2

    def test_unknown_prefix(self):
        with pytest.raises(QuerySyntaxError, match="zzz"):
            parse_query("SELECT ?x WHERE { ?x a zzz:Thing . }")

    @pytest.mark.parametrize("where,term", [
        ("?x <> ?y", "<>"),
        ('?x <p> "a\\q"', '"a\\q"'),
        ('?x ?p ?y FILTER(?y = "1"^^nope:int)', '"1"'),
        ("?x ?p _:b", "_:b"),
    ])
    def test_bad_term_reports_its_position(self, where, term):
        line = "WHERE { %s }" % where
        with pytest.raises(QuerySyntaxError) as e:
            parse_query("SELECT ?x\n" + line)
        assert (e.value.line, e.value.column) == (2, line.index(term) + 1)

    def test_prefix_namespace_escapes_decoded(self):
        q = parse_query("PREFIX ex: <http://a/\\u0041#> "
                        "SELECT ?x WHERE { ?x ex:b ?y }")
        assert q.where[0][1] == IRI("http://a/A#b")

    def test_projection_not_in_where(self):
        with pytest.raises(QueryError, match="\\?y"):
            parse_query("SELECT ?y WHERE { ?x a more:Person . }")

    def test_bare_var_beside_aggregate_needs_group_by(self):
        with pytest.raises(QueryError, match="GROUP BY"):
            parse_query("SELECT ?x (COUNT(?y) AS ?n) "
                        "WHERE { ?x more:hasAge ?y . }")

    def test_filter_var_not_in_where(self):
        with pytest.raises(QueryError, match="\\?z"):
            parse_query("SELECT ?x WHERE { ?x a more:Person . FILTER(?z > 1) }")

    # each fails at the first use of the offending variable
    @pytest.mark.parametrize("text,var", [
        ("SELECT ?y WHERE { ?x a more:Person . }", "?y"),
        ("SELECT ?x (COUNT(?y) AS ?n) WHERE { ?x a ?z . } GROUP BY ?x", "?y"),
        ("SELECT ?x WHERE { ?x a more:Person . } GROUP BY ?x ?w", "?w"),
        ("SELECT ?x WHERE { ?x a more:Person . FILTER(1 < ?z) }", "?z"),
        ("SELECT ?x (COUNT(?y) AS ?n) WHERE { ?x more:hasAge ?y . }", "?x"),
        ("SELECT ?x ?y WHERE { ?x more:hasAge ?y . } GROUP BY ?x", "?y"),
    ])
    def test_variable_error_reports_its_position(self, text, var):
        with pytest.raises(QuerySyntaxError) as e:
            parse_query("PREFIX ex: <http://example.org/>\n" + text)
        assert (e.value.line, e.value.column) == (2, text.index(var) + 1)

    # a sort key must be a result column, a projected variable or an
    # aggregate's alias; each fails at its sort variable
    @pytest.mark.parametrize("text", [
        "SELECT ?p WHERE { ?p more:hasAge ?v . } ORDER BY ?v",
        "SELECT ?p WHERE { ?p more:hasAge ?v . } ORDER BY DESC(?v)",
        "SELECT ?p WHERE { ?p more:hasAge ?age . } ORDER BY ASC(?p) ?v",
        "SELECT ?p (COUNT(?a) AS ?n) WHERE { ?p more:hasAge ?a . } GROUP BY ?p "
        "ORDER BY DESC(?n) ?v",
    ])
    def test_sort_key_not_a_result_column(self, text):
        with pytest.raises(QuerySyntaxError, match="not a result column") as e:
            parse_query("PREFIX more: <https://w3id.org/more#>\n" + text)
        assert (e.value.line, e.value.column) == (2, text.rindex("?v") + 1)

    def test_sort_keys_on_result_columns(self):
        q = parse_query("PREFIX more: <https://w3id.org/more#>\n"
                        "SELECT ?p (COUNT(?a) AS ?n) WHERE { ?p more:hasAge ?a . } "
                        "GROUP BY ?p ORDER BY DESC(?n) ?p")
        assert q.order_by == [("n", "desc"), ("p", "asc")]

    # each solution modifier may be given once; a repeat fails at itself
    @pytest.mark.parametrize("modifiers,clause", [
        ("LIMIT 1 LIMIT 2", "LIMIT"),
        ("OFFSET 1 LIMIT 5 OFFSET 2", "OFFSET"),
        ("GROUP BY ?p GROUP BY ?p", "GROUP"),
        ("ORDER BY ?p LIMIT 1 ORDER BY DESC(?p)", "ORDER"),
    ])
    def test_repeated_modifier(self, modifiers, clause):
        text = "SELECT ?p WHERE { ?p ?q ?o . } " + modifiers
        with pytest.raises(QuerySyntaxError, match="given twice") as e:
            parse_query(text)
        assert (e.value.line, e.value.column) == (1, text.rindex(clause) + 1)

    # GROUP BY, then ORDER BY, then LIMIT and OFFSET in either order; a
    # modifier out of place fails at itself
    @pytest.mark.parametrize("modifiers,clause,before", [
        ("LIMIT 1 ORDER BY ?p", "ORDER", "LIMIT"),
        ("ORDER BY ?p GROUP BY ?p", "GROUP", "ORDER BY"),
        ("GROUP BY ?p OFFSET 1 LIMIT 2 ORDER BY ?p", "ORDER", "LIMIT"),
    ])
    def test_modifier_out_of_order(self, modifiers, clause, before):
        text = "SELECT ?p WHERE { ?p ?q ?o . } " + modifiers
        with pytest.raises(QuerySyntaxError, match=r"must come before %s \(" % before) as e:
            parse_query(text)
        assert (e.value.line, e.value.column) == (1, text.rindex(clause) + 1)

    @pytest.mark.parametrize("bounds", ["OFFSET 1 LIMIT 2", "LIMIT 2 OFFSET 1"])
    def test_limit_and_offset_in_either_order(self, bounds):
        q = parse_query("SELECT ?p WHERE { ?p ?q ?o . } GROUP BY ?p ORDER BY ?p " + bounds)
        assert (q.group_by, q.order_by, q.limit, q.offset) == (["p"], [("p", "asc")], 2, 1)


class TestFormatDecimal:
    @pytest.mark.parametrize("frac,places,expected", [
        (Fraction(1, 2), 6, "0.500000"),
        (Fraction(1, 3), 6, "0.333333"),
        (Fraction(2, 3), 6, "0.666667"),
        (Fraction(25, 1000), 2, "0.03"),     # half rounds up
        (Fraction(-25, 1000), 2, "-0.03"),
        (Fraction(5), 0, "5"),
        (Fraction(65, 2), 1, "32.5"),
    ])
    def test_rendering(self, frac, places, expected):
        assert format_decimal(frac, places) == expected


class TestNumericValue:
    def test_typed_numbers(self):
        assert numeric_value(Literal("42", iri_value(vocab.XSD_INTEGER))) == 42
        assert numeric_value(Literal("1.5", iri_value(vocab.XSD_DECIMAL))) == \
            Fraction(3, 2)

    def test_non_numeric(self):
        assert numeric_value(Literal("hi")) is None
        assert numeric_value(IRI(EX + "x")) is None
        assert numeric_value(Literal("nope", iri_value(vocab.XSD_DECIMAL))) is None

    @pytest.mark.parametrize("lexical, datatype, value", [
        ("1/2", vocab.XSD_DECIMAL, None),
        ("1_000", vocab.XSD_INTEGER, None),
        (" 5", vocab.XSD_INTEGER, None),
        ("\u0661\u0662", vocab.XSD_INTEGER, None),  # Arabic-Indic 12
        ("+5", vocab.XSD_INTEGER, 5),
        ("-0.5", vocab.XSD_DECIMAL, Fraction(-1, 2)),
        (".5", vocab.XSD_DECIMAL, Fraction(1, 2)),
        ("1e3", vocab.XSD_DOUBLE, 1000),
        ("5.", vocab.XSD_DECIMAL, 5),
        ("-0", vocab.XSD_INTEGER, 0),
        ("0.1", vocab.XSD_DOUBLE, Fraction(0.1)),  # the binary value, not 1/10
        ("1e-400", vocab.XSD_DOUBLE, 0),
        ("1e400", vocab.XSD_DOUBLE, None),
        ("1.0000000000000000000000000000001", vocab.XSD_DECIMAL,
         1 + Fraction(1, 10 ** 31)),
    ])
    def test_xsd_lexical_forms_only(self, lexical, datatype, value):
        num = numeric_value(Literal(lexical, iri_value(datatype)))
        assert num == value
        assert value is None or type(num) is Fraction


_PAIRS = ("WHERE { ?s <http://example.org/v> ?a . ?s <http://example.org/v> ?b . %s }")


@settings(max_examples=300, deadline=None)
@given(st.lists(value_terms, min_size=1, max_size=6))
def test_value_order_agrees_with_reference(terms):
    g = Graph()
    for t in terms:
        g.add(IRI(EX + "s"), IRI(EX + "v"), t)
    objects = list(dict.fromkeys(terms))
    pairs = [(a, b) for a in objects for b in objects]
    for op in ("=", "!=", "<", "<=", ">", ">="):
        table = evaluate(g, parse_query("SELECT ?a ?b " + _PAIRS % ("FILTER(?a %s ?b)" % op)))
        assert Counter(table.rows) == Counter(p for p in pairs if reference_compare(op, *p)), op

    def keys(row):
        return tuple(map(reference_sort_key, row))

    for direction in ("ASC", "DESC"):
        table = evaluate(g, parse_query(
            "SELECT ?a ?b " + _PAIRS % "" + " ORDER BY %s(?a)" % direction))
        expected = sorted(pairs, key=keys)  # the canonical sort, then ORDER BY
        expected.sort(key=lambda row: reference_sort_key(row[0]),
                      reverse=(direction == "DESC"))
        assert Counter(table.rows) == Counter(pairs)
        assert list(map(keys, table.rows)) == list(map(keys, expected)), direction


class TestEvaluate:
    def test_simple_select(self):
        t = evaluate(people_graph(), parse_query(PEOPLE))
        assert t.columns == ["p", "age"]
        assert len(t.rows) == 3

    def test_filter_comparison(self):
        t = evaluate(people_graph(), parse_query(
            PEOPLE.replace("?age . }", "?age . FILTER(?age > 10) }")))
        assert [literal_parts(r[1])[0] for r in t.rows] == ["11"]

    def test_filter_bool_ops(self):
        q = PEOPLE.replace("?age . }",
                           "?age . FILTER(?age >= 9 && !(?age = 11)) }")
        t = evaluate(people_graph(), parse_query(q))
        assert all(literal_parts(r[1])[0] == "9" for r in t.rows) and len(t.rows) == 2

    def test_filter_type_error_is_false(self):
        g = people_graph()
        g.add(IRI(EX + "d"), vocab.RDF_TYPE, vocab.MORE_PERSON)
        g.add(IRI(EX + "d"), vocab.MORE_HAS_AGE, Literal("unknown"))
        q = PEOPLE.replace("?age . }", "?age . FILTER(?age > 0) }")
        t = evaluate(g, parse_query(q))
        assert len(t.rows) == 3  # the non-numeric row drops out

    def test_distinct(self):
        q = "PREFIX more: <https://w3id.org/more#> " \
            "SELECT DISTINCT ?age WHERE { ?p more:hasAge ?age . }"
        t = evaluate(people_graph(), parse_query(q))
        assert sorted(literal_parts(r[0])[0] for r in t.rows) == ["11", "9"]

    def test_order_by_desc_limit_offset(self):
        q = PEOPLE.rstrip() + " ORDER BY DESC(?age) LIMIT 2 OFFSET 1"
        t = evaluate(people_graph(), parse_query(q))
        assert [literal_parts(r[1])[0] for r in t.rows] == ["9", "9"]

    @pytest.mark.parametrize("clause", ["LIMIT -1", "OFFSET -1", "LIMIT +2"])
    def test_signed_limit_offset_rejected(self, clause):
        q = "SELECT ?s WHERE { ?s ?p ?o . } " + clause
        with pytest.raises(QuerySyntaxError, match="unsigned integer") as e:
            parse_query(q)
        assert e.value.column == q.index(clause.split()[1]) + 1  # at the number

    def test_default_order_is_canonical(self):
        g1 = people_graph()
        ts = sorted(set(g1), key=repr, reverse=True)
        g2 = Graph(ts)
        q = parse_query(PEOPLE)
        assert evaluate(g1, q).rows == evaluate(g2, q).rows

    def test_value_ties_order_by_text(self):
        # "1" and "1.0" tie by value; the rows must not follow insertion order
        ts = [(IRI(EX + "s0"), IRI(EX + "v"), Literal("1.0", iri_value(vocab.XSD_DECIMAL))),
              (IRI(EX + "s1"), IRI(EX + "v"), Literal("1", iri_value(vocab.XSD_INTEGER)))]
        q = parse_query("SELECT ?v WHERE { ?s <http://example.org/v> ?v . }")
        assert evaluate(Graph(ts), q).rows == evaluate(Graph(ts[::-1]), q).rows == \
            [(ts[1][2],), (ts[0][2],)]  # '"1"^^' sorts before '"1.0"^^'

    def test_aggregates(self):
        q = ("PREFIX more: <https://w3id.org/more#> "
             "SELECT (COUNT(*) AS ?n) (SUM(?age) AS ?s) (MIN(?age) AS ?lo) "
             "(MAX(?age) AS ?hi) (AVG(?age) AS ?m) "
             "WHERE { ?p more:hasAge ?age . }")
        t = evaluate(people_graph(), parse_query(q))
        n, s, lo, hi, m = t.rows[0]
        assert n == Literal("3", iri_value(vocab.XSD_INTEGER))
        assert s == Literal("29", iri_value(vocab.XSD_INTEGER))
        assert literal_parts(lo)[0] == "9" and literal_parts(hi)[0] == "11"
        assert m == Literal("9.666667", iri_value(vocab.XSD_DECIMAL))

    def test_sum_and_avg_exact_beyond_28_digits(self):
        # 28 significant digits would round each sum below
        g = Graph()
        for n, lexical in enumerate(["99999999999999999999999999999.5", "0.5",
                                     "0.0000000000000000000000000000001"]):
            g.add(IRI(EX + "p%d" % n), vocab.MORE_HAS_AGE,
                  Literal(lexical, iri_value(vocab.XSD_DECIMAL)))
        q = ("PREFIX more: <https://w3id.org/more#> "
             "SELECT (SUM(?age) AS ?s) (AVG(?age) AS ?m) WHERE { ?p more:hasAge ?age . "
             "FILTER(?age >= 0.5) }")
        t = evaluate(g, parse_query(q))
        assert t.rows == [(Literal("100000000000000000000000000000", iri_value(vocab.XSD_INTEGER)),
                           Literal("50000000000000000000000000000.000000",
                                   iri_value(vocab.XSD_DECIMAL)))]
        t = evaluate(g, parse_query(q.replace("FILTER(?age >= 0.5) ", "")), avg_places=33)
        assert [literal_parts(v)[0] for v in t.rows[0]] == [
            "100000000000000000000000000000.000000000000000000000000000000100",
            "33333333333333333333333333333.333333333333333333333333333333367"]

    def test_avg_places_override(self):
        q = ("PREFIX more: <https://w3id.org/more#> "
             "SELECT (AVG(?age) AS ?m) WHERE { ?p more:hasAge ?age . }")
        t = evaluate(people_graph(), parse_query(q), avg_places=2)
        assert literal_parts(t.rows[0][0])[0] == "9.67"

    def test_negative_avg_places_rejected(self):
        q = ("PREFIX more: <https://w3id.org/more#> "
             "SELECT (AVG(?age) AS ?m) WHERE { ?p more:hasAge ?age . }")
        with pytest.raises(QueryError, match="decimal places"):
            evaluate(people_graph(), parse_query(q), avg_places=-2)

    def test_group_by(self):
        q = ("PREFIX more: <https://w3id.org/more#> "
             "SELECT ?age (COUNT(?p) AS ?n) WHERE { ?p more:hasAge ?age . } "
             "GROUP BY ?age ORDER BY ?age")
        t = evaluate(people_graph(), parse_query(q))
        assert [(literal_parts(r[0])[0], literal_parts(r[1])[0]) for r in t.rows] == \
            [("9", "2"), ("11", "1")]

    def test_min_max_ties_keep_the_first_term(self):
        # "1" and "1.0" are one value: MIN and MAX give the term met first
        g = Graph()
        for n, term in [("a", Literal("1", iri_value(vocab.XSD_INTEGER))),
                        ("b", Literal("1.0", iri_value(vocab.XSD_DECIMAL))),
                        ("c", Literal("2", iri_value(vocab.XSD_INTEGER)))]:
            g.add(IRI(EX + n), IRI(EX + "v"), term)
        q = ("SELECT (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) "
             "WHERE { ?s <http://example.org/v> ?v . }")
        (lo, hi), = evaluate(g, parse_query(q)).rows
        assert (lo, hi) == (Literal("1", iri_value(vocab.XSD_INTEGER)),
                            Literal("2", iri_value(vocab.XSD_INTEGER)))
        g.add(IRI(EX + "d"), IRI(EX + "v"), Literal("2.0", iri_value(vocab.XSD_DECIMAL)))
        (_, hi), = evaluate(g, parse_query(q)).rows
        assert hi == Literal("2", iri_value(vocab.XSD_INTEGER))

    def test_avg_iri_binding_unbound_with_warning(self):
        # an IRI is not a number: the group's AVG is unbound, not skipped
        g = Graph()
        d = IRI(EX + "datum")
        g.add(d, vocab.OBI_HAS_VALUE_SPECIFICATION, IRI(EX + "vs"))
        g.add(d, vocab.OBI_HAS_VALUE_SPECIFICATION,
              Literal("32.5", iri_value(vocab.XSD_DECIMAL)))
        q = ("PREFIX obi: <http://purl.obolibrary.org/obo/OBI_> "
             "SELECT (AVG(?v) AS ?m) WHERE { ?d obi:has_value_specification ?v . }")
        with pytest.warns(UserWarning, match="non-numeric value '%s'" % (EX + "vs")):
            t = evaluate(g, parse_query(q))
        assert t.rows == [(None,)]

    def test_avg_non_numeric_literal_unbound_with_warning(self):
        g = Graph()
        g.add(IRI(EX + "p"), vocab.MORE_HAS_AGE, Literal("unknown"))
        q = ("PREFIX more: <https://w3id.org/more#> "
             "SELECT (AVG(?age) AS ?m) WHERE { ?p more:hasAge ?age . }")
        with pytest.warns(UserWarning, match="non-numeric"):
            t = evaluate(g, parse_query(q))
        assert t.rows == [(None,)]

    def test_empty_graph_count_zero(self):
        q = "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o . }"
        t = evaluate(Graph(), parse_query(q))
        assert t.rows == [(Literal("0", iri_value(vocab.XSD_INTEGER)),)]

    @settings(max_examples=40, deadline=None)
    @given(graphs(max_size=20))
    def test_bgp_join_matches_reference(self, g):
        q = parse_query("SELECT ?s ?o WHERE { ?s ?p ?o . ?o ?q ?z . }")
        got = evaluate(g, q)
        expected = {(b["s"], b["o"]) for b in reference_bgp_eval(g, q.where)}
        assert set(got.rows) == expected

    def test_fixture_bgp_matches_reference(self, fixture_graph):
        q = parse_query(CQ2_QUERY)
        ref = {b["item"] for b in reference_bgp_eval(fixture_graph, q.where)
               if 2015 <= int(literal_parts(b["y"])[0]) <= 2020}
        got = evaluate(fixture_graph, q)
        assert {r[0] for r in got.rows} == ref


# Graphs over four subjects and three predicates whose objects are value
# terms, which repeat often, and one query per shape of evaluate's work
# after the join: a FILTER, an ORDER BY of one column, GROUP BY on two
# variables with AVG and COUNT, and aggregates with no GROUP BY.
_memo_triples = st.tuples(st.sampled_from([IRI(EX + "s%d" % i) for i in range(4)]),
                          st.sampled_from([IRI(EX + p) for p in "vgh"]), value_terms)
_MEMO_PREFIX = "PREFIX ex: <http://example.org/> "
_ZERO = Literal("0", iri_value(vocab.XSD_INTEGER))


def _memo_filter(g, q, rows):
    expected = Counter((b["s"], b["v"]) for b in reference_bgp_eval(g, q.where)
                       if reference_compare(">", b["v"], _ZERO)
                       or reference_compare("=", b["v"], Literal("a")))
    assert Counter(rows) == expected


def _memo_order(g, q, rows):
    values = [b["v"] for b in reference_bgp_eval(g, q.where)]
    assert Counter(rows) == Counter((v,) for v in values)
    keys = [reference_sort_key(r[0]) for r in rows]
    assert keys == sorted(keys, reverse=True)


def _avg(values):
    nums = [reference_number(v) for v in values]
    if None in nums:
        return None
    return Literal(format_decimal(sum(nums) / len(nums)), iri_value(vocab.XSD_DECIMAL))


def _memo_group(g, q, rows):
    groups: dict = {}
    for b in reference_bgp_eval(g, q.where):
        groups.setdefault((b["g"], b["h"]), []).append(b["v"])
    assert Counter(rows) == Counter(
        key + (_avg(vs), Literal(str(len(vs)), iri_value(vocab.XSD_INTEGER)))
        for key, vs in groups.items())


def _memo_count(g, q, rows):
    nums = [reference_number(b["v"]) for b in reference_bgp_eval(g, q.where)]
    (n, low), = rows
    assert n == Literal(str(len(nums)), iri_value(vocab.XSD_INTEGER))
    if not nums or None in nums:
        assert low is None
    else:
        assert reference_number(low) == min(nums)


_MEMO_QUERIES = [
    ('SELECT ?s ?v WHERE { ?s ex:v ?v FILTER(?v > 0 || ?v = "a") }', _memo_filter),
    ("SELECT ?v WHERE { ?s ex:v ?v } ORDER BY DESC(?v)", _memo_order),
    ("SELECT ?g ?h (AVG(?v) AS ?avg) (COUNT(*) AS ?n) "
     "WHERE { ?s ex:v ?v ; ex:g ?g ; ex:h ?h } GROUP BY ?g ?h", _memo_group),
    ("SELECT (COUNT(?v) AS ?n) (MIN(?v) AS ?min) WHERE { ?s ex:v ?v }", _memo_count),
]


def _rows(g, q):
    with warnings.catch_warnings():  # non-numeric AVG and MIN values warn
        warnings.simplefilter("ignore")
        return evaluate(g, q).rows


class TestValueMemo:
    """``evaluate`` values each term once per graph: the memo must give
    the rows a fresh one gives, in the same order, on the same graph
    again, on its copy, and after triples that reuse its terms."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_memo_triples, max_size=14), st.lists(_memo_triples, min_size=1, max_size=6))
    def test_rows_do_not_depend_on_the_memo(self, first, more):
        g = Graph(first)
        for _ in range(2):
            for text, check in _MEMO_QUERIES:
                q = parse_query(_MEMO_PREFIX + text)
                rows = _rows(g, q)
                assert _rows(g, q) == rows
                assert _rows(g.copy(), q) == rows
                check(g, q, rows)
            g.update(more)

    def test_memo_lives_with_its_graph(self):
        g = people_graph()
        q = parse_query(PEOPLE + " ORDER BY ?age")
        assert g.value_memo is None
        evaluate(g, q)
        memo = g.value_memo
        before = memo.cache_info()
        evaluate(g, q)
        after = memo.cache_info()
        assert g.value_memo is memo and after.misses == before.misses
        assert after.hits > before.hits
        for other in (g.copy(), g.without()):
            assert other.value_memo is None
            evaluate(other, q)
            assert other.value_memo is not memo


class TestCompetencyQueries:
    def test_cq1_matches_csv_oracle(self, fixture_graph, fixture_dir):
        oracle = cq1_average_by_age(fixture_dir)
        t = evaluate(fixture_graph, parse_query(CQ1_QUERY), avg_places=12)
        got = {int(literal_parts(r[0])[0]): Fraction(literal_parts(r[1])[0]) for r in t.rows}
        assert set(got) == set(oracle)
        for age, avg in oracle.items():
            assert abs(got[age] - avg) < Fraction(1, 10**9)

    def test_cq1_ordered_by_age(self, fixture_graph):
        t = evaluate(fixture_graph, parse_query(CQ1_QUERY))
        ages = [int(literal_parts(r[0])[0]) for r in t.rows]
        assert ages == sorted(ages)

    def test_cq2_year_window(self, tmp_path, fixture_bundle, fixture_graph):
        generate_fixture(tmp_path, seed=7, participants=5, items=3,
                         study_id="st99", year_start=2005, year_end=2010)
        old = load_bundle(tmp_path)
        g = fixture_graph.copy()
        g.update(emit_kg(old, build_schema(old.items)))
        g.update(build_schema(old.items).graph)
        t = evaluate(g, parse_query(CQ2_QUERY))
        got = {iri_value(r[0]).rsplit("#", 1)[1] for r in t.rows}
        oracle = cq2_items_in_range([fixture_bundle, old])
        assert got == {vocab.camel_case(k) for k in oracle}
        assert "SitAndReach" not in got  # only in the 2005-2010 study


class TestRendering:
    def test_to_csv(self):
        q = ("PREFIX more: <https://w3id.org/more#> "
             "SELECT ?age (COUNT(?p) AS ?n) WHERE { ?p more:hasAge ?age . } "
             "GROUP BY ?age")
        out = to_csv(evaluate(people_graph(), parse_query(q)))
        assert out == "age,n\n9,2\n11,1\n"

    def test_to_text_row_count(self):
        out = to_text(evaluate(people_graph(), parse_query(PEOPLE)))
        assert out.endswith("(3 rows)\n")

    def test_explain_lists_all_patterns(self, fixture_graph):
        q = parse_query(CQ1_QUERY)
        described = explain(q, fixture_graph)
        assert len(described.steps) == 7
        assert "more:hasAge" in str(described)

        def show(t):
            return "?%s" % t.name if isinstance(t, Var) else term_to_ttl(t, q.prefixes)

        # the steps are the planner's order and estimates
        order = plan([fixture_graph] * len(q.where), q.where)
        assert described.steps == [
            "%d. match %s  (est. %d)" % (n, " ".join(show(t) for t in q.where[i]), est)
            for n, (i, est) in enumerate(order, start=1)]
