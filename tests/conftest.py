import pytest

from morekg.fixtures import generate_fixture
from morekg.ingestion import emit_kg, load_bundle
from morekg.ontology import build_schema
from morekg.rules import builtin_ruleset, materialize


@pytest.fixture(scope="session")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    generate_fixture(out, seed=42, participants=30, items=2)
    return out


@pytest.fixture(scope="session")
def fixture_bundle(fixture_dir):
    return load_bundle(fixture_dir)


@pytest.fixture(scope="session")
def fixture_schema(fixture_bundle):
    return build_schema(fixture_bundle.items)


@pytest.fixture(scope="session")
def fixture_graph(fixture_bundle, fixture_schema):
    g = emit_kg(fixture_bundle, fixture_schema)
    g.update(fixture_schema.graph)
    return g


@pytest.fixture(scope="session")
def fixture_materialized(fixture_graph):
    # materialize extends its input, and fixture_graph stays the emitted KG
    return materialize(fixture_graph.copy(), builtin_ruleset())
