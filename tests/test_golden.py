"""Golden bytes: the sha256 of each canonical output of the seed-42,
30-participant fixture.  The digests pin the output bytes themselves, so
a change to how terms are held or written cannot drift them unnoticed,
whatever the reference writers in the oracles say."""

import hashlib

import pytest

from morekg.cq import CQ1_QUERY, CQ2_QUERY
from morekg.privacy import apply_policy, audit_view, default_policy
from morekg.query import evaluate, parse_query, to_csv
from morekg.serdes import write_ntriples, write_turtle

GOLDEN = {
    "emitted.nt": "6265fe8d0b87a3c7b299a7b20e0344dae344744acc37a94b82704eaf2e1ceb0a",
    "materialized.nt": "9fbfa0424643a4c03ac177fc6444b638661020080f2bdb26f86dacfa1ab1aad8",
    "materialized.ttl": "0f4f487dd1cbc9ae2437c7db1b07841046e3205d8e85f29711ea12806c09330d",
    "public.nt": "a4c6a112d723fc6f74d05f42f3f0d3fdd8c150b5bdc34e6575949efee12322c9",
    "public.ttl": "af80d90eb6afe3cc53ed31bd72dec8934e3b72af86d2536291cc2e8939575776",
    "cq1.csv": "42b9827af5877a365a97b38a009286791b13ac1cee15425651f082e576059107",
    "cq2.csv": "7944ade4323cb1288e0618a4e876f615585cfbae7014ccc3d75d13101d47833b",
    "public.audit": "bca9ff863da44eb46e5c420031157c8e893ed089a3e2b6f5ce4ef637f74816e6",
}


@pytest.fixture(scope="module")
def outputs(fixture_graph, fixture_materialized):
    public = apply_policy(fixture_materialized, default_policy(), "public")
    return {
        "emitted.nt": write_ntriples(fixture_graph),
        "materialized.nt": write_ntriples(fixture_materialized),
        "materialized.ttl": write_turtle(fixture_materialized),
        "public.nt": write_ntriples(public),
        "public.ttl": write_turtle(public),
        "cq1.csv": to_csv(evaluate(fixture_materialized, parse_query(CQ1_QUERY))),
        "cq2.csv": to_csv(evaluate(fixture_materialized, parse_query(CQ2_QUERY))),
        "public.audit": audit_view(fixture_materialized, default_policy(),
                                   "public").to_text(),
    }


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(outputs, name):
    assert hashlib.sha256(outputs[name].encode("utf-8")).hexdigest() == GOLDEN[name]
