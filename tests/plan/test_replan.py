"""Planning is a pure function of the analyzed statement.

The feedback loop re-plans a cached statement in place from the AST the
analyzer produced, so building a plan must not rewrite that AST: TPC-H
q14's ``100.00 * SUM(..) / SUM(..)`` once lost its aggregate
sub-expressions to the first plan and failed the second with
``cannot resolve column ('$agg', 'a0')``.  Every statement here is
planned twice from one analysis; both plans (their physical tree and
the Wasm module compiled from each) must be equal, and the AST must
render as it did before planning.
"""

import pytest

from repro.bench.tpch import QUERIES, tpch_database
from repro.engines.base import Timings
from repro.engines.wasm_engine import WasmEngine
from repro.plan.physical import explain_physical
from repro.server import QueryService
from repro.sql.analyzer import analyze
from repro.sql.parser import parse
from repro.wasm import encode_module

from tests.feedback.test_differential import QUERIES as CORPUS
from tests.feedback.test_differential import populate

# expressions over aggregates, the shape that used to break re-planning
OVER_AGGREGATES = [
    "SELECT g, 100.0 * SUM(x) / SUM(id + 1) FROM a GROUP BY g",
    "SELECT g, SUM(x) - MIN(x) FROM a GROUP BY g HAVING SUM(x) * 2 > 10"
    " ORDER BY SUM(x) - MIN(x), g",
    "SELECT COUNT(*) * 3, AVG(v) + MAX(v) FROM b WHERE v > 5",
    "SELECT g, CASE WHEN SUM(x) > 100 THEN 1 ELSE 0 END FROM a GROUP BY g",
]


def plan_fingerprint(db, plan) -> tuple:
    compiled, _ = WasmEngine().compile_query(plan, db.catalog, Timings())
    return explain_physical(plan), encode_module(compiled.module)


def assert_planning_is_pure(db, sql):
    stmt = parse(sql)
    analyze(stmt, db.catalog)
    before = repr(stmt)
    first = plan_fingerprint(db, db.plan(stmt))
    assert repr(stmt) == before, "planning rewrote the analyzed AST"
    second = plan_fingerprint(db, db.plan(stmt))
    assert first == second
    assert repr(stmt) == before


@pytest.fixture(scope="module")
def tpch():
    return tpch_database(scale_factor=0.002, seed=1)


@pytest.fixture(scope="module")
def corpus_db():
    service = QueryService(feedback=False)
    populate(service)
    return service.db


@pytest.mark.parametrize("name", ["q1", "q3", "q6", "q12", "q14"])
def test_tpch_plans_twice_to_equal_plans(tpch, name):
    assert_planning_is_pure(tpch, QUERIES[name])


@pytest.mark.parametrize("sql", CORPUS + OVER_AGGREGATES)
def test_corpus_plans_twice_to_equal_plans(corpus_db, sql):
    assert_planning_is_pure(corpus_db, sql)
