"""A profiled run records the same events whichever compiled tier ran.

The cost model turns a profile's counts into modeled milliseconds, so
those counts must describe the query, not the tier ladder that happened
to execute it.  Liftoff and TurboFan emit identical instrumentation;
the adaptive ladders must therefore agree with both, including
``adaptive_stencil``, whose tier-0 stencils count instructions only and
so are skipped by profiled runs.

Documented exceptions, not compared here: plain ``stencil`` mode (its
only rung records instructions, no branch or memory events) and the
interpreter (its branch and memory sites are keyed by instruction, not
by compiled site).
"""

import random

import pytest

from repro.costmodel.events import Profile
from repro.db import Database

TIERS = ["wasm[liftoff]", "wasm[turbofan]", "wasm[adaptive]",
         "wasm[adaptive_stencil]"]

SQL = "SELECT g, COUNT(*), SUM(x), MIN(x) FROM t GROUP BY g"


@pytest.fixture(scope="module")
def db():
    rng = random.Random(17)
    db = Database()
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, g INT, x INT)")
    db.table("t").append_rows([
        (i, rng.randrange(16), rng.randrange(-500, 500))
        for i in range(20_000)
    ])
    return db


def counts(profile: Profile) -> dict:
    return {
        "instructions": profile.instructions,
        "calls": profile.calls,
        "indirect_calls": profile.indirect_calls,
        "branches": {site: (s.taken, s.total)
                     for site, s in profile.branch_sites.items()},
        "memory": {site: (s.accesses, s.sequential, s.min_addr, s.max_addr)
                   for site, s in profile.memory_sites.items()},
    }


def test_profile_counts_agree_across_compiled_tiers(db):
    observed = {}
    for spec in TIERS:
        profile = Profile()
        result = db.execute(SQL, engine=spec, profile=profile)
        assert len(result.rows) == 16
        observed[spec] = counts(profile)
    reference = observed["wasm[liftoff]"]
    assert sum(total for _, total in reference["branches"].values()) > 20_000
    assert len(reference["memory"]) > 0
    for spec, got in observed.items():
        assert got == reference, spec
