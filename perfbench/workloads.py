"""Seeded statements for the benchmark's workloads.

Every statement the program sees is generated here from ``--seed``,
with TPC-H substitution parameters; the program only ever receives the
SQL text.

Each query has one parameter generator and two renderings of the same
parameters: the spec-style literal text (``adhoc_cold`` sends it, and
the correctness oracle runs it) and a ``$n`` template plus EXECUTE
arguments (the ``prepared_*`` workloads).
"""

from __future__ import annotations

import datetime as dt
import random
from dataclasses import dataclass

QUERIES = ("q1", "q3", "q6", "q12", "q14")

_SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD")
_SHIPMODES = ("REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB")

# Literal spec texts; {name} fields take the substitution parameters.
_ADHOC = {
    "q1": """
        SELECT l_returnflag, l_linestatus,
               SUM(l_quantity) AS sum_qty,
               SUM(l_extendedprice) AS sum_base_price,
               SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
               SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax))
                   AS sum_charge,
               AVG(l_quantity) AS avg_qty,
               AVG(l_extendedprice) AS avg_price,
               AVG(l_discount) AS avg_disc,
               COUNT(*) AS count_order
        FROM lineitem
        WHERE l_shipdate <= DATE '1998-12-01' - INTERVAL '{delta}' DAY
        GROUP BY l_returnflag, l_linestatus
        ORDER BY l_returnflag, l_linestatus""",
    "q3": """
        SELECT l_orderkey,
               SUM(l_extendedprice * (1 - l_discount)) AS revenue,
               o_orderdate, o_shippriority
        FROM customer, orders, lineitem
        WHERE c_mktsegment = '{segment}'
          AND c_custkey = o_custkey
          AND l_orderkey = o_orderkey
          AND o_orderdate < DATE '{date}'
          AND l_shipdate > DATE '{date}'
        GROUP BY l_orderkey, o_orderdate, o_shippriority
        ORDER BY revenue DESC, o_orderdate
        LIMIT 10""",
    "q6": """
        SELECT SUM(l_extendedprice * l_discount) AS revenue
        FROM lineitem
        WHERE l_shipdate >= DATE '{year}-01-01'
          AND l_shipdate < DATE '{year}-01-01' + INTERVAL '1' YEAR
          AND l_discount BETWEEN {disc_lo} AND {disc_hi}
          AND l_quantity < {quantity}""",
    "q12": """
        SELECT l_shipmode,
               SUM(CASE WHEN o_orderpriority = '1-URGENT'
                          OR o_orderpriority = '2-HIGH'
                        THEN 1 ELSE 0 END) AS high_line_count,
               SUM(CASE WHEN o_orderpriority <> '1-URGENT'
                         AND o_orderpriority <> '2-HIGH'
                        THEN 1 ELSE 0 END) AS low_line_count
        FROM orders, lineitem
        WHERE o_orderkey = l_orderkey
          AND l_shipmode IN ('{mode1}', '{mode2}')
          AND l_commitdate < l_receiptdate
          AND l_shipdate < l_commitdate
          AND l_receiptdate >= DATE '{year}-01-01'
          AND l_receiptdate < DATE '{year}-01-01' + INTERVAL '1' YEAR
        GROUP BY l_shipmode
        ORDER BY l_shipmode""",
    "q14": """
        SELECT 100.00 *
               SUM(CASE WHEN p_type LIKE 'PROMO%'
                        THEN l_extendedprice * (1 - l_discount)
                        ELSE 0 END)
               / SUM(l_extendedprice * (1 - l_discount)) AS promo_revenue
        FROM lineitem, part
        WHERE l_partkey = p_partkey
          AND l_shipdate >= DATE '{year}-{month:02d}-01'
          AND l_shipdate < DATE '{year}-{month:02d}-01' + INTERVAL '1' MONTH""",
}

# The same queries with the substitution parameters as $n placeholders
# (date arithmetic moves into the generated arguments).
_PREPARED = {
    "q1": _ADHOC["q1"].replace(
        "DATE '1998-12-01' - INTERVAL '{delta}' DAY", "$1"),
    "q3": _ADHOC["q3"].replace("'{segment}'", "$1")
                      .replace("DATE '{date}'", "$2"),
    "q6": _ADHOC["q6"].replace(
        "DATE '{year}-01-01' + INTERVAL '1' YEAR", "$2")
                      .replace("DATE '{year}-01-01'", "$1")
                      .replace("{disc_lo}", "$3").replace("{disc_hi}", "$4")
                      .replace("{quantity}", "$5"),
    "q12": _ADHOC["q12"].replace("'{mode1}'", "$1").replace("'{mode2}'", "$2")
                        .replace("DATE '{year}-01-01' + INTERVAL '1' YEAR",
                                 "$4")
                        .replace("DATE '{year}-01-01'", "$3"),
    "q14": _ADHOC["q14"].replace(
        "DATE '{year}-{month:02d}-01' + INTERVAL '1' MONTH", "$2")
                        .replace("DATE '{year}-{month:02d}-01'", "$1"),
}


def _date(value: dt.date) -> str:
    return f"DATE '{value.isoformat()}'"


def _add_months(day: dt.date, months: int) -> dt.date:
    month = day.month - 1 + months
    return day.replace(year=day.year + month // 12, month=month % 12 + 1)


def _params(query: str, rng: random.Random) -> tuple[dict, list[str]]:
    """Spec-style substitution parameters (TPC-H 2.4) for one query:
    the fields of its literal text and the literals of its EXECUTE
    arguments, in ``$n`` order."""
    if query == "q1":
        delta = rng.randint(60, 120)
        cutoff = dt.date(1998, 12, 1) - dt.timedelta(days=delta)
        return {"delta": delta}, [_date(cutoff)]
    if query == "q3":
        segment = rng.choice(_SEGMENTS)
        date = dt.date(1995, 3, rng.randint(1, 31))
        return ({"segment": segment, "date": date.isoformat()},
                [f"'{segment}'", _date(date)])
    if query == "q6":
        year = rng.randint(1993, 1997)
        discount = rng.randint(2, 9)
        quantity = rng.randint(24, 25)
        lo, hi = f"0.{discount - 1:02d}", f"0.{discount + 1:02d}"
        return ({"year": year, "disc_lo": lo, "disc_hi": hi,
                 "quantity": quantity},
                [_date(dt.date(year, 1, 1)), _date(dt.date(year + 1, 1, 1)),
                 lo, hi, str(quantity)])
    if query == "q12":
        mode1, mode2 = rng.sample(_SHIPMODES, 2)
        year = rng.randint(1993, 1997)
        return ({"mode1": mode1, "mode2": mode2, "year": year},
                [f"'{mode1}'", f"'{mode2}'", _date(dt.date(year, 1, 1)),
                 _date(dt.date(year + 1, 1, 1))])
    if query == "q14":
        start = dt.date(rng.randint(1993, 1997), rng.randint(1, 12), 1)
        return ({"year": start.year, "month": start.month},
                [_date(start), _date(_add_months(start, 1))])
    raise ValueError(f"unknown query {query!r}")


def prepared_body(query: str) -> str:
    """The ``$n`` template a session PREPAREs for ``query``."""
    return _PREPARED[query]


@dataclass
class Statement:
    """One statement a client sends.

    ``sql`` goes to the service; ``oracle_sql`` is the literal SELECT
    the reference engine runs.
    """

    query: str           # q1 .. q14
    sql: str
    oracle_sql: str


#: Redraws :func:`select_statement` makes for a fresh parameter tuple
#: before it gives up; every query has at least 60 tuples.
MAX_REDRAWS = 1000


def select_statement(query: str, rng: random.Random, prepared: bool,
                     used: set | None = None) -> Statement:
    """One statement with fresh parameters.  With ``used``, parameters
    are drawn without replacement: a tuple already in ``used`` is drawn
    again, and the new one is added."""
    for _ in range(MAX_REDRAWS):
        fields, args = _params(query, rng)
        if used is None or (query, *args) not in used:
            break
    else:
        raise RuntimeError(f"{query}: no unused parameters left after "
                           f"{MAX_REDRAWS} draws")
    if used is not None:
        used.add((query, *args))
    literal = _ADHOC[query].format(**fields)
    if not prepared:
        return Statement(query, literal, literal)
    oracle = _PREPARED[query]
    for n in range(len(args), 0, -1):
        oracle = oracle.replace(f"${n}", args[n - 1])
    return Statement(query, f"EXECUTE {query}({', '.join(args)})", oracle)


def query_block(rng: random.Random, prepared: bool,
                used: set | None = None) -> list[Statement]:
    """One pass over the five queries with fresh parameters: every block
    sends the same mix however many blocks fit in a run's window."""
    return [select_statement(q, rng, prepared, used) for q in QUERIES]
