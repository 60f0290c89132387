"""Seeded workload generators.

Everything the program under test receives is produced here from the
benchmark seed: SQL text only.  The same seed yields the same statement stream; the program
never sees the seed.
"""

from __future__ import annotations

import random
from decimal import Decimal
from dataclasses import dataclass

BROWSER = "journalentryitembrowser"

#: Fiori list-report columns: the grid of a journal-entry list page.
LIST_COLS = ("acdockey, dockey, company_name, glaccount_code, glaccount_text, "
             "amount, postingyear")

#: Object-page header: one line item with its master-data texts.
OBJECT_COLS = ("acdockey, dockey, company_name, ledger_name, supplier_name, "
               "customer_name, costcenter_text, profitcenter_text, plant_text, "
               "shipaddr_street, shipaddr_country, partnername, flowtotal, amount")

#: Every column of the browser view (the ad-hoc projection pool).
BROWSER_COLUMNS = (
    "acdockey dockey company_id ledger_id supplier_id customer_id partnertype "
    "partnerid currkey amount quantity postingyear controlarea_id docstatus_id "
    "costcenter_id profitcenter_id glaccount_id plant_id material_id segment_id "
    "funcarea_id bizarea_id project_id wbselement_id salesorg_id paymentterms_id "
    "housebank_id taxcode_id tradepartner_id shipaddr_id billaddr_id payeraddr_id "
    "vendoraddr_id plantaddr_id compaddr_id costobj_id altcostobj_id company_name "
    "ledger_name supplier_name supplierauthgroup customer_name customerauthgroup "
    "controlarea_descr docstatus_descr costcenter_code costcenter_text "
    "profitcenter_code profitcenter_text glaccount_code glaccount_text plant_code "
    "plant_text material_code material_text segment_code segment_text "
    "funcarea_code funcarea_text bizarea_code bizarea_text project_code "
    "project_text wbselement_code wbselement_text salesorg_code salesorg_text "
    "paymentterms_code paymentterms_text housebank_code housebank_text "
    "taxcode_code taxcode_text tradepartner_code tradepartner_text "
    "shipaddr_street shipaddr_country billaddr_street billaddr_country "
    "payeraddr_street payeraddr_country vendoraddr_street vendoraddr_country "
    "plantaddr_street plantaddr_country compaddr_street compaddr_country "
    "costobj_code costobj_country altcostobj_code altcostobj_country flowtotal "
    "flowsteps knowncurrkey partnername"
).split()

YEARS = range(2020, 2025)  # JournalModel posts 2020 + key % 5
COMPANIES = range(5)
PAGE = 20
OFFSETS = range(0, 200, PAGE)  # ten list pages deep


@dataclass(frozen=True)
class Op:
    """One generated operation.

    ``check`` says how a result is compared with the reference database:
    ``ordered`` (exact list; the ORDER BY ends in a unique key), ``multiset``
    or ``subset`` (unordered LIMIT: rows drawn from the unlimited result).
    """

    kind: str
    sql: str
    check: str = "multiset"
    slot: object = None  # the LIMIT/OFFSET value, which the plan cache keys on


def _deck(rng: random.Random, weights: dict[str, int]):
    """Endless seeded shuffles of a fixed deck: every window of
    ``sum(weights)`` ops holds the exact mix, so the mix does not drift
    with the seed."""
    deck = [kind for kind, count in weights.items() for _ in range(count)]
    while True:
        rng.shuffle(deck)
        yield from deck


# -- browse_hot -----------------------------------------------------------------

BROWSE_MIX = {"list": 10, "object": 6, "kpi_count": 2, "kpi_group": 2}


def browse_stream(seed: int, n: int, journal_rows: int) -> list[Op]:
    """Fiori-style traffic over the browser view with fresh literals: 50%
    list-report pages, 30% object pages, 10% count KPIs (the Fig. 4 plan),
    10% grouped KPIs."""
    rng = random.Random(f"browse/{seed}")
    kinds = _deck(rng, BROWSE_MIX)
    ops = []
    for _ in range(n):
        kind = next(kinds)
        company = rng.choice(COMPANIES)
        if kind == "list":
            offset = rng.choice(OFFSETS)
            op = Op(kind, f"select {LIST_COLS} from {BROWSER} "
                          f"where postingyear = {rng.choice(YEARS)} "
                          f"order by amount desc, acdockey limit {PAGE} offset {offset}",
                    "ordered", offset)
        elif kind == "object":
            op = Op(kind, f"select {OBJECT_COLS} from {BROWSER} "
                          f"where acdockey = {rng.randrange(journal_rows)}")
        elif kind == "kpi_count":
            op = Op(kind, f"select count(*) from {BROWSER} where company_id = {company}")
        else:
            op = Op(kind, f"select postingyear, sum(amount), count(*) from {BROWSER} "
                          f"where company_id = {company} group by postingyear")
        ops.append(op)
    return ops


# -- adhoc_vdm ------------------------------------------------------------------

_FILTERS = (
    ("postingyear = {}", lambda rng: rng.choice(YEARS)),
    ("company_id = {}", lambda rng: rng.choice(COMPANIES)),
    ("ledger_id = {}", lambda rng: rng.randrange(3)),
    ("currkey = {}", lambda rng: rng.randrange(20)),
    ("amount > {}", lambda rng: rng.randrange(1000, 90000)),
    ("quantity < {}", lambda rng: rng.randrange(20, 400)),
)


def adhoc_stream(seed: int, n: int, suite: list[tuple[str, str]]) -> list[Op]:
    """One-off browser projections, with every fourth op a paper-suite query.

    ``suite`` is ``[(sql, check), ...]``; it is replayed in successive seeded
    shuffles.  Projection shapes (column list + filter template) never
    repeat within a stream.
    """
    rng = random.Random(f"adhoc/{seed}")
    seen: set[tuple] = set()
    order: list[tuple[str, str]] = []
    ops = []
    for i in range(n):
        if i % 4 == 3:
            if not order:
                order = list(suite)
                rng.shuffle(order)
            sql, check = order.pop()
            ops.append(Op("suite", sql, check))
            continue
        while True:
            cols = tuple(rng.sample(BROWSER_COLUMNS, rng.randint(2, 8)))
            template, draw = rng.choice(_FILTERS)
            if (cols, template) not in seen:
                seen.add((cols, template))
                break
        ops.append(Op("projection",
                      f"select {', '.join(cols)} from {BROWSER} "
                      f"where {template.format(draw(rng))} order by acdockey limit 50",
                      "ordered"))
    return ops


# -- htap_post ------------------------------------------------------------------

#: acdoca columns an INSERT names (every column of JournalModel's acdoca).
_SINGLES = ("controlarea", "docstatus")
_DOUBLES = ("costcenter", "profitcenter", "glaccount", "plant", "material",
            "segment", "funcarea", "bizarea", "project", "wbselement",
            "salesorg", "paymentterms", "housebank", "taxcode", "tradepartner")
_ROLES = ("shipaddr", "billaddr", "payeraddr", "vendoraddr", "plantaddr",
          "compaddr", "costobj", "altcostobj")
ACDOCA_COLUMNS = (
    ("acdockey", "dockey", "company_id", "ledger_id", "supplier_id", "customer_id",
     "partnertype", "partnerid", "currkey", "amount", "quantity", "postingyear")
    + tuple(f"{name}_id" for name in _SINGLES + _DOUBLES + _ROLES)
)

HTAP_MIX = {"post": 14, "list": 5, "count": 1}
POSTING_YEAR = 2024


@dataclass(frozen=True)
class HtapOp:
    """A read (one SELECT) or a posting (its INSERTs, one transaction)."""

    kind: str  # "post" or "read"
    sql: tuple[str, ...]
    check: str = "multiset"
    slot: object = None
    dockey: int | None = None
    rows: tuple[tuple, ...] = ()


def _sql_value(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, str):
        return f"'{value}'"
    return str(value)


def htap_stream(seed: int, n: int, journal_rows: int, dim_rows: int) -> list[HtapOp]:
    """Balanced postings into ``acdoca`` (2-4 lines whose amounts sum to
    zero) mixed with list-report and KPI reads over the browser view."""
    rng = random.Random(f"htap/{seed}")
    kinds = _deck(rng, HTAP_MIX)
    next_dockey = journal_rows  # JournalModel uses dockeys below rows // 2
    next_key = journal_rows
    ops = []
    for _ in range(n):
        kind = next(kinds)
        if kind == "list":
            offset = rng.choice(OFFSETS[:6])
            sql = (f"select {LIST_COLS} from {BROWSER} "
                   f"where postingyear = {rng.choice(YEARS)} "
                   f"order by amount desc, acdockey limit {PAGE} offset {offset}")
            ops.append(HtapOp("read", (sql,), "ordered", offset))
            continue
        if kind == "count":
            sql = f"select count(*) from {BROWSER} where company_id = {rng.choice(COMPANIES)}"
            ops.append(HtapOp("read", (sql,)))
            continue
        lines = rng.randint(2, 4)
        cents = [rng.choice((-1, 1)) * rng.randint(100, 9_999_999) for _ in range(lines - 1)]
        cents.append(-sum(cents))
        dockey, next_dockey = next_dockey, next_dockey + 1
        company = rng.choice(COMPANIES)
        rows, statements = [], []
        for amount in cents:
            supplier = rng.randrange(dim_rows) if rng.random() < 0.7 else None
            customer = rng.randrange(dim_rows) if rng.random() < 0.7 else None
            row = (
                next_key, dockey, company, rng.randrange(3), supplier, customer,
                rng.choice("VCEBT"), rng.randrange(30), rng.randrange(20),
                Decimal(amount).scaleb(-2), rng.randint(1, 500), POSTING_YEAR,
            ) + tuple(rng.randrange(dim_rows) for _ in _SINGLES + _DOUBLES + _ROLES)
            next_key += 1
            rows.append(row)
            statements.append(
                f"insert into acdoca ({', '.join(ACDOCA_COLUMNS)}) values "
                f"({', '.join(_sql_value(v) for v in row)})"
            )
        ops.append(HtapOp("post", tuple(statements), dockey=dockey, rows=tuple(rows)))
    return ops
