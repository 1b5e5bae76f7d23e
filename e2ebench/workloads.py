"""Workload data, platform set-up, request mixes and the answer oracle.

Everything a run sends is generated here from the seed: the tenants'
operational rows and warehouse star schemas, and the request stream.
The platform receives only these generated inputs.  The same rows are
loaded into stdlib ``sqlite3``, an engine independent of the one under
test, and every answer the platform gives is checked against it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import pickle
import random
import sqlite3
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent

#: Header carrying the benchmark's request id across the gateway's
#: thread hop (read by the tracer on the worker side).
REQUEST_ID_HEADER = "X-Bench-Request-Id"

#: Usage kinds each request kind meters on a 2xx answer.
METERED = {
    "point_read": "query", "adhoc_sql": "query", "mdx_fixed": "query",
    "mdx_sliced": "query", "dataset_rows": "query", "etl_check": "query",
    "dashboard": "dashboard",
}

#: Non-2xx answers that are legal load shedding, by status.
SHED_STATUSES = (429, 503, 504)


def load_config() -> Dict[str, Any]:
    with open(HERE / "workloads.json", encoding="utf-8") as handle:
        return json.load(handle)


def seeded(seed: int, *labels: Any) -> random.Random:
    """A generator private to one purpose; string seeding is stable
    across processes (it does not depend on hash randomisation)."""
    return random.Random(":".join(str(part) for part in (seed,) + labels))


# -- generated data --------------------------------------------------------------

@dataclass
class TenantData:
    tenant: str
    accounts: List[Tuple[int, str, int, int]]
    orders: List[Tuple[int, str, str, float, int]]
    stores: List[Tuple[int, str, str]]
    days: List[Tuple[int, int, int]]
    sales: List[Tuple[int, int, int, float, int]]


def generate_tenant(spec: Dict[str, Any], seed: int, workload: str,
                    index: int) -> TenantData:
    rng = seeded(seed, workload, "tenant", index)
    tenant = f"{workload[:2]}{index:02d}"
    regions = [f"R{r}" for r in range(spec["regions"])]
    accounts = [(i, f"owner-{i}", i * 1000, 0)
                for i in range(spec["accounts_per_tenant"])]
    orders = [(i, rng.choice(regions), rng.choice(("web", "store", "phone")),
               round(rng.uniform(1.0, 100.0), 2), rng.randint(1, 20))
              for i in range(spec["orders_per_tenant"])]
    stores = [(i, regions[i % len(regions)], f"C{i:03d}")
              for i in range(spec["stores"])]
    days = [(i, i // 30 + 1, i + 1) for i in range(spec["days"])]
    sales = [(i, rng.randrange(spec["stores"]), rng.randrange(spec["days"]),
              round(rng.uniform(1.0, 500.0), 2), rng.randint(1, 20))
             for i in range(spec["fact_rows_per_tenant"])]
    return TenantData(tenant, accounts, orders, stores, days, sales)


def generate(spec: Dict[str, Any], seed: int,
             workload: str) -> List[TenantData]:
    return [generate_tenant(spec, seed, workload, index)
            for index in range(spec["tenants"])]


# -- schema shared by the platform set-up and the oracle --------------------------

OPERATIONAL_DDL = (
    "CREATE TABLE acct_{t} (id INTEGER PRIMARY KEY, owner TEXT, "
    "balance INTEGER, version INTEGER)",
    "CREATE TABLE events_{t} (id INTEGER PRIMARY KEY, acct_id INTEGER, "
    "amount INTEGER)",
    "CREATE TABLE orders_{t} (order_id INTEGER PRIMARY KEY, region TEXT, "
    "channel TEXT, amount REAL, qty INTEGER)",
)

WAREHOUSE_DDL = (
    "CREATE TABLE store (store_id INTEGER PRIMARY KEY, region TEXT, "
    "city TEXT)",
    "CREATE TABLE dday (day_id INTEGER PRIMARY KEY, month INTEGER, "
    "day INTEGER)",
    "CREATE TABLE sales (sale_id INTEGER PRIMARY KEY, store_id INTEGER, "
    "day_id INTEGER, amount REAL, qty INTEGER)",
    "CREATE TABLE loads (load_id INTEGER PRIMARY KEY, store_id INTEGER, "
    "amount INTEGER)",
)

SALES_CUBE = {
    "name": "Sales", "fact_table": "sales",
    "measures": [{"name": "revenue", "column": "amount"},
                 {"name": "units", "column": "qty"}],
    "dimensions": [
        {"name": "Store", "table": "store", "key": "store_id",
         "levels": ["region", "city"]},
        {"name": "Time", "table": "dday", "key": "day_id",
         "levels": ["month", "day"]},
    ],
}

LOADS_CUBE = {
    "name": "Loads", "fact_table": "loads",
    "measures": [{"name": "loaded", "column": "load_id",
                  "aggregator": "count"},
                 {"name": "load_amount", "column": "amount"}],
    "dimensions": [{"name": "Store", "table": "store", "key": "store_id",
                    "levels": ["region", "city"]}],
}

#: Cube dimension -> (table, key) for the oracle's star joins.
DIMENSIONS = {"Store": ("store", "store_id"), "Time": ("dday", "day_id")}
MEASURE_SQL = {"revenue": "SUM(f.amount)", "units": "SUM(f.qty)",
               "loaded": "COUNT(f.load_id)", "load_amount": "SUM(f.amount)"}
CUBE_FACT = {"Sales": "sales", "Loads": "loads"}

DATASETS = {
    "by_region": "SELECT s.region AS region, SUM(f.amount) AS revenue, "
                 "SUM(f.qty) AS units, COUNT(*) AS sales FROM sales f "
                 "JOIN store s ON f.store_id = s.store_id "
                 "GROUP BY s.region ORDER BY s.region",
    "by_month": "SELECT d.month AS month, SUM(f.amount) AS revenue "
                "FROM sales f JOIN dday d ON f.day_id = d.day_id "
                "GROUP BY d.month ORDER BY d.month",
    "by_city": "SELECT s.city AS city, SUM(f.amount) AS revenue "
               "FROM sales f JOIN store s ON f.store_id = s.store_id "
               "GROUP BY s.city ORDER BY s.city",
}

#: Dashboard definitions in their JSON form.
DASHBOARDS = {
    "overview": {
        "name": "overview", "description": "revenue by region and month",
        "rows": [
            [{"kind": "chart", "dataset": "by_region", "name": "revenue",
              "chart_kind": "bar", "category": "region",
              "value": "revenue", "aggregator": "sum"},
             {"kind": "table", "dataset": "by_region", "name": "regions",
              "columns": ["region", "revenue", "units", "sales"],
              "sort_by": "region", "descending": False, "limit": None}],
            [{"kind": "chart", "dataset": "by_month", "name": "trend",
              "chart_kind": "line", "category": "month",
              "value": "revenue", "aggregator": "sum"}],
        ],
    },
    "stores": {
        "name": "stores", "description": "top cities by revenue",
        "rows": [
            [{"kind": "table", "dataset": "by_city", "name": "top_cities",
              "columns": ["city", "revenue"], "sort_by": "revenue",
              "descending": True, "limit": 10},
             {"kind": "chart", "dataset": "by_region", "name": "units",
              "chart_kind": "pie", "category": "region", "value": "units",
              "aggregator": "sum"}],
        ],
    },
}

#: The fixed MDX set of the ``mdx_fixed`` kind: (measures, rows axis,
#: explicit row members, WHERE slicers).
FIXED_MDX = (
    (("revenue",), ("Store", "region"), None, ()),
    (("revenue", "units"), ("Time", "month"), None, ()),
    (("units",), ("Store", "region"), None, (("Time", "month", 1),)),
)


@dataclass(frozen=True)
class MdxSpec:
    """One MDX-lite query in structured form (rendered to text for the
    platform and to SQL for the oracle)."""

    cube: str
    measures: Tuple[str, ...]
    axis: Optional[Tuple[str, str]] = None
    members: Optional[Tuple[Any, ...]] = None
    where: Tuple[Tuple[str, str, Any], ...] = ()

    def text(self) -> str:
        columns = ", ".join(f"[Measures].[{m}]" for m in self.measures)
        out = f"SELECT {{{columns}}} ON COLUMNS"
        if self.axis is not None:
            dim, level = self.axis
            if self.members is None:
                rows = f"[{dim}].[{level}].Members"
            else:
                rows = ", ".join(f"[{dim}].[{level}].[{member}]"
                                 for member in self.members)
            out += f", {{{rows}}} ON ROWS"
        out += f" FROM [{self.cube}]"
        if self.where:
            out += " WHERE (" + ", ".join(
                f"[{d}].[{l}].[{m}]" for d, l, m in self.where) + ")"
        return out

    def oracle_sql(self) -> Tuple[str, List[Any]]:
        joins: Dict[str, str] = {}
        dims = ([self.axis[0]] if self.axis else []) + \
            [d for d, _, _ in self.where]
        for dim in dims:
            table, key = DIMENSIONS[dim]
            joins[dim] = f" JOIN {table} d_{dim} ON f.{key} = d_{dim}.{key}"
        select = [f"{MEASURE_SQL[m]} AS m_{m}" for m in self.measures]
        where: List[str] = []
        params: List[Any] = []
        if self.axis:
            dim, level = self.axis
            select.insert(0, f"d_{dim}.{level} AS axis")
            if self.members is not None:
                where.append(f"d_{dim}.{level} IN "
                             f"({', '.join('?' for _ in self.members)})")
                params.extend(self.members)
        for dim, level, member in self.where:
            where.append(f"d_{dim}.{level} = ?")
            params.append(member)
        sql = (f"SELECT {', '.join(select)} FROM {CUBE_FACT[self.cube]} f"
               + "".join(joins.values()))
        if where:
            sql += " WHERE " + " AND ".join(where)
        if self.axis:
            sql += f" GROUP BY d_{self.axis[0]}.{self.axis[1]}"
        return sql, params


# -- requests --------------------------------------------------------------------

@dataclass
class Req:
    """One request of the mix: what is sent and how its answer is keyed."""

    kind: str
    tenant: str
    method: str
    path: str
    body: Any = None
    key: Any = None


class Mix:
    """Draws requests of one workload; each caller passes its own rng."""

    def __init__(self, spec: Dict[str, Any], tenants: List[TenantData]):
        self.spec = spec
        self.tenants = tenants
        self.kinds = list(spec["mix"])
        self.weights = [spec["mix"][kind] for kind in self.kinds]
        self._versions = itertools.count(1)
        self._event_ids = itertools.count(1)

    def next(self, rng: random.Random) -> Req:
        kind = rng.choices(self.kinds, self.weights)[0]
        return self._draw(rng, kind)

    def deck(self, rng: random.Random, count: int) -> List[Req]:
        """``count`` requests in random order whose kinds follow the
        weights as closely as whole numbers allow: every kind gets the
        whole part of its share, and the slots left over go to kinds
        drawn by their fractional parts.  So short windows all carry
        nearly the same mix instead of a binomial draw of it."""
        total = sum(self.weights)
        shares = [count * weight / total for weight in self.weights]
        kinds = [kind for kind, share in zip(self.kinds, shares)
                 for _ in range(int(share))]
        if len(kinds) < count:
            kinds += rng.choices(self.kinds,
                                 [share - int(share) for share in shares],
                                 k=count - len(kinds))
        rng.shuffle(kinds)
        return [self._draw(rng, kind) for kind in kinds]

    def _draw(self, rng: random.Random, kind: str) -> Req:
        data = rng.choice(self.tenants)
        return getattr(self, "_" + kind)(rng, data)

    @staticmethod
    def _sql(kind: str, t: str, sql: str, params: Sequence[Any] = (),
             key: Any = None) -> Req:
        return Req(kind, t, "POST", f"/tenants/{t}/sql",
                   {"sql": sql, "params": list(params)}, key)

    def _point_read(self, rng, data) -> Req:
        row = rng.randrange(len(data.accounts))
        return self._sql(
            "point_read", data.tenant,
            f"SELECT id, owner, balance, version FROM acct_{data.tenant} "
            f"WHERE id = ?", (row,), (data.tenant, row))

    def _update(self, rng, data) -> Req:
        row = rng.randrange(len(data.accounts))
        version = next(self._versions)
        return self._sql(
            "update", data.tenant,
            f"UPDATE acct_{data.tenant} SET balance = ?, version = ? "
            f"WHERE id = ? AND version < ?",
            (row * 1000 + version, version, row, version),
            (data.tenant, row, version))

    def _insert(self, rng, data) -> Req:
        event = next(self._event_ids)
        acct = rng.randrange(len(data.accounts))
        amount = rng.randrange(1, 10_000)
        return self._sql(
            "insert", data.tenant,
            f"INSERT INTO events_{data.tenant} (id, acct_id, amount) "
            f"VALUES (?, ?, ?)", (event, acct, amount),
            (data.tenant, event, acct, amount))

    def _adhoc_sql(self, rng, data) -> Req:
        # Literals inlined on purpose: ~22M distinct statement texts.
        low = rng.randrange(0, 9000) / 100
        high = low + rng.randrange(500, 3000) / 100
        sql = (f"SELECT region, COUNT(*) AS n, SUM(amount) AS total, "
               f"MAX(qty) AS max_qty FROM orders_{data.tenant} "
               f"WHERE amount BETWEEN {low:.2f} AND {high:.2f} "
               f"GROUP BY region ORDER BY region")
        return self._sql("adhoc_sql", data.tenant, sql, (),
                         (data.tenant, sql))

    def _mdx(self, kind: str, data: TenantData, spec: MdxSpec) -> Req:
        return Req(kind, data.tenant, "POST", f"/tenants/{data.tenant}/mdx",
                   {"statement": spec.text()}, (data.tenant, spec))

    def _mdx_fixed(self, rng, data) -> Req:
        measures, axis, members, where = rng.choice(FIXED_MDX)
        return self._mdx("mdx_fixed", data,
                         MdxSpec("Sales", measures, axis, members, where))

    def _mdx_sliced(self, rng, data) -> Req:
        # Three days of one city: the member space (days^3 x stores) is
        # far larger than any run, so most of these miss the OLAP cache.
        days = tuple(sorted(rng.sample(range(1, len(data.days) + 1), 3)))
        city = rng.choice(data.stores)[2]
        return self._mdx("mdx_sliced", data, MdxSpec(
            "Sales", ("revenue", "units"), ("Time", "day"), days,
            (("Store", "city", city),)))

    def _cubes(self, rng, data) -> Req:
        return Req("cubes", data.tenant, "GET",
                   f"/tenants/{data.tenant}/cubes", None, (data.tenant,))

    def _datasets(self, rng, data) -> Req:
        return Req("datasets", data.tenant, "GET",
                   f"/tenants/{data.tenant}/datasets", None, (data.tenant,))

    def _dataset_rows(self, rng, data) -> Req:
        name = rng.choice(sorted(DATASETS))
        return Req("dataset_rows", data.tenant, "GET",
                   f"/tenants/{data.tenant}/datasets/{name}/rows", None,
                   (data.tenant, name))

    def _dashboard(self, rng, data) -> Req:
        name = rng.choice(self.spec["dashboards"])
        return Req("dashboard", data.tenant, "GET",
                   f"/tenants/{data.tenant}/dashboards/{name}", None,
                   (data.tenant, name))

    def warmup_requests(self) -> List[Req]:
        """Every fixed-key answer once per tenant, so caches are warm."""
        out: List[Req] = []
        for data in self.tenants:
            for measures, axis, members, where in FIXED_MDX:
                out.append(self._mdx("mdx_fixed", data, MdxSpec(
                    "Sales", measures, axis, members, where)))
            out.append(self._cubes(None, data))
            out.append(self._datasets(None, data))
            for name in sorted(DATASETS):
                out.append(Req("dataset_rows", data.tenant, "GET",
                               f"/tenants/{data.tenant}/datasets/{name}/rows",
                               None, (data.tenant, name)))
            for name in self.spec["dashboards"]:
                out.append(Req("dashboard", data.tenant, "GET",
                               f"/tenants/{data.tenant}/dashboards/{name}",
                               None, (data.tenant, name)))
        return out


# -- platform set-up -------------------------------------------------------------

@dataclass
class Deployment:
    """A set-up platform plus what the run needs to drive it."""

    platform: Any
    tokens: Dict[str, str]
    etl_batches: Dict[str, List[Dict[str, Any]]]


def build_platform(data_dir: Path, tenants: List[TenantData],
                   spec: Dict[str, Any]) -> Deployment:
    """Build the platform with default settings plus ``data_dir``,
    provision the tenants, load their data and log in."""
    from repro import OdbisPlatform
    from repro.etl import CallableSource
    from repro.reporting import DashboardDefinition

    platform = OdbisPlatform(data_dir=data_dir)
    tokens: Dict[str, str] = {}
    batches: Dict[str, List[Dict[str, Any]]] = {}
    for data in tenants:
        t = data.tenant
        context = platform.provisioning.provision(t, t, plan="enterprise")
        operational = context.operational_db
        for ddl in OPERATIONAL_DDL:
            operational.execute(ddl.format(t=t))
        operational.executemany(
            f"INSERT INTO acct_{t} VALUES (?, ?, ?, ?)", data.accounts)
        operational.executemany(
            f"INSERT INTO orders_{t} VALUES (?, ?, ?, ?, ?)", data.orders)
        warehouse = context.warehouse_db
        for ddl in WAREHOUSE_DDL:
            warehouse.execute(ddl)
        warehouse.executemany("INSERT INTO store VALUES (?, ?, ?)",
                              data.stores)
        warehouse.executemany("INSERT INTO dday VALUES (?, ?, ?)", data.days)
        warehouse.executemany("INSERT INTO sales VALUES (?, ?, ?, ?, ?)",
                              data.sales)
        platform.analysis.define_cube(t, SALES_CUBE)
        platform.analysis.define_cube(t, LOADS_CUBE)
        for name, sql in DATASETS.items():
            platform.metadata.create_dataset(t, name, "warehouse", sql)
        for name in spec["dashboards"]:
            platform.reporting.define_dashboard(
                t, DashboardDefinition.from_dict(DASHBOARDS[name]))
        pending: List[Dict[str, Any]] = []
        batches[t] = pending
        platform.integration.define_job(
            t, "load", CallableSource(lambda rows=pending: list(rows)),
            target_table="loads")
        reply = platform.gateway.submit(
            "POST", "/login",
            {"username": f"admin@{t}", "password": "changeme"}).result(60)
        if reply.status != 200:
            raise RuntimeError(f"login for {t} failed: {reply.body}")
        tokens[t] = reply.json()["token"]
    return Deployment(platform, tokens, batches)


# -- the oracle ------------------------------------------------------------------

def close_enough(a: Any, b: Any, rel: float = 1e-9) -> bool:
    """Structural equality with floats compared to a relative
    tolerance (sums accumulate in another order in each engine)."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=rel, abs_tol=1e-9)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(
            close_enough(a[k], b[k], rel) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(
            close_enough(x, y, rel) for x, y in zip(a, b))
    return a == b


def sort_rows(rows: List[Dict[str, Any]],
              keys: Sequence[str]) -> List[Dict[str, Any]]:
    """Rows in an explicit order, so result order never decides
    equality where the query did not fix one."""
    return sorted(rows, key=lambda row: tuple(str(row[k]) for k in keys))


class Oracle:
    """Expected answers, computed by sqlite3 from the generated rows."""

    def __init__(self, tenants: List[TenantData]):
        self._conns: Dict[str, sqlite3.Connection] = {}
        for data in tenants:
            conn = sqlite3.connect(":memory:")
            conn.row_factory = sqlite3.Row
            for ddl in OPERATIONAL_DDL:
                conn.execute(ddl.format(t=data.tenant))
            for ddl in WAREHOUSE_DDL:
                conn.execute(ddl)
            t = data.tenant
            conn.executemany(f"INSERT INTO acct_{t} VALUES (?, ?, ?, ?)",
                             data.accounts)
            conn.executemany(f"INSERT INTO orders_{t} VALUES (?,?,?,?,?)",
                             data.orders)
            conn.executemany("INSERT INTO store VALUES (?, ?, ?)",
                             data.stores)
            conn.executemany("INSERT INTO dday VALUES (?, ?, ?)", data.days)
            conn.executemany("INSERT INTO sales VALUES (?, ?, ?, ?, ?)",
                             data.sales)
            conn.execute("CREATE INDEX sales_day ON sales (day_id)")
            self._conns[t] = conn

    def close(self) -> None:
        for conn in self._conns.values():
            conn.close()

    def query(self, tenant: str, sql: str,
              params: Sequence[Any] = ()) -> List[Dict[str, Any]]:
        return [dict(row) for row in
                self._conns[tenant].execute(sql, tuple(params))]

    # Each expected answer is the normalised form the platform's
    # answer must match (see ``normalise``).

    def expected(self, kind: str, key: Any) -> Any:
        return getattr(self, "_" + kind)(*key)

    def _point_read(self, tenant: str, row: int) -> Any:
        return self.query(tenant, f"SELECT id, owner, balance, version "
                                  f"FROM acct_{tenant} WHERE id = ?", (row,))

    def _adhoc_sql(self, tenant: str, sql: str) -> Any:
        return self.query(tenant, sql)

    def _mdx(self, tenant: str, spec: MdxSpec) -> Any:
        sql, params = spec.oracle_sql()
        out = []
        for record in self.query(tenant, sql, params):
            row = {m: record[f"m_{m}"] for m in spec.measures}
            if spec.axis is not None:
                row[".".join(spec.axis)] = record["axis"]
            out.append(row)
        axes = [list(spec.axis)] if spec.axis else []
        keys = [".".join(spec.axis)] if spec.axis else []
        return {"measures": list(spec.measures), "axes": axes,
                "rows": sort_rows(out, keys)}

    _mdx_fixed = _mdx_sliced = _mdx

    def _cubes(self, tenant: str) -> Any:
        return sorted([SALES_CUBE["name"], LOADS_CUBE["name"]])

    def _datasets(self, tenant: str) -> Any:
        return [{"name": name, "datasource": "warehouse", "sql": sql}
                for name, sql in sorted(DATASETS.items())]

    def _dataset_rows(self, tenant: str, name: str) -> Any:
        return {"rows": self.query(tenant, DATASETS[name])}

    def _dashboard(self, tenant: str, name: str) -> Any:
        definition = DASHBOARDS[name]
        elements = []
        for index, row in enumerate(definition["rows"]):
            for element in row:
                rows = self.query(tenant, DATASETS[element["dataset"]])
                if element["kind"] == "chart":
                    series: Dict[Any, Any] = {}
                    for record in rows:
                        category = record[element["category"]]
                        series[category] = series.get(category, 0) + \
                            record[element["value"]]
                    elements.append({"row": index, "type": "chart",
                                     "name": element["name"],
                                     "series": sorted(series.items())})
                else:
                    ordered = sorted(
                        rows, key=lambda r: r[element["sort_by"]],
                        reverse=element["descending"])
                    if element["limit"] is not None:
                        ordered = ordered[:element["limit"]]
                    elements.append({
                        "row": index, "type": "table",
                        "name": element["name"],
                        "rows": [{c: r[c] for c in element["columns"]}
                                 for r in ordered]})
        return {"dashboard": name, "elements": elements}


def normalise(kind: str, payload: Any) -> Any:
    """The platform's answer in the oracle's shape: transport fields
    dropped, unordered parts put in an explicit order."""
    if kind in ("point_read", "adhoc_sql"):
        return payload["rows"]
    if kind in ("mdx_fixed", "mdx_sliced", "etl_check"):
        axes = payload["axes"]
        keys = [".".join(axis) for axis in axes]
        return {"measures": payload["measures"], "axes": axes,
                "rows": sort_rows(payload["rows"], keys)}
    if kind == "dashboard":
        elements = []
        for element in payload["elements"]:
            if element["type"] == "chart":
                elements.append({
                    "row": element["row"], "type": "chart",
                    "name": element["name"],
                    "series": sorted((point["category"], point["value"])
                                     for point in element["series"])})
            else:
                elements.append({"row": element["row"], "type": "table",
                                 "name": element["name"],
                                 "rows": element["rows"]})
        return {"dashboard": payload["dashboard"], "elements": elements}
    return payload


# -- the correctness gate --------------------------------------------------------

class WrongAnswer(Exception):
    """The platform answered something the oracle disagrees with."""


class Checker:
    """Records every answer during a run and checks them afterwards.

    The first answer to each distinct read-only request is spilled to
    ``spill`` (a file) and only its digest stays in memory; every
    repeat must hash to the same digest.  Point reads of mutable rows
    are spilled too.  So the run's peak memory holds little of the
    benchmark's own.  Writes keep what was acknowledged.
    ``verify_answers`` compares each spilled answer with the oracle,
    ``verify_state`` the final state with the acknowledged writes.
    """

    def __init__(self, mutable_accounts: bool, spill: Path):
        self.mutable_accounts = mutable_accounts
        self._lock = threading.Lock()
        self.first: Dict[Tuple[str, Any], bytes] = {}  # guarded-by: _lock
        self._spill_path = spill
        self._spill = open(spill, "wb")  # guarded-by: _lock
        self.acked_updates: Dict[Tuple[str, int], int] = {}  # guarded-by: _lock
        self.issued_versions: Dict[Tuple[str, int], set] = {}  # guarded-by: _lock
        self.acked_inserts: List[Tuple[str, int, int, int]] = []
        self.metered: Dict[str, Dict[str, int]] = {}  # guarded-by: _lock
        self.problems: List[str] = []  # guarded-by: _lock

    def issue(self, req: Req) -> None:
        """Note a write before it is sent (a read may see it early)."""
        if req.kind == "update":
            tenant, row, version = req.key
            with self._lock:
                self.issued_versions.setdefault(
                    (tenant, row), set()).add(version)

    def meter(self, tenant: str, kind: str, units: int) -> None:
        with self._lock:
            usage = self.metered.setdefault(tenant, {})
            usage[kind] = usage.get(kind, 0) + units

    def record(self, req: Req, response: Any) -> bool:
        """Account one answer; True when it is a 2xx (goodput)."""
        status = response.status
        if not 200 <= status < 300:
            if status == 500:
                self.problem(f"500 on {req.method} {req.path}: "
                             f"{str(response.body)[:200]}")
            elif status not in SHED_STATUSES:
                self.problem(f"{status} on {req.method} {req.path} "
                             f"{req.body}: {str(response.body)[:200]}")
            return False
        if getattr(response, "degraded", False):
            return False  # a stale answer from an open breaker
        if req.kind in METERED:
            self.meter(req.tenant, METERED[req.kind], 1)
        body = response.body
        if req.kind in ("update", "insert") and \
                response.json().get("rowcount") not in (0, 1):
            self.problem(f"{req.kind} {req.key}: rowcount {body}")
        if req.kind == "update":
            tenant, row, version = req.key
            with self._lock:
                previous = self.acked_updates.get((tenant, row), 0)
                self.acked_updates[(tenant, row)] = max(previous, version)
        elif req.kind == "insert":
            self.acked_inserts.append(req.key)
        elif req.kind == "point_read" and self.mutable_accounts:
            with self._lock:
                pickle.dump(("account", req.key, body), self._spill)
        elif req.kind != "etl_check":
            key = (req.kind, req.key)
            digest = hashlib.sha1(body.encode()).digest()
            with self._lock:
                first = self.first.setdefault(key, digest)
                if first is digest:
                    pickle.dump(("answer", key, body), self._spill)
            if first != digest:
                self.problem(f"{req.kind} {req.key}: answer changed "
                             f"between repeats")
        return True

    def problem(self, message: str) -> None:
        with self._lock:
            if len(self.problems) < 20:
                self.problems.append(message)

    # -- verification ----------------------------------------------------------

    def check_answer(self, oracle: Oracle, kind: str, key: Any,
                     body: str) -> None:
        got = normalise(kind, json.loads(body))
        want = oracle.expected(kind, key)
        if not close_enough(got, want):
            raise WrongAnswer(f"{kind} {key}: platform answered "
                              f"{str(got)[:300]} but the oracle expects "
                              f"{str(want)[:300]}")

    def spilled(self) -> Any:
        """The spilled answers, in arrival order: ``("answer", (kind,
        key), body)`` or ``("account", (tenant, row), body)``."""
        with self._lock:
            self._spill.flush()
        with open(self._spill_path, "rb") as handle:
            while True:
                try:
                    yield pickle.load(handle)
                except EOFError:
                    return

    def close(self) -> None:
        with self._lock:
            self._spill.close()

    def verify_answers(self, oracle: Oracle) -> int:
        """Check every distinct read answer and every point read of a
        mutable row; returns how many."""
        checked = 0
        for what, key, body in self.spilled():
            if what == "answer":
                self.check_answer(oracle, key[0], key[1], body)
            else:
                tenant, row = key
                self.check_account(tenant, row, json.loads(body)["rows"])
            checked += 1
        return checked

    def check_account(self, tenant: str, row: int,
                      rows: List[Dict[str, Any]]) -> None:
        if len(rows) != 1:
            raise WrongAnswer(f"acct_{tenant} id {row}: {len(rows)} rows")
        record = rows[0]
        version = record["version"]
        if record["id"] != row or record["owner"] != f"owner-{row}" \
                or record["balance"] != row * 1000 + version:
            raise WrongAnswer(f"acct_{tenant} id {row}: torn row {record}")
        if version != 0 and version not in \
                self.issued_versions.get((tenant, row), ()):
            raise WrongAnswer(f"acct_{tenant} id {row}: version {version} "
                              f"was never written")

    def verify_state(self, database: Any, tenants: Sequence[str]) -> int:
        """Every acknowledged write is present in ``database`` (the
        shared operational store); returns how many were checked."""
        checked = 0
        for tenant in tenants:
            rows = database.query(
                f"SELECT id, owner, balance, version FROM acct_{tenant}")
            by_id = {record["id"]: record for record in rows}
            for (t, row), version in self.acked_updates.items():
                if t != tenant:
                    continue
                record = by_id.get(row)
                self.check_account(tenant, row, [record] if record else [])
                if record["version"] < version:
                    raise WrongAnswer(
                        f"acct_{tenant} id {row}: acknowledged version "
                        f"{version} lost (found {record['version']})")
                checked += 1
            events = {record["id"]: record for record in database.query(
                f"SELECT id, acct_id, amount FROM events_{tenant}")}
            acked = [key for key in self.acked_inserts if key[0] == tenant]
            if len(events) != len(acked):
                raise WrongAnswer(
                    f"events_{tenant}: {len(events)} rows, "
                    f"{len(acked)} acknowledged inserts")
            for _, event, acct, amount in acked:
                if events.get(event) != {"id": event, "acct_id": acct,
                                         "amount": amount}:
                    raise WrongAnswer(f"events_{tenant}: acknowledged "
                                      f"insert {event} missing or wrong")
                checked += 1
        return checked

    def verify_usage(self, billing: Any, tenants: Sequence[str]) -> None:
        """``billing.usage`` equals the tally of metered successes."""
        for tenant in tenants:
            want = {kind: units for kind, units in
                    self.metered.get(tenant, {}).items() if units}
            got = billing.usage(tenant)
            if got != want:
                raise WrongAnswer(f"usage of {tenant}: platform metered "
                                  f"{got}, the benchmark counted {want}")
