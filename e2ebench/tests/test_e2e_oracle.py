import json

import pytest

from workloads import (Checker, MdxSpec, Mix, Oracle, Req, WrongAnswer,
                       build_platform, close_enough, generate, load_config,
                       normalise, seeded, sort_rows)


def test_close_enough_tolerates_summation_order_only():
    assert close_enough(0.1 + 0.2 + 0.3, 0.3 + 0.2 + 0.1)
    assert close_enough({"a": [1, 2.0]}, {"a": [1, 2]})
    assert not close_enough(100.0, 100.01)
    assert not close_enough([1, 2], [1, 2, 3])
    assert not close_enough({"a": 1}, {"b": 1})
    assert not close_enough("R1", "R2")


def test_sort_rows_puts_unordered_results_in_a_fixed_order():
    rows = [{"k": "b", "v": 1}, {"k": "a", "v": 2}]
    assert sort_rows(rows, ["k"]) == [{"k": "a", "v": 2},
                                       {"k": "b", "v": 1}]


def test_normalise_mdx_orders_rows_by_axis():
    payload = {"measures": ["revenue"], "axes": [["Store", "region"]],
               "rows": [{"Store.region": "R2", "revenue": 1.5},
                        {"Store.region": "R1", "revenue": 2.5}]}
    got = normalise("mdx_fixed", payload)
    assert [row["Store.region"] for row in got["rows"]] == ["R1", "R2"]


def test_normalise_dashboard_drops_transport_fields_and_orders_series():
    payload = {"dashboard": "d", "description": "x", "elements": [
        {"row": 0, "type": "chart", "kind": "bar", "name": "c",
         "series": [{"category": "b", "value": 1},
                    {"category": "a", "value": 2}]},
        {"row": 0, "type": "table", "name": "t", "columns": ["a"],
         "rows": [{"a": 1}]}]}
    got = normalise("dashboard", payload)
    assert got == {"dashboard": "d", "elements": [
        {"row": 0, "type": "chart", "name": "c",
         "series": [("a", 2), ("b", 1)]},
        {"row": 0, "type": "table", "name": "t", "rows": [{"a": 1}]}]}


def test_deck_holds_the_whole_part_of_every_share():
    spec = dict(load_config()["workloads"]["dashboard_analytics"])
    spec.update(tenants=1, accounts_per_tenant=5, orders_per_tenant=5,
                fact_rows_per_tenant=5)
    mix = Mix(spec, generate(spec, 1, "dashboard_analytics"))
    total = sum(mix.weights)
    for count in (1, 59, 400):
        kinds = [req.kind for req in mix.deck(seeded(1, count), count)]
        assert len(kinds) == count
        extra = count - sum(int(count * weight / total)
                            for weight in mix.weights)
        for kind, weight in zip(mix.kinds, mix.weights):
            share = int(count * weight / total)
            assert share <= kinds.count(kind) <= share + extra
    first = [req.path for req in mix.deck(seeded(7, "w"), 59)]
    assert first == [req.path for req in mix.deck(seeded(7, "w"), 59)]


def test_mdx_spec_renders_text_and_oracle_sql():
    spec = MdxSpec("Sales", ("revenue",), ("Time", "day"), (3, 5),
                   (("Store", "city", "C001"),))
    assert spec.text() == (
        "SELECT {[Measures].[revenue]} ON COLUMNS, "
        "{[Time].[day].[3], [Time].[day].[5]} ON ROWS FROM [Sales] "
        "WHERE ([Store].[city].[C001])")
    sql, params = spec.oracle_sql()
    assert params == [3, 5, "C001"]
    assert "GROUP BY d_Time.day" in sql


@pytest.fixture()
def small_run(tmp_path):
    """A two-tenant platform that answered every read kind once."""
    import run

    spec = dict(load_config()["workloads"]["interactive_reads"])
    spec.update(tenants=2, accounts_per_tenant=20, orders_per_tenant=30,
                fact_rows_per_tenant=50)
    spec["mix"] = {"point_read": 1, "adhoc_sql": 1, "mdx_sliced": 1,
                   "mdx_fixed": 1, "dashboard": 1, "dataset_rows": 1}
    tenants = generate(spec, 5, "interactive_reads")
    deployment = build_platform(tmp_path / "data", tenants, spec)
    runner = run.Runner(spec, 5, deployment, tenants,
                        tmp_path / "answers.pickle")
    try:
        runner.warm_up()
        runner.closed_loop(60, "test")
    finally:
        deployment.platform.close()
    oracle = Oracle(tenants)
    yield runner.checker, oracle, deployment, tenants
    oracle.close()
    runner.checker.close()


def test_gate_passes_on_the_platform_answers(small_run):
    checker, oracle, deployment, tenants = small_run
    assert not checker.problems
    kinds = {kind for kind, _ in checker.first}
    assert {"point_read", "adhoc_sql", "mdx_sliced", "mdx_fixed",
            "dashboard", "dataset_rows", "cubes", "datasets"} <= kinds
    assert checker.verify_answers(oracle) == len(checker.first)
    checker.verify_usage(deployment.platform.billing,
                         [data.tenant for data in tenants])


def test_gate_fails_on_a_wrong_expected_answer(small_run):
    checker, oracle, _, _ = small_run
    _, (kind, key), body = next(item for item in checker.spilled()
                                if item[1][0] == "dashboard")
    good = oracle.expected(kind, key)
    wrong = json.loads(json.dumps(good))
    wrong["elements"][0]["series"][0][1] += 0.01  # one cent off
    oracle.expected = lambda k, kk: wrong if (k, kk) == (kind, key) \
        else good
    with pytest.raises(WrongAnswer):
        checker.check_answer(oracle, kind, key, body)


def test_gate_fails_on_usage_the_benchmark_did_not_count(small_run):
    checker, _, deployment, tenants = small_run
    checker.meter(tenants[0].tenant, "query", 1)  # one phantom success
    with pytest.raises(WrongAnswer):
        checker.verify_usage(deployment.platform.billing,
                             [data.tenant for data in tenants])


def test_repeat_with_a_different_answer_is_a_problem(tmp_path):
    checker = Checker(mutable_accounts=False, spill=tmp_path / "a")

    class Answer:
        status = 200

        def __init__(self, body):
            self.body = body

    req = Req("mdx_fixed", "t", "POST", "/tenants/t/mdx", None, ("t", 0))
    assert checker.record(req, Answer('{"rows": [1]}'))
    assert checker.record(req, Answer('{"rows": [1]}'))
    assert not checker.problems
    assert checker.record(req, Answer('{"rows": [2]}'))
    assert checker.problems
    assert len(list(checker.spilled())) == 1  # only the first is kept
    checker.close()


def test_lost_acknowledged_write_fails_the_gate(tmp_path):
    checker = Checker(mutable_accounts=True, spill=tmp_path / "a")

    class Answer:
        status = 200
        body = json.dumps({"ok": True, "rowcount": 1})

        def json(self):
            return json.loads(self.body)

    req = Req("update", "t", "POST", "/tenants/t/sql", None, ("t", 3, 7))
    checker.issue(req)
    assert checker.record(req, Answer())

    class Store:
        def __init__(self, version):
            self.version = version

        def query(self, sql):
            if "acct_t" in sql:
                return [{"id": 3, "owner": "owner-3",
                         "balance": 3000 + self.version,
                         "version": self.version}]
            return []

    assert checker.verify_state(Store(7), ["t"]) == 1
    with pytest.raises(WrongAnswer):
        checker.verify_state(Store(0), ["t"])  # the update was lost
    checker.close()
