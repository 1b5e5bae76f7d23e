import threading

from spans import (END, ID, NAME, PARENT, REQUEST, START, THREAD,
                   PlatformTracer, SpanRecorder, per_layer, self_time_ns)


def span(start, end, thread=1, ident=0, parent=None):
    return (ident, parent, None, "s", thread, start, end, None)


def test_self_time_without_children_is_the_duration():
    assert self_time_ns(span(100, 200), []) == 100


def test_self_time_subtracts_nested_children():
    parent = span(0, 100)
    children = [span(10, 20), span(30, 60)]
    assert self_time_ns(parent, children) == 100 - 10 - 30


def test_self_time_merges_overlapping_children():
    parent = span(0, 100)
    children = [span(10, 50), span(40, 70), span(60, 65)]  # covers 10..70
    assert self_time_ns(parent, children) == 40


def test_self_time_clips_children_to_the_parent():
    parent = span(50, 100)
    assert self_time_ns(parent, [span(0, 60), span(90, 150)]) == 30


def test_self_time_ignores_children_on_other_threads():
    parent = span(0, 100, thread=1)
    assert self_time_ns(parent, [span(10, 90, thread=2)]) == 100


def test_spans_nest_and_inherit_the_request_id():
    recorder = SpanRecorder()
    outer = recorder.open("outer", request="r1")
    inner = recorder.wrap("inner", lambda: recorder.open("leaf"))()
    recorder.close(inner)
    recorder.close(outer)
    by_name = {s[NAME]: s for s in recorder.spans}
    assert by_name["inner"][PARENT] == by_name["outer"][ID]
    assert by_name["leaf"][PARENT] == by_name["inner"][ID]
    assert {s[REQUEST] for s in recorder.spans} == {"r1"}


def test_worker_thread_keeps_serving_its_request():
    recorder = SpanRecorder()

    def worker():
        recorder.serving("r9")
        handle = recorder.open("web.handle", request="r9")
        recorder.close(handle)
        after = recorder.open("engine.parse")  # after the web layer
        recorder.close(after)

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(10)
    assert not thread.is_alive()
    assert [s[REQUEST] for s in recorder.spans] == ["r9", "r9"]
    # On the benchmark's own thread nothing is being served.
    loose = recorder.open("loose")
    recorder.close(loose)
    assert recorder.spans[-1][REQUEST] is None


def _platform():
    from repro import OdbisPlatform

    platform = OdbisPlatform()
    platform.provisioning.provision("acme", "Acme")
    platform.tenants.platform_db.execute(
        "CREATE TABLE acct (id INTEGER PRIMARY KEY, v INTEGER)")
    platform.tenants.platform_db.execute("INSERT INTO acct VALUES (1, 7)")
    token = platform.web.request(
        "POST", "/login",
        {"username": "admin@acme", "password": "changeme"}).json()["token"]
    return platform, token


def test_request_id_links_spans_across_the_gateway_thread_hop():
    from workloads import REQUEST_ID_HEADER

    platform, token = _platform()
    recorder = SpanRecorder()
    tracer = PlatformTracer(platform, recorder)
    body = {"sql": "SELECT v FROM acct WHERE id = ?", "params": [1]}
    # Once untraced, so the engine's statement cache is warm.
    platform.gateway.submit("POST", "/tenants/acme/sql", body,
                            {"X-Auth-Token": token}).result(30)
    tracer.install()
    try:
        reply = platform.gateway.submit(
            "POST", "/tenants/acme/sql", body,
            {"X-Auth-Token": token, REQUEST_ID_HEADER: "42"}).result(30)
    finally:
        tracer.uninstall()
        platform.gateway.shutdown()
    assert reply.status == 200 and reply.json()["rows"] == [{"v": 7}]
    names = [s[NAME] for s in recorder.spans]
    submit = next(s for s in recorder.spans if s[NAME] == "gateway.submit")
    handle = next(s for s in recorder.spans if s[NAME] == "web.handle")
    assert handle[PARENT] == submit[ID]
    assert handle[THREAD] != submit[THREAD]
    assert handle[START] >= submit[START]
    assert all(s[REQUEST] == "42" for s in recorder.spans)
    # With a warm statement cache a point read parses its SQL three
    # times (gateway admission, handler, stale-cache key) and meters
    # once; there is no fsync because this platform has no data_dir.
    assert names.count("engine.parse") == 3
    assert names.count("billing.meter") == 1
    layers = {layer.name: layer for layer in
              per_layer(recorder.spans, (0, 0), (1, 0), 1.0)}
    assert layers["engine.parse_calls_per_request"].value == 3
    assert layers["engine.parse_calls_per_sql_request"].value == 3
    assert layers["billing.meter_calls_per_request"].value == 1
    assert layers["web.self_us"].value > 0
    assert all(s[END] >= s[START] for s in recorder.spans)


def test_uninstall_restores_every_original():
    import os

    import repro.core.overload
    import repro.engine.database

    platform, _ = _platform()
    originals = (os.fsync, repro.core.overload.parse_sql,
                 repro.engine.database.parse_sql)
    tracer = PlatformTracer(platform, SpanRecorder())
    tracer.install()
    assert os.fsync is not originals[0]
    tracer.uninstall()
    assert (os.fsync, repro.core.overload.parse_sql,
            repro.engine.database.parse_sql) == originals
    assert "submit" not in vars(platform.gateway)
    assert "execute" not in vars(platform.tenants.platform_db)
