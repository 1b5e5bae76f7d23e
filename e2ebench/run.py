#!/usr/bin/env python3
"""E20: the end-to-end benchmark of the assembled ODBIS platform.

Usage, from the repository root::

    python3 e2ebench/run.py --workload dashboard_analytics --seed 1 \\
        --seconds 40 --trace 0

One run drives one workload in this process, on an ``OdbisPlatform``
built with default settings plus a ``data_dir`` under
``.e2ebench_work/`` (so it is durable, with the default
``fsync="always"``).  All traffic goes through
``platform.gateway.submit`` as SQL, MDX, dashboard and catalogue
requests; the benchmark also runs ETL jobs through
``platform.integration.run_job``.  Phases:

1. set-up of the driven platform, timed;
2. warm-up, not timed;
3. ``ROUNDS`` rounds of closed-loop windows (``closed_loop_clients``
   threads, each waiting for its reply, sharing a fixed number of
   tickets per window: about ``WINDOW_SECONDS`` at the workload's
   nominal rate, a whole number of ETL periods) then an open-loop
   segment (one generator thread sending Poisson arrivals at the
   workload's fixed rate, each request timed from when it was due);
4. after every round, in a fresh process (``fresh.py``), timed
   reopens of copies of the data directory as it stood after the first
   round, and a timed set-up of a new platform from the same inputs;
5. ``platform.close()`` and one untimed reopen that checks the
   recovered state.

Every metric is a median over samples spread across the whole run,
because the host's speed drifts by tens of percent from one minute to
the next: ``goodput_rps`` is the median window's 2xx answers per
second, ``latency_p50_ms`` the median open-loop latency,
``recovery_s`` the median reopen, and ``setup_s`` the median of the
driven platform's set-up and the fresh processes' ones.

Every answer is checked against an sqlite3 oracle, billing usage
against the benchmark's own tally, and after the reopen every
acknowledged write and the usage again.  A wrong answer or any 500
makes the run exit 1.  A generator that fell behind its schedule past
the limits in ``workloads.json`` makes the run invalid: it prints why
and exits 3 without numbers.

``--trace 1`` is the separate traced run: it alternates untraced and
traced rounds, prints the per-layer table and reports the per-layer
metrics instead of the end-to-end ones.  The last line of standard
output is always the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import wait
from functools import partial
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from stats import percentile, spread  # noqa: E402
from workloads import (  # noqa: E402
    REQUEST_ID_HEADER,
    Checker,
    Mix,
    Oracle,
    Req,
    WrongAnswer,
    build_platform,
    close_enough,
    generate,
    load_config,
    normalise,
    seeded,
)

#: Share of ``--seconds`` spent in the closed loop (the rest is open).
CLOSED_SHARE = 0.6
#: Rounds of closed-loop windows then one open-loop segment, each
#: followed by a fresh process's reopen and set-up (the traced run
#: uses twice as many, alternating untraced and traced).
ROUNDS = 6
#: Target length of one closed-loop window, in seconds at the
#: workload's nominal rate.
WINDOW_SECONDS = 0.5
#: Untimed warm-up closed loop, in seconds at the nominal rate.
WARMUP_SECONDS = 1.0
#: The ETL tick's MDX: everything loaded so far into the Loads cube.
LOADS_MDX = ("SELECT {[Measures].[loaded], [Measures].[load_amount]} "
             "ON COLUMNS FROM [Loads]")
#: How long past its phase the open-loop generator keeps sending
#: requests that fell due while it was held up.
SEND_GRACE_SECONDS = 1.0
#: How long to wait for any single answer before declaring a hang.
ANSWER_TIMEOUT = 60.0


class InvalidRun(Exception):
    """The measurement itself is not trustworthy; report no numbers."""


class Runner:
    """Drives one set-up platform through the benchmark phases."""

    def __init__(self, spec: Dict[str, Any], seed: int, deployment: Any,
                 tenants: List[Any], spill: Path):
        self.spec = spec
        self.seed = seed
        self.deployment = deployment
        self.platform = deployment.platform
        self.tenants = tenants
        self.mix = Mix(spec, tenants)
        self.checker = Checker(mutable_accounts="update" in spec["mix"],
                               spill=spill)
        self._request_ids = iter(range(1, 1 << 62))
        self._load_ids = iter(range(1, 1 << 62))
        self.loaded: Dict[str, Tuple[int, int]] = {}
        self.etl_runs = 0
        # One ETL tick at a time: its MDX check expects exactly the
        # loads made so far.
        self._etl_lock = threading.Lock()
        # Closed-loop tickets handed out so far, across windows.
        self._tickets = 0

    # -- sending -----------------------------------------------------------------

    def submit(self, req: Req) -> Any:
        headers = {"X-Auth-Token": self.deployment.tokens[req.tenant],
                   REQUEST_ID_HEADER: str(next(self._request_ids))}
        self.checker.issue(req)
        return self.platform.gateway.submit(req.method, req.path, req.body,
                                            headers)

    def call(self, req: Req) -> bool:
        """Send and wait; True on a 2xx answer."""
        response = self.submit(req).result(ANSWER_TIMEOUT)
        return self.checker.record(req, response)

    def etl_tick(self, rng: Any) -> None:
        """One ETL job, a cube invalidation and an MDX query whose
        answer must include the load."""
        with self._etl_lock:
            self._etl_tick(rng)

    def _etl_tick(self, rng: Any) -> None:
        data = rng.choice(self.tenants)
        t = data.tenant
        batch = [{"load_id": next(self._load_ids),
                  "store_id": rng.randrange(len(data.stores)),
                  "amount": rng.randrange(1, 1000)}
                 for _ in range(self.spec["etl_rows"])]
        self.deployment.etl_batches[t][:] = batch
        result = self.platform.integration.run_job(t, "load")
        self.etl_runs += 1
        if result.rows_written != len(batch):
            self.checker.problem(f"ETL into {t}: wrote {result.rows_written}"
                                 f" of {len(batch)} rows")
        self.checker.meter(t, "etl_rows", result.rows_written)
        count, total = self.loaded.get(t, (0, 0))
        count += len(batch)
        total += sum(row["amount"] for row in batch)
        self.loaded[t] = (count, total)
        self.platform.analysis.invalidate_cube(t, "Loads")
        req = Req("etl_check", t, "POST", f"/tenants/{t}/mdx",
                  {"statement": LOADS_MDX})
        response = self.submit(req).result(ANSWER_TIMEOUT)
        if self.checker.record(req, response):
            want = {"measures": ["loaded", "load_amount"], "axes": [],
                    "rows": [{"loaded": count, "load_amount": total}]}
            got = normalise("etl_check", response.json())
            if not close_enough(got, want):
                self.checker.problem(f"MDX after ETL into {t}: got {got}, "
                                     f"expected {want}")

    # -- phases ------------------------------------------------------------------

    def warm_up(self) -> None:
        for req in self.mix.warmup_requests():
            self.call(req)
        self.etl_tick(seeded(self.seed, "warmup-etl"))
        self.closed_loop(self.tickets(WARMUP_SECONDS), "warmup")

    def tickets(self, seconds: float) -> int:
        """Closed-loop tickets that take about ``seconds`` at the
        workload's nominal rate, rounded to a whole number (at least
        one) of ETL periods, so every window holds as many ETL ticks."""
        every = self.spec["etl_every_requests"]
        periods = round(self.spec["closed_loop_nominal_rps"] * seconds
                        / every)
        return every * max(1, periods)

    def closed_loop(self, requests: int, label: str) -> Tuple[int, int, float]:
        """Clients that each wait for their reply, until they have taken
        ``requests`` tickets between them; every ``etl_every_requests``-th
        ticket of the run is an ETL tick instead of a request, and the
        requests are a deck of the mix drawn before the clock starts.
        A fixed count, not a fixed time, so every run leaves the same
        amount of data behind (WAL length, heap size).  Returns (2xx
        answers, requests attempted, elapsed seconds)."""
        clients = self.spec["closed_loop_clients"]
        every = self.spec["etl_every_requests"]
        ok = [0] * clients
        first, self._tickets = self._tickets, self._tickets + requests
        etl_ticks = self._tickets // every - first // every
        deck = iter(self.mix.deck(seeded(self.seed, "closed", label),
                                  requests - etl_ticks))
        # An ETL tick is its ticket number, a request its Req.
        jobs = iter([ticket if ticket % every == every - 1 else next(deck)
                     for ticket in range(first, self._tickets)])
        errors: List[BaseException] = []
        start = time.perf_counter()

        def client(index: int) -> None:
            try:
                for job in jobs:
                    if isinstance(job, int):
                        self.etl_tick(seeded(self.seed, "etl", job))
                    else:
                        ok[index] += self.call(job)
            except BaseException as exc:  # reported by the caller
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(index,),
                                    name=f"e2e-client-{index}")
                   for index in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        if errors:
            raise errors[0]
        return sum(ok), requests - etl_ticks, elapsed

    def open_loop(self, seconds: float, rate: float,
                  label: str) -> Dict[str, Any]:
        """Poisson arrivals from one generator thread; latency of each
        request from when it was due."""
        rng = seeded(self.seed, "open", label)
        offsets: List[float] = []
        offset = rng.expovariate(rate)
        while offset < seconds:
            offsets.append(offset)
            offset += rng.expovariate(rate)
        reqs = [self.mix.next(rng) for _ in offsets]
        finished: List[Optional[float]] = [None] * len(offsets)

        def done(index: int, _future: Any) -> None:
            finished[index] = time.perf_counter()

        futures = []
        lateness: List[float] = []
        start = time.perf_counter() + 0.005
        give_up = start + seconds + SEND_GRACE_SECONDS
        for index, (due, req) in enumerate(zip(offsets, reqs)):
            due += start
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            now = time.perf_counter()
            if now > give_up:
                break
            lateness.append(now - due)
            future = self.submit(req)
            future.add_done_callback(partial(done, index))
            futures.append(future)
        _, pending = wait(futures, timeout=ANSWER_TIMEOUT * 2)
        if pending:
            raise RuntimeError(f"{len(pending)} open-loop requests never "
                               f"answered")
        ok_latencies: List[float] = []
        ok = 0
        for index, future in enumerate(futures):
            if self.checker.record(reqs[index], future.result()):
                ok += 1
                ok_latencies.append(
                    (finished[index] - (start + offsets[index])) * 1000.0)
        return {"due": len(offsets), "sent": len(futures), "ok": ok,
                "latencies_ms": ok_latencies,
                "lateness_ms": [value * 1000.0 for value in lateness]}


# -- one run --------------------------------------------------------------------------

def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fresh_timings(base: Path, work: Path, workload: str,
                  seed: int) -> Tuple[List[float], float]:
    """Seconds a fresh process takes to reopen copies of the data
    directory ``base`` (``fresh.REOPENS`` of them) and to set a new
    platform up from the run's inputs."""
    scratch = work / "fresh"
    scratch.mkdir()
    try:
        completed = subprocess.run(
            [sys.executable, str(HERE / "fresh.py"), str(base), workload,
             str(seed), str(scratch)],
            capture_output=True, text=True, timeout=ANSWER_TIMEOUT)
    finally:
        shutil.rmtree(scratch)
    if completed.returncode != 0:
        raise RuntimeError(f"fresh.py exited {completed.returncode}: "
                           f"{completed.stderr[-2000:]}")
    *reopens, setup = (float(value)
                       for value in completed.stdout.splitlines()[-1].split())
    return reopens, setup


def set_up(data_dir: Path, tenants: List[Any],
           spec: Dict[str, Any]) -> Tuple[Any, float]:
    """One timed set-up; returns the deployment and its seconds."""
    started = time.perf_counter()
    deployment = build_platform(data_dir, tenants, spec)
    return deployment, time.perf_counter() - started


def run(workload: str, seed: int, seconds: float, traced: bool,
        work: Path, out_dir: Path) -> Dict[str, Any]:
    from repro import OdbisPlatform
    from spans import (PlatformTracer, SpanRecorder, gateway_counters,
                       olap_counters, per_layer)

    config = load_config()
    spec = config["workloads"][workload]
    limits = config["generator_limits"]
    tenants = generate(spec, seed, workload)
    print(f"E20 {workload}: seed {seed}, {seconds:g}s measured, "
          f"trace {int(traced)}; SHARED tenancy, fsync 'always' "
          f"(platform defaults) with a data_dir")
    print(f"  data: {len(tenants)} tenants x "
          f"({spec['accounts_per_tenant']} accounts, "
          f"{spec['orders_per_tenant']} orders, "
          f"{spec['fact_rows_per_tenant']} fact rows, "
          f"{spec['stores']} stores, {spec['days']} days)")

    data_dir = work / "platform"
    deployment, first_setup = set_up(data_dir, tenants, spec)
    runner = Runner(spec, seed, deployment, tenants, work / "answers.pickle")
    platform = deployment.platform
    print(f"  fsync policy of the driven platform: {platform.fsync!r}")
    runner.warm_up()

    recorder = SpanRecorder() if traced else None
    tracer = PlatformTracer(platform, recorder) if traced else None
    olap = [0, 0]
    gateway = [0, 0]

    def traced_round(fn, *args):
        before_olap, before_gateway = (olap_counters(platform),
                                       gateway_counters(platform))
        tracer.install()
        try:
            return fn(*args)
        finally:
            tracer.uninstall()
            after_olap, after_gateway = (olap_counters(platform),
                                         gateway_counters(platform))
            for totals, after, before in ((olap, after_olap, before_olap),
                                          (gateway, after_gateway,
                                           before_gateway)):
                totals[0] += after[0] - before[0]
                totals[1] += after[1] - before[1]

    # Closed-loop windows and open-loop segments alternate, so both
    # phases sample the whole run rather than one stretch of it.
    rounds = ROUNDS * (2 if traced else 1)
    window = runner.tickets(WINDOW_SECONDS)
    windows = max(1, round(seconds * CLOSED_SHARE / rounds
                           * spec["closed_loop_nominal_rps"] / window))
    open_segment = seconds * (1 - CLOSED_SHARE) / rounds
    rate = spec["open_loop_rps"]
    plain: List[float] = []
    with_trace: List[float] = []
    closed_ok = closed_attempted = 0
    reopen_times: List[float] = []
    setup_times = [first_setup]
    recovery_base = work / "recovery-base"
    phase: Dict[str, Any] = {"due": 0, "sent": 0, "ok": 0,
                             "latencies_ms": [], "lateness_ms": []}
    for index in range(rounds):
        use_trace = traced and index % 2 == 1

        def one_round():
            closed = [runner.closed_loop(window, f"r{index}w{part}")
                      for part in range(windows)]
            return closed, runner.open_loop(open_segment, rate, f"r{index}")

        closed, segment = traced_round(one_round) if use_trace \
            else one_round()
        for ok, attempted, elapsed in closed:
            (with_trace if use_trace else plain).append(ok / elapsed)
            closed_ok += ok
            closed_attempted += attempted
        for key, value in segment.items():
            phase[key] += value
        if index == 0:
            # Taken while no request is in flight; every commit is
            # fsynced.  Every round reopens this same state, so the
            # reopens differ only in the moment they are timed.
            shutil.copytree(data_dir, recovery_base)
        reopens, setup_time = fresh_timings(recovery_base, work, workload,
                                            seed)
        reopen_times += reopens
        setup_times.append(setup_time)
    goodput = statistics.median(plain)

    checker = runner.checker
    names = [data.tenant for data in tenants]
    checker.verify_usage(platform.billing, names)
    writes_checked = checker.verify_state(platform.tenants.platform_db,
                                          names)
    usage = {t: platform.billing.usage(t) for t in names}
    platform.close()
    del platform, deployment, runner.platform, runner.deployment
    if tracer is not None:
        tracer.platform = None
    gc.collect()
    reopened = OdbisPlatform(data_dir=data_dir)
    try:
        checker.verify_state(reopened.tenants.platform_db, names)
        checker.verify_usage(reopened.billing, names)
        if {t: reopened.billing.usage(t) for t in names} != usage:
            raise WrongAnswer("usage changed across close and reopen")
    finally:
        reopened.close()
    del reopened
    gc.collect()
    recovery_s = statistics.median(reopen_times)
    setup_s = statistics.median(setup_times)
    peak_rss = rss_mb()

    oracle = Oracle(tenants)
    try:
        answers_checked = checker.verify_answers(oracle)
    finally:
        oracle.close()
        checker.close()
    if checker.problems:
        raise WrongAnswer("; ".join(checker.problems))

    attempted = closed_attempted + phase["sent"]
    ok_total = closed_ok + phase["ok"]
    failed = attempted - ok_total
    latencies = phase["latencies_ms"]
    lateness = percentile(phase["lateness_ms"], 50)
    lateness_p99 = percentile(phase["lateness_ms"], 99)
    unsent = phase["due"] - phase["sent"]
    p50 = percentile(latencies, 50)
    p99 = percentile(latencies, 99)
    slo = spec["slo_p99_ms"]
    within = sum(1 for value in latencies if value <= slo)

    window_rates = spread(plain)
    print(f"  set-up: {setup_s:.4f} s (median of {len(setup_times)}: "
          f"the driven platform's and one in a fresh process after each "
          f"round)")
    print(f"  closed loop: {spec['closed_loop_clients']} clients, "
          f"{rounds} x {windows} windows of {window} tickets; untraced "
          f"windows' goodput median {goodput:.1f} req/s of "
          f"{len(plain)}, quartiles {window_rates.q1:.1f} / "
          f"{window_rates.q3:.1f} req/s")
    print(f"  open loop: {rate} req/s Poisson, {rounds} segments of "
          f"{open_segment:g}s; "
          f"due {phase['due']}, sent {phase['sent']}, 2xx {phase['ok']}; "
          f"generator lateness {lateness.describe('ms')}, "
          f"{lateness_p99.describe('ms')}")
    print(f"  latency from due time: {p50.describe('ms')}; "
          f"{p99.describe('ms')}")
    verdict = ("not judged (p99 unsupported)" if not p99.supported
               else "met" if p99.value <= slo else "MISSED")
    print(f"  SLO p99 <= {slo:g} ms: {verdict}"
          f"; {within}/{phase['sent']} requests answered 2xx within it "
          f"(failures count as misses)")
    print(f"  failed_share: {failed}/{attempted} = "
          f"{failed / max(1, attempted):.5f} (sheds: 429/503/504)")
    print(f"  ETL runs: {runner.etl_runs}; recovery: {recovery_s:.4f} s "
          f"(median of {len(reopen_times)} reopens, in a fresh process "
          f"after each round, of the state after the first); "
          f"peak RSS {peak_rss:.1f} MB")
    print(f"  correctness: {answers_checked} distinct answers checked "
          f"against sqlite3, {writes_checked} acknowledged writes "
          f"present before and after reopen, usage equal to the tally")

    if lateness.value > limits["max_lateness_p50_ms"]:
        raise InvalidRun(f"generator lateness p50 {lateness.value:.2f} ms "
                         f"exceeds {limits['max_lateness_p50_ms']} ms")
    if unsent > limits["max_unsent_share"] * phase["due"]:
        raise InvalidRun(f"generator sent {phase['sent']} of "
                         f"{phase['due']} due requests")

    if traced:
        ratio = statistics.median(with_trace) / goodput
        layers = per_layer(recorder.spans, tuple(olap), tuple(gateway),
                           ratio)
        spans_file = out_dir / f"spans-{workload}-{seed}.tsv"
        recorder.write(str(spans_file))
        print(f"  tracing overhead: traced goodput "
              f"{statistics.median(with_trace):.1f} vs untraced "
              f"{goodput:.1f} req/s (ratio {ratio:.3f}); "
              f"{len(recorder.spans)} spans written to {spans_file}")
        print(f"  per-layer ({workload}, traced windows):")
        for layer in layers:
            print(f"    {layer.name:34s} {layer.value:14.4f} "
                  f"{layer.unit:6s} (n={layer.samples})")
        metrics = {layer.name: {"value": layer.value, "unit": layer.unit}
                   for layer in layers}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "goodput_rps": {"value": goodput, "unit": "req/s"},
            "latency_p50_ms": {"value": p50.value, "unit": "ms"},
            "ok_share": {"value": ok_total / attempted, "unit": "ratio"},
            "peak_rss_mb": {"value": peak_rss, "unit": "MB"},
            "recovery_s": {"value": recovery_s, "unit": "s"},
        }
    return {"correct": True, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'repro'} not found; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    if args.workload not in load_config()["workloads"]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401  (imported before any set-up is timed)
    import repro.etl  # noqa: F401
    import repro.reporting  # noqa: F401

    base = ROOT / ".e2ebench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    try:
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace), work, base)
    except WrongAnswer as exc:
        print(f"WRONG ANSWER: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    except InvalidRun as exc:
        print(f"INVALID RUN (no numbers reported): {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
