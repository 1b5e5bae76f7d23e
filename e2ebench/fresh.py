#!/usr/bin/env python3
"""Time reopens and one set-up of ODBIS in a fresh process.

Usage, from the repository root::

    python3 e2ebench/fresh.py <data_dir> <workload> <seed> <work_dir>

``run.py`` calls this after every round.  It reopens ``REOPENS``
copies of ``data_dir`` one after the other (the copies are made in
the empty ``work_dir`` and are not timed), then sets a new platform up
in ``work_dir`` from the same generated inputs as the driven one.  So
recovery and set-up are sampled at several moments of the run rather
than in the few seconds after it, and none of these platforms' memory
adds to the run's peak.  The last line of standard output is the
seconds each ``OdbisPlatform(data_dir=...)`` took, then the seconds
the set-up took.
"""

from __future__ import annotations

import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro import OdbisPlatform  # noqa: E402  (imported before timing)
import repro.etl  # noqa: E402,F401
import repro.reporting  # noqa: E402,F401
from workloads import build_platform, generate, load_config  # noqa: E402

#: Reopens per process: one sample of a sub-second reopen moves by a
#: third with the host, so each process takes several.
REOPENS = 3


def main(argv: list) -> int:
    if len(argv) != 4 or not Path(argv[0]).is_dir():
        print("usage: fresh.py <data_dir> <workload> <seed> <work_dir>",
              file=sys.stderr)
        return 2
    data_dir, workload, seed, work = argv
    spec = load_config()["workloads"][workload]
    tenants = generate(spec, int(seed), workload)
    copy, setup_dir = Path(work) / "reopen", Path(work) / "setup"

    timings = []
    for _ in range(REOPENS):
        shutil.copytree(data_dir, copy)
        started = time.perf_counter()
        platform = OdbisPlatform(data_dir=copy)
        timings.append(time.perf_counter() - started)
        platform.close()
        shutil.rmtree(copy)

    started = time.perf_counter()
    deployment = build_platform(setup_dir, tenants, spec)
    timings.append(time.perf_counter() - started)
    deployment.platform.close()
    print(" ".join(repr(seconds) for seconds in timings))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
