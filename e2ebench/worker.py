"""One benchmark worker process: ``python3 worker.py '<json config>'``.

``run.py`` starts every worker with the program's ``src`` on
``PYTHONPATH`` and BLAS/OpenMP thread caps of 1, passes the monotonic
time at which it spawned the process, and reads the single JSON line the
worker prints last.  Roles:

* ``build``: one pass of the build-cold spec list;
* ``serve-prep``: the untimed Q_16 store build and recorded answers;
* ``serve``: a serving process (a set-up probe when ``seconds`` is 0);
* ``sim-ref``: the untimed reference-engine answers of every simulate job;
* ``sim``: one pass of the simulate job list.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time

MODULES = {"build-cold": "build_cold", "serve-warm": "serve_warm", "simulate": "simulate"}


def main() -> None:
    cfg = json.loads(sys.argv[1])
    workload = importlib.import_module(MODULES[cfg["workload"]])
    import_s = time.monotonic() - cfg["spawn_t"]
    from hostspeed import HostProbe
    from tracing import TARGETS, Tracer

    role = cfg["role"]
    tracer = Tracer(TARGETS[cfg["workload"]]) if cfg.get("trace") else None
    host = HostProbe()
    if role == "build":
        out = workload.build_pass(cfg, tracer, host)
    elif role == "serve-prep":
        out = workload.serve_prepare(cfg)
    elif role == "serve":
        out = workload.serve_process(cfg, tracer, import_s, host)
    elif role == "sim-ref":
        out = workload.sim_reference(cfg)
    elif role == "sim":
        out = workload.sim_pass(cfg, tracer, host)
    else:
        raise SystemExit(f"unknown role {role!r}")
    out["probes"] = host.samples
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        out["trace"] = tracer.summary()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
