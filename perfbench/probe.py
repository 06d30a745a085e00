"""Fresh-process probes of the benchmark; each prints one JSON object.

    python3 perfbench/probe.py ops WORKLOAD_JSON DATA MODEL
        time ``import reliopt`` plus the first, cold operation, then the
        mean of a batch of warm operations
    python3 perfbench/probe.py fit WORKLOAD_JSON DATA MODEL
        time the first ``fit`` in the process, then three warm ones

The caller puts the checkout's ``src`` first on ``PYTHONPATH``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

from ops import LABEL, OP_BATCH_S, Workload, operation

WARM_FITS = 3


def main(argv: list[str]) -> int:
    mode, spec, data, model = argv
    workload = Workload.from_json(spec)
    if mode == "ops":
        start = time.perf_counter()
        import reliopt

        text = operation(reliopt, workload, data, model)
        setup_s = time.perf_counter() - start
        digests = {hashlib.sha256(text.encode()).hexdigest()}
        times: list[float] = []
        while sum(times) < OP_BATCH_S:
            start = time.perf_counter()
            text = operation(reliopt, workload, data, model)
            times.append(time.perf_counter() - start)
            digests.add(hashlib.sha256(text.encode()).hexdigest())
        out = {
            "setup_s": setup_s,
            "op_s": sum(times) / len(times),
            "report_sha256": sorted(digests),
        }
    elif mode == "fit":
        import reliopt

        dataset = reliopt.load_dataset(data, LABEL)
        times = []
        for _ in range(1 + WARM_FITS):
            start = time.perf_counter()
            reliopt.fit(dataset)
            times.append(time.perf_counter() - start)
        out = {"cold_s": times[0], "warm_s": times[1:]}
    else:
        print(f"unknown probe {mode!r}", file=sys.stderr)
        return 2
    out["reliopt_file"] = reliopt.__file__
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
