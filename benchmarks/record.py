"""Write recorded.json: every cell of every workload at the recorded seed.

    python3 benchmarks/record.py

Refuses to record a table that fails `hmmdiv.cli.check_rows`. Prints the
sha256 of the file written; BENCHMARK.json passes it to run.py as
--recorded-sha256, so the values cannot change without that line changing.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import run


def main() -> int:
    run.load_package()
    from hmmdiv import cli
    from workloads import WORKLOADS

    out = {}
    for w in WORKLOADS.values():
        specs = w.specs(run.RECORDED_SEED)
        os.environ["HMMDIV_THREADS"] = str(w.threads)
        rows = cli.run_cases(specs, w.methods)
        failures = cli.check_rows(specs, rows)
        if failures:
            raise SystemExit(f"record.py: {w.name} fails check_rows: {failures}")
        out[w.name] = {cell: list(v) for cell, v in run.table_cells(rows, w.methods).items()}
    data = (json.dumps(out, indent=1, sort_keys=True) + "\n").encode()
    run.RECORDED.write_bytes(data)
    print(hashlib.sha256(data).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
