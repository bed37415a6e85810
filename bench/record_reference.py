"""Record the default-seed outputs that ``checks.against_reference`` compares with.

Run from the root of a checkout, only at a commit whose outputs are
trusted (the reference must come from the code before a change):

    python3 bench/record_reference.py

It runs one pass of every workload at the default seed, checks the
invariants, and writes ``bench/reference.json``.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import checks
    import workloads

    run.SCRATCH.mkdir(exist_ok=True)
    tmp = run.Path(tempfile.mkdtemp(prefix="reference-", dir=run.SCRATCH))
    reference = {}
    try:
        for workload in workloads.WORKLOADS:
            reqs = workloads.build(workload, workloads.DEFAULT_SEED, tmp)
            reference[workload] = {}
            for req in reqs:
                result = run.execute(req, tmp)
                if req.argv:
                    code, path = result
                    result = (code, path.read_text(encoding="utf-8"))
                fields = checks.extract(req, result)
                problems = checks.invariants(req, fields)
                if problems:
                    print(f"{req.rid}: {problems}", file=sys.stderr)
                    return 1
                reference[workload][req.rid] = fields
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
