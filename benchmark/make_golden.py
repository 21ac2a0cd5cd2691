"""Record the golden outputs in expected/golden.json from the current code.

    python3 benchmark/make_golden.py

Run it from a checkout root only when a change to kinser's outputs is
intended, and review the diff of golden.json: the benchmark counts every
job whose stdout, output file or input file differs from it as failed.
The verdicts and exit codes in expected/answers.json are written by hand
and are not touched. The n4_violators jobs are recorded for every draw
any seed can make.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import kinser.cli  # noqa: E402

from jobs import (RELAXED_PER_MATROID, WORKLOADS, admissible_transversals,  # noqa: E402
                  inputs, jobs, make_inputs)
from worker import digest  # noqa: E402

INLINE_LIMIT = 2048  # larger outputs are stored as sha256 and length


def recorded(data: bytes):
    return data.decode() if len(data) <= INLINE_LIMIT else digest(data)


def main() -> int:
    all_draws = list(itertools.combinations(admissible_transversals(), RELAXED_PER_MATROID))
    work = ROOT / ".bench_work" / "golden"
    shutil.rmtree(work, ignore_errors=True)
    golden = {"inputs": {}, "jobs": {}}
    for workload in WORKLOADS:
        in_dir, out_dir = work / workload / "in", work / workload / "out"
        in_dir.mkdir(parents=True)
        out_dir.mkdir()
        with contextlib.redirect_stdout(io.StringIO()):
            failed = make_inputs(kinser.cli.main, inputs(workload, all_draws), in_dir)
        if failed:
            raise SystemExit(f"could not write inputs {failed}")
        for path in sorted(in_dir.iterdir()):
            golden["inputs"][path.name] = digest(path.read_bytes())
        for job in jobs(workload, all_draws):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                kinser.cli.main([a.format(**{"in": in_dir, "out": out_dir}) for a in job.argv])
            golden["jobs"][job.id] = {
                "stdout": recorded(out.getvalue().encode()),
                "files": {name: recorded((out_dir / name).read_bytes())
                          for name in job.outputs}}
            print(job.id, file=sys.stderr)
    (BENCH_DIR / "expected" / "golden.json").write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
