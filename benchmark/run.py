"""The kinser benchmark: time to verdict on fixed CLI workloads.

    python3 benchmark/run.py --workload n4_clean --seed 1 --seconds 36 --trace 0

Run it from the root of a checkout. It writes the workload's input files
through ``kinser.cli.main``, times interpreter start-up in fresh
processes, then runs the workload's jobs in one worker process (see
worker.py) for about ``--seconds`` seconds and checks every output. The
last line of stdout is one JSON object; ``--trace 1`` reports the
per-layer metrics of a traced run instead of the end-to-end metrics.
Scratch files go to ``.bench_work/<workload>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

from jobs import WORKLOADS, draw, inputs, jobs, make_inputs  # noqa: E402

RUN_LIMIT_S = 170    # the whole run must end within 180 s
UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {"engine.tuples": "count", "engine.rank_queries": "count",
               "core.flats": "count", "engine.scan_frac": "ratio",
               "engine.queries_per_tuple": "ratio", "engine.tuples_per_s": "1/s"}


def child_env() -> dict[str, str]:
    """One process, one thread: no BLAS or OpenMP worker threads."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "seed": seed, "git_commit": git_commit(), "src_sha256": h.hexdigest()[:16]}


def seed_only_draws(seed: int) -> bool:
    """Self-check: another seed changes nothing but the n4_violators draw."""
    a, b = draw(seed), draw(seed + 1)
    return all(jobs(w, a) == jobs(w, b) and inputs(w, a) == inputs(w, b)
               for w in WORKLOADS if w != "n4_violators")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()
    if not (SRC / "kinser" / "cli.py").is_file():
        print(f"error: no kinser sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import kinser.cli

    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "in").mkdir(parents=True)
    (work / "out").mkdir()
    draws = draw(args.seed)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        bad_inputs = make_inputs(kinser.cli.main, inputs(args.workload, draws), work / "in")
    if bad_inputs:
        print(f"error: could not write inputs {bad_inputs}: {err.getvalue()}",
              file=sys.stderr)
        return 1
    env = environment(args.seed)
    try:
        subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), str(work),
                        args.workload, str(args.seed), str(args.seconds), str(args.trace)],
                       cwd=ROOT, env=child_env(), check=True,
                       timeout=RUN_LIMIT_S - (time.monotonic() - started))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: worker failed: {exc}", file=sys.stderr)
        return 1
    res = json.loads((work / "worker.json").read_text())
    selfcheck = {"seed_only_changes_draw": seed_only_draws(args.seed)}
    if args.trace:
        selfcheck["counts_repeat"] = res["counts_repeat"]
    correct = res["failed"] == 0 and all(selfcheck.values())

    if args.trace:
        metrics = {k: {"value": v, "unit": LAYER_UNITS.get(k, "s")}
                   for k, v in res["layer"].items()}
    else:
        values = {"setup_s": statistics.median(res["setup_s"]), "wall_s": res["wall_s"],
                  "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    report = {"workload": args.workload, "trace": args.trace, "env": env,
              "selfcheck": selfcheck, **res, "metrics": metrics}
    (work / "result.json").write_text(json.dumps(report, indent=1))

    print("env " + json.dumps(env))
    traced = f" + {len(res['traced_job_s'])} traced" if args.trace else ""
    print(f"workload {args.workload}: {len(jobs(args.workload, draws))} jobs x "
          f"{len(res['job_s'])} passes{traced}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_frac {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']}/{res['attempted']})")
    for key, ok in selfcheck.items():
        print(f"selfcheck {key} {'ok' if ok else 'FAILED'}")
    for problem in res["problems"]:
        print(f"problem {problem}")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
