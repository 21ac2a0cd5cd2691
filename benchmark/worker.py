"""Run one workload's passes in this process and write the results as JSON.

Started by run.py, one process per workload run, so that the peak
resident memory it reports belongs to that workload alone. Usage:

    python3 benchmark/worker.py WORK_DIR WORKLOAD SEED SECONDS TRACE
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import kinser.cli  # noqa: E402

from jobs import Job, draw, jobs  # noqa: E402
from literal import LiteralCheckError, check_certificate  # noqa: E402
from tracing import COUNT_METRICS, Tracer, layer_metrics  # noqa: E402

EXPECTED = BENCH_DIR / "expected"
SETUP_SPAWNS = 9     # timed interpreter start-ups per run; their median is setup_s
SETUP_SNIPPET = ("import time, kinser.cli; "
                 "print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))")


def setup_sample() -> float:
    """Seconds from spawning a fresh interpreter to ``import kinser.cli`` done."""
    t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=BENCH_DIR.parent,
                          env=dict(os.environ, PYTHONPATH=str(BENCH_DIR.parent / "src")),
                          capture_output=True, text=True, timeout=60, check=True)
    return (int(proc.stdout) - t0) / 1e9


def digest(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def matches(golden, data: bytes) -> bool:
    """Golden text is stored as-is when small and as a digest when large."""
    if isinstance(golden, str):
        return golden.encode() == data
    return golden == digest(data)


def header_value(text: str, key: str) -> int | None:
    for line in text.splitlines()[:6]:
        if line.startswith(key + " "):
            return int(line.split()[1])
    return None


class Runner:
    def __init__(self, work: Path, workload: str, seed: int):
        self.in_dir, self.out_dir = work / "in", work / "out"
        self.jobs = jobs(workload, draw(seed))
        self.answers = json.loads((EXPECTED / "answers.json").read_text())
        self.golden = json.loads((EXPECTED / "golden.json").read_text())
        self.input_ok = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_pass(self, tracer: Tracer | None = None) -> tuple[float, list[float]]:
        """One timed pass over the jobs: (pass time, time of each job).

        Outputs are checked after the clock stops.
        """
        for f in self.out_dir.iterdir():
            f.unlink()
        outcomes = []
        marks = [time.perf_counter()]
        for job in self.jobs:
            argv = [a.format(**{"in": self.in_dir, "out": self.out_dir}) for a in job.argv]
            out, err = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.job = job.id
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = kinser.cli.main(argv)
                raised = None
            except Exception as exc:  # a job that raises is a failed job; the run goes on
                code, raised = None, repr(exc)
            marks.append(time.perf_counter())
            outcomes.append((job, code, out.getvalue(), err.getvalue(), raised))
        for job, code, stdout, stderr, raised in outcomes:
            self.attempted += 1
            problems = self.verify(job, code, stdout, stderr, raised)
            if problems:
                self.failed += 1
                self.problems.extend(f"{job.id}: {p}" for p in problems)
        return marks[-1] - marks[0], [b - a for a, b in zip(marks, marks[1:])]

    def verify(self, job: Job, code, stdout: str, stderr: str, raised) -> list[str]:
        if raised:
            return [f"raised {raised}"]
        answer = self.answers[job.answer]
        golden = self.golden["jobs"].get(job.id)
        problems = []
        if code != answer["exit"]:
            problems.append(f"exit {code}, expected {answer['exit']}: {stderr.strip()[:200]}")
        if "verdict" in answer:
            head = stdout.split()[:2]
            if head != [answer["verdict"], f"n={answer['n']}"]:
                problems.append(f"verdict {' '.join(head)!r}, expected "
                                f"{answer['verdict']} n={answer['n']}")
        if job.input is not None and not self.input_matches(job.input):
            problems.append(f"input {job.input} differs from its golden digest")
        if golden is None:
            return problems + ["no golden output recorded"]
        if not matches(golden["stdout"], stdout.encode()):
            problems.append("stdout differs from golden")
        for name in job.outputs:
            path = self.out_dir / name
            if not path.exists():
                problems.append(f"{name} not written")
                continue
            data = path.read_bytes()
            if not matches(golden["files"].get(name), data):
                problems.append(f"{name} differs from golden")
            if name.endswith(".cert"):
                problems.extend(self.check_cert(job, data.decode(), stdout))
            elif "elements" in answer:
                text = data[:4096].decode()
                got = (header_value(text, "elements"), header_value(text, "rank"))
                if got != (answer["elements"], answer["rank"]):
                    problems.append(f"{name} has (elements, rank) {got}, expected "
                                    f"({answer['elements']}, {answer['rank']})")
        return problems

    def check_cert(self, job: Job, cert: str, stdout: str) -> list[str]:
        try:
            lhs, rhs = check_certificate(cert, (self.in_dir / job.input).read_text())
        except (LiteralCheckError, KeyError, ValueError) as exc:
            return [f"certificate fails the literal check: {exc}"]
        if f"lhs={lhs} rhs={rhs}" not in stdout:
            return [f"stdout does not state lhs={lhs} rhs={rhs}"]
        return []

    def input_matches(self, name: str) -> bool:
        if name not in self.input_ok:
            want = self.golden["inputs"].get(name)
            self.input_ok[name] = want == digest((self.in_dir / name).read_bytes())
        return self.input_ok[name]


def best_pass(job_times: list[list[float]]) -> float:
    """Each job's fastest time over the passes, summed over the jobs.

    The shared host has slow periods of several seconds, which only ever
    add time; a job's fastest run is its time outside them.
    """
    return sum(min(times) for times in zip(*job_times))


def main(work: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    runner = Runner(work, workload, seed)
    plain: list[list[float]] = []   # per pass, the time of each job
    traced: list[list[float]] = []
    per_pass: list[dict] = []
    spans: list[dict] = []
    setup: list[float] = []
    if not trace:
        setup_sample()  # warm-up, not counted
    start = time.perf_counter()
    # Traced runs alternate traced and untraced passes so that the tracing
    # overhead is measured under the same conditions. Untraced runs spread
    # their set-up samples between the passes, over the whole run, so that
    # a slow period of the host cannot hold all of them.
    while True:
        tracer = Tracer() if trace and len(traced) <= len(plain) else None
        if tracer is None:
            last, per_job = runner.run_pass()
            plain.append(per_job)
        else:
            with tracer.installed():
                last, per_job = runner.run_pass(tracer)
            traced.append(per_job)
            per_pass.append(layer_metrics(tracer.spans))
            spans.extend(dict(s, traced_pass=len(traced)) for s in tracer.spans)
        elapsed = time.perf_counter() - start
        if not trace:
            due = min(SETUP_SPAWNS, math.ceil(SETUP_SPAWNS * elapsed / seconds))
            while len(setup) < due:
                setup.append(setup_sample())
            elapsed = time.perf_counter() - start
        done = len(plain) >= 2 and len(traced) >= 2 if trace else len(plain) >= 1
        if done and elapsed + last > seconds:
            break
    while not trace and len(setup) < SETUP_SPAWNS:
        setup.append(setup_sample())
    result = {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems[:20],
        "job_ids": [job.id for job in runner.jobs],
        "job_s": plain,
        "setup_s": setup,
        "wall_s": best_pass(plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if trace:
        layer = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
        for k in COUNT_METRICS:
            layer[k] = per_pass[0][k]
        layer["trace.overhead_s"] = best_pass(traced) - best_pass(plain)
        result["layer"] = layer
        result["traced_job_s"] = traced
        result["counts_repeat"] = all(
            p[k] == per_pass[0][k] for p in per_pass for k in COUNT_METRICS)
        with open(work / "spans.jsonl", "w", encoding="utf-8") as fh:
            for s in spans:
                fh.write(json.dumps(s) + "\n")
    return result


if __name__ == "__main__":
    work_dir, wl, sd, secs, tr = sys.argv[1:6]
    res = main(Path(work_dir), wl, int(sd), float(secs), tr == "1")
    (Path(work_dir) / "worker.json").write_text(json.dumps(res, indent=1))
