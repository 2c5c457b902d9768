"""Cold-process benchmark of the gcforge CLI pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports gcforge from ``src/``. One
closed-loop client runs the workload's CLI stages back to back, each
repetition in a fresh Python process (so nothing replays from a warm
in-process memo), and never two processes at once.

``--trace 0`` repeats the untraced pipeline until ``--seconds`` of it have
been measured and reports the end-to-end metrics of BENCHMARK.json as
medians over the repetitions. Set-up is also timed in separate processes
that only import gcforge and write the inputs.

``--trace 1`` runs the pipeline once untraced and twice traced, reports the
per-layer metrics (median of the two traced runs) and the tracing overhead,
and fails the run if a count differs between the two traced runs.

Every stage's output is checked (exit code, SHA-256 of placements and
scheme files, the verify-grid verdict, final accuracies); a failed check
counts as a failed stage. The last line of stdout is the JSON result;
the line before it holds the details, environment included. Work files
go to ``.perfbench_work/<workload>/`` and are replaced by the next run.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
SETUP_BATCH = 4  # set-up-only processes before each repetition and after the last
# whole-run wall-clock budget; a child still running past it is killed and
# its stages count as failed
BUDGET_S = 170.0
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class Run:
    def __init__(self, args, root: Path):
        self.workload = args.workload
        self.seed = args.seed
        self.stages = workloads.stages(args.workload, args.seed)
        self.work = root / ".perfbench_work" / args.workload
        self.deadline = time.monotonic() + BUDGET_S
        self.reference = json.loads((HERE / "reference.json").read_text())[args.workload]
        pythonpath = [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath), **THREAD_PINS)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.observed: dict[str, object] = {}
        self.versions: dict[str, str] = {}
        self.reps: list[dict] = []
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def child(self, mode: str, tag: str) -> dict | None:
        """Run one child process to completion; its result, or None."""
        workdir = self.work / tag
        workdir.mkdir()
        argv = [sys.executable, str(HERE / "child.py"), self.workload, str(self.seed),
                str(workdir), repr(time.time()), mode]
        proc = subprocess.Popen(argv, env=self.env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        err = None
        try:
            _, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if err is None:
            self.failures.append(f"{tag}: killed at the run's time budget")
            return None
        result_file = workdir / "result.json"
        if proc.returncode != 0 or not result_file.exists():
            self.failures.append(f"{tag}: child exited {proc.returncode}: {err.strip()[-500:]}")
            return None
        result = json.loads(result_file.read_text())
        self.versions = {"python": result["python"], "numpy": result["numpy"]}
        return result

    def repetition(self, mode: str, tag: str) -> dict | None:
        """One pipeline repetition; every stage is counted and checked."""
        self.attempted += len(self.stages)
        result = self.child(mode, tag)
        if result is None:
            self.failed += len(self.stages)
            return None
        per_stage: dict[str, float] = {}
        for ran in result["stages"]:
            per_stage[ran["kind"]] = per_stage.get(ran["kind"], 0.0) + ran["seconds"]
        self.reps.append({"tag": tag, "pipeline_s": pipeline(result), "stage_s": per_stage,
                          "cpu_s": sum(ran["cpu_s"] for ran in result["stages"])})
        for stage, ran in zip(self.stages, result["stages"]):
            problem = self.check(stage, ran, self.work / tag)
            if problem is None and mode == "traced":
                missing = spans.missing_layers(result["spans"], ran["span"], stage.kind)
                if missing:
                    problem = f"no calls recorded for {', '.join(missing)}"
            if problem is not None:
                self.failed += 1
                self.failures.append(f"{tag}: {stage.kind} {stage.item}: {problem}")
        return result

    def check(self, stage: workloads.Stage, ran: dict, workdir: Path) -> str | None:
        if ran["rc"] != 0:
            return f"exit code {ran['rc']}: {ran['stderr'].strip()[-300:]}"
        if stage.check is None:
            return None
        kind, name = stage.check
        if kind == "pass":
            return None if ran["stdout"].startswith("PASS") else f"verdict {ran['stdout']!r}"
        path = workdir / name
        if not path.exists():
            return f"{name} was not written"
        expected = self.reference.get(name)
        if kind == "sha256":
            got = hashlib.sha256(path.read_bytes()).hexdigest()
            self.observed[name] = got
            return None if got == expected else f"{name} sha256 {got} != reference {expected}"
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if not rows:
            return f"{name} has no epochs"
        # the train_loss column is not read: it is written as np.float64(...)
        got = [float(rows[-1]["train_accuracy"]), float(rows[-1]["test_accuracy"])]
        self.observed[name] = got
        if expected is None or any(abs(g - e) > workloads.ACCURACY_TOLERANCE
                                   for g, e in zip(got, expected)):
            return f"final accuracies {got} not within {workloads.ACCURACY_TOLERANCE} of {expected}"
        return None

    def time_for(self, seconds: float) -> bool:
        return self.deadline - time.monotonic() > 1.5 * seconds + 5.0


def pipeline(result: dict, kinds=None) -> float:
    return sum(s["seconds"] for s in result["stages"] if kinds is None or s["kind"] in kinds)


def setup_times(run: Run, prefix: str) -> list[float]:
    results = (run.child("setup", f"{prefix}{i}") for i in range(SETUP_BATCH))
    return [r["setup_s"] for r in results if r is not None]


def end_to_end(run: Run, seconds: float) -> dict[str, float]:
    # set-up batches between the repetitions spread the set-up samples over
    # the whole run, as the machine's speed drifts
    setups, reps, measured = [], [], 0.0
    for i in itertools.count():
        setups += setup_times(run, f"setup{i}.")
        start = time.monotonic()
        result = run.repetition("plain", f"rep{i}")
        took = time.monotonic() - start
        measured += took
        if result is not None:
            reps.append(result)
            setups.append(result["setup_s"])
        if measured >= seconds or not run.time_for(took):
            break
    setups += setup_times(run, "setup-last.")
    if not reps:
        return {}
    return {
        "setup_s": statistics.median(setups),
        "pipeline_s": statistics.median(pipeline(r) for r in reps),
        "translate_s": statistics.median(pipeline(r, {"translate"}) for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def per_layer(run: Run, names: list[str]) -> dict[str, float]:
    # the untraced run sits between the traced ones, so drift in machine
    # speed over the run cancels out of the overhead
    traced = [run.repetition("traced", "traced0")]
    plain = run.repetition("plain", "plain")
    traced.append(run.repetition("traced", "traced1"))
    if plain is None or None in traced:
        return {}
    vertices = workloads.vertex_count(run.workload)
    each = [spans.layer_metrics(r["spans"], names, vertices) for r in traced]
    # counts must repeat exactly across the two traced runs
    for name in names:
        exact = name.endswith(".calls") or name == "translations.live_slots_max"
        if exact and each[0][name] != each[1][name]:
            run.attempted += 1
            run.failed += 1
            run.failures.append(f"{name} differs between traced runs: "
                                f"{each[0][name]} != {each[1][name]}")
    metrics = {}
    for name, a in each[0].items():
        b = each[1][name]
        # counts repeat, so they stay integers; times take the median
        metrics[name] = a if a == b else statistics.median((a, b))
    metrics["trace.overhead_s"] = (statistics.median(pipeline(r) for r in traced)
                                   - pipeline(plain))
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "gcforge" / "cli.py").is_file():
        print("perfbench: src/gcforge/cli.py not found; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    run = Run(args, root)
    if args.trace:
        values = per_layer(run, [m["name"] for m in declared])
    else:
        values = end_to_end(run, args.seconds)
    if not values:
        print(json.dumps({"failures": run.failures}), file=sys.stderr)
        print("perfbench: no repetition completed, nothing to report", file=sys.stderr)
        return 1

    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), **run.versions,
        "ops_failed_ratio": run.failed / run.attempted,
        "repetitions": run.reps, "failures": run.failures, "observed": run.observed,
    }
    print(json.dumps(details))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
