"""One repetition of a workload in a fresh Python process.

    python3 child.py WORKLOAD SEED WORKDIR STARTED MODE

MODE is ``setup`` (import gcforge and write the inputs, then stop),
``plain`` (run every stage) or ``traced`` (run every stage with the
tracer installed). STARTED is the parent's ``time.time()`` just before it
started this process, so ``setup_s`` counts interpreter start-up. The
result goes to WORKDIR/result.json; the process exits 0 whenever it could
write that file, and the parent judges the stages from it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def main() -> None:
    workload, seed, workdir, started, mode = sys.argv[1:6]
    workdir = Path(workdir)

    import numpy
    from gcforge import cli

    import workloads

    workloads.write_inputs(workload, workdir)
    result = {
        "setup_s": time.time() - float(started),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if mode != "setup":
        os.chdir(workdir)
        tracer = None
        if mode == "traced":
            import spans

            tracer = spans.Tracer()
            tracer.install()
        runs = []
        for stage in workloads.stages(workload, int(seed)):
            out, err = io.StringIO(), io.StringIO()
            span = len(tracer.spans) if tracer else None
            start, cpu = time.perf_counter(), time.process_time()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    if tracer:
                        rc = tracer.call(f"cli.{stage.kind}", cli.main, list(stage.argv))
                    else:
                        rc = cli.main(list(stage.argv))
            except Exception:
                rc = None
                err.write(traceback.format_exc())
            seconds, cpu = time.perf_counter() - start, time.process_time() - cpu
            runs.append({"kind": stage.kind, "rc": rc, "seconds": seconds, "cpu_s": cpu,
                         "span": span,
                         "stdout": out.getvalue()[-2000:], "stderr": err.getvalue()[-2000:]})
        result["stages"] = runs
        if tracer:
            result["spans"] = tracer.spans
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    (workdir / "result.json").write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
