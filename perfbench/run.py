"""Benchmark entry point: one workload, one process tree, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload figure1 --seed 1 --seconds 10 --trace 0

Workloads: ``figure1``, ``stencil-10k``, ``cluster16`` (simulation, run
in a child process, ``simwork.py``) and ``service`` (``repro serve`` with
one worker, driven from this process, ``svc.py``).  With ``--trace 0`` the
last line of standard output carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics; the line before it is a detail
record with raw walls and reference figures, which nothing gates.  See
``perfbench/README.md``.

This process never imports ``repro`` before the set-up it times has
ended, and it exits non-zero without a result when the program's sources
are missing or a workload cannot run.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Wall limit for one run, under the 180 s the benchmark promises.
RUN_LIMIT_S = 170.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # Temporary files (the service's forkserver socket) stay in the
    # checkout, unless its path is too long for a Unix socket address
    # (108 bytes, of which multiprocessing appends about 31).
    tmp = ROOT / ".perfbench_out" / "tmp"
    if len(str(tmp)) <= 70:
        tmp.mkdir(parents=True, exist_ok=True)
        env["TMPDIR"] = str(tmp)
    return env


def build() -> None:
    """Byte-compile the sources and build the compiled solver (untimed).

    This is the package's build step; without it the first run in a fresh
    checkout would time byte-compilation and a C compile as set-up.  The
    solver module is loaded from its file, so ``repro`` is not imported.
    """
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "repro")],
        check=True, stdout=subprocess.DEVNULL, timeout=300,
    )
    path = SRC / "repro" / "machine" / "csolve.py"
    spec = importlib.util.spec_from_file_location("_perfbench_csolve", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.load()  # None means no compiler: the run records "python"


def run_sim(args) -> dict:
    """Spawn ``simwork.py``, time its set-up, collect its findings."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "simwork.py"), args.workload,
         str(args.seed), str(args.seconds), str(args.trace)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        env=child_env(), cwd=str(ROOT),
    )
    try:
        ready = proc.stdout.readline().split()
        setup_wall = time.perf_counter() - t0
        if not ready or ready[0] != "READY":
            raise RuntimeError(f"simulation child did not start: {ready!r}")
        out, _ = proc.communicate("GO\n", timeout=RUN_LIMIT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"simulation child exited {proc.returncode}")
    res = json.loads(out.strip().splitlines()[-1])
    probe = calib.Probe()
    probe.n, probe.spent, probe.timed = (
        int(ready[2]), float(ready[3]), float(ready[4]))
    res["setup_raw_s"], res["setup_s"] = probe.calibrate(
        setup_wall, (0, 0.0, 0.0))
    res["peak_rss_mb"] = res.pop("rss_mb")
    return res


def main(argv=None) -> int:
    # Workloads and metrics, with their units, as BENCHMARK.json declares
    # them.  A workload that does not reach a layer reports 0 for it.
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e_units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    build()
    args.src = SRC
    if args.workload == "service":
        import svc

        res = svc.run(args, ROOT, child_env())
    else:
        res = run_sim(args)

    layers = dict.fromkeys(layer_units, 0.0)
    layers.update(res.pop("layers", {}))
    layers["interconnect.c_solver"] = 1.0 if res["solver"] == "c" else 0.0
    layers["calib.kernel_ms"] = res["kernel_ms"]
    if args.trace:
        metrics = {k: {"value": layers[k], "unit": u}
                   for k, u in layer_units.items()}
    else:
        metrics = {k: {"value": res[k], "unit": u}
                   for k, u in e2e_units.items()}
    for problem in res.get("problems", []):
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"detail": {k: v for k, v in res.items()
                                 if k not in ("problems",)}}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
