#!/usr/bin/env python3
"""zdlab benchmark: run one workload, print one JSON result as the last line.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-mesh80 --seed 1 --seconds 20 --trace 0

Workloads are defined in ``workloads.py``: ``sweep-mesh80``,
``placement-oracle`` and ``verify-ladder``. zdlab is imported from ``src/``
next to this directory; without it the run exits with code 2.

``--trace 0`` measures with no wrappers installed and reports the
end-to-end metrics of ``BENCHMARK.json``:

* ``primary_per_s`` and ``secondary_per_s``: the median over rounds of the
  workload's two rates (placements_per_s and sweeps_per_s on sweep-mesh80,
  placements_per_s and subsets_per_s on placement-oracle,
  verifies_small_per_s and verifies_n10_per_s on verify-ladder);
* ``setup_s``: median over several fresh interpreters of the time from
  interpreter start to the first timed operation (imports, configs,
  pre-drawn outsider profiles, warmed payoff tables);
* ``peak_rss_mb``: the measuring process's peak resident set.

``--trace 1`` runs a fixed number of rounds, each once untraced and once
with spans around zdlab's public functions (``spans.py``), and reports the
per-layer metrics of ``BENCHMARK.json`` plus the tracing overhead: traced
over untraced CPU time, minus one. Spans use the wall clock, which is
cheaper to read.

Every run checks the program's outputs (``workloads.py``); ``failed``
counts operations that raised or failed a check. Lines before the result
carry provenance and the workload's metrics under their own names, with
units and sample counts.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("graphs", "field", "optimize", "game", "markov", "alliance", "cli")
# One BLAS thread: the workloads' matrices are at most 1024 x 1024, and a
# single thread keeps timings steady on a shared machine.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: time one set-up in a fresh interpreter
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_zdlab():
    """zdlab's modules from ``src/`` of this checkout, by short name."""
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("zdlab")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"zdlab imported from {package.__file__}, not {SRC}")
    return types.SimpleNamespace(
        zdlab=package,
        **{m: importlib.import_module(f"zdlab.{m}") for m in MODULES})


def provenance(z, args):
    import numpy as np
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"),
                               "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "zdlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_commit": commit, "src_sha256": digest.hexdigest(),
        "zdlab": z.zdlab.__version__, "numpy": np.__version__,
        "python": platform.python_version(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)),
    }


def setup_seconds(args):
    """Median set-up time over fresh interpreters."""
    samples = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--setup-probe"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples), samples


def run_rounds(wl, seconds):
    """Run rounds until ``seconds`` of wall time have passed."""
    rounds, start, i = [], time.perf_counter(), 0
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(wl.run_round(i))
        i += 1
    return rounds


def measured(wl, args, bench):
    setup_s, probes = setup_seconds(args)
    rounds = run_rounds(wl, args.seconds)
    round_rates = {leg: [n / s for n, s in (r[leg] for r in rounds) if s > 0]
                   for leg, _ in wl.rates}
    (primary_leg, primary_name), (secondary_leg, secondary_name) = wl.rates
    primary = statistics.median(round_rates[primary_leg] or [0.0])
    secondary = statistics.median(round_rates[secondary_leg] or [0.0])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    named = {
        "setup_s": (setup_s, "s", len(probes)),
        primary_name: (primary, "1/s", len(round_rates[primary_leg])),
        secondary_name: (secondary, "1/s", len(round_rates[secondary_leg])),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }
    named.update(wl.check())
    named["fail_ratio"] = (wl.failed / max(wl.attempted, 1), "ratio",
                           wl.attempted)
    values = {"setup_s": setup_s, "primary_per_s": primary,
              "secondary_per_s": secondary, "peak_rss_mb": peak_rss_mb}
    print("report " + json.dumps(
        {"workload": wl.name, "rounds": len(rounds), "setup_probes_s": probes,
         "round_rates": round_rates,
         "metrics": {k: {"value": v, "unit": u, "samples": n}
                     for k, (v, u, n) in named.items()}}))
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in bench["end_to_end"]}


def traced(wl, z, args, bench):
    """Run each round untraced, then again with spans; rounds alternate so
    that both sides see the same machine state."""
    import spans
    from workloads import CLOCK
    rec = spans.Recorder()
    modules = {m: getattr(z, m) for m in MODULES}
    modules["zdlab"] = z.zdlab
    count = wl.trace_rounds(args.seconds)
    untraced_s = traced_s = 0.0
    for i in range(count):
        start = CLOCK()
        wl.run_round(i)
        untraced_s += CLOCK() - start
        patched, originals = spans.install(rec, modules)
        start = CLOCK()
        try:
            wl.run_round(i, rec.set_phase)
        finally:
            traced_s += CLOCK() - start
            spans.uninstall(patched)
    wl.check()
    totals = rec.totals()
    metrics = {}
    for m in bench["per_layer"]:
        if m["name"] == "trace.overhead_ratio":
            value = traced_s / untraced_s - 1.0
        else:
            value = spans.layer_metric(rec, originals, totals, m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    absent = [k for k, v in metrics.items() if v["value"] is None]
    print("layers " + json.dumps(
        {"workload": wl.name, "rounds": count, "spans": len(rec.start),
         "untraced_s": untraced_s, "traced_s": traced_s, "absent": absent,
         "distinct_per_ga_run": rec.ga_runs,
         "totals": {f"{n}{'.' + ph if ph else ''}": t
                    for (n, ph), t in sorted(totals.items())}}))
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    try:
        z = load_zdlab()
    except ImportError as exc:
        print(f"perfbench: cannot import zdlab from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    make = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        if args.setup_probe:
            make(z, args.seed, tmp)
            print(workloads.CLOCK())
            return 0
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        print("provenance " + json.dumps(provenance(z, args)))
        wl = make(z, args.seed, tmp)
        if args.trace:
            metrics = traced(wl, z, args, bench)
        else:
            metrics = measured(wl, args, bench)
    print(json.dumps({"correct": wl.failed == 0, "attempted": wl.attempted,
                      "failed": wl.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
