#!/usr/bin/env python3
"""Benchmark of the onfdr package: one workload per run.

    python3 bench/run.py --workload mc-grid --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Human-readable lines go to stdout first; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  A run record and, for a traced run, its spans are written
to ``.bench_out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("mc-grid", "stream-run", "exact-design")
SETUP_STARTS = 7
PROBE_TIMEOUT_S = 60

# the workload's own names for what primary_/secondary_per_ref_s measure
PRIMARY = {"mc-grid": "mc_reps_per_s", "stream-run": "stream_rows_per_s",
           "exact-design": "exact_tests_per_s"}
SECONDARY = {"mc-grid": "short_reps_per_s", "stream-run": "observe_per_s",
             "exact-design": "kidney_evals_per_s"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    return args


def setup_seconds(workload: str) -> list[float]:
    """Set-up time of ``SETUP_STARTS`` fresh interpreters, one at a time."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_STARTS):
        done = subprocess.run([sys.executable, probe, SRC, workload],
                              capture_output=True, text=True, check=True,
                              timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without leaving it."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except (FileNotFoundError, NotADirectoryError):
        pass
    return "unknown (not a git checkout)"


def machine(seed: int) -> dict:
    import numpy
    import scipy
    from onfdr.scenarios import worker_count
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "start_method": multiprocessing.get_start_method(),
        "workers": worker_count(),
        "seed": seed,
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }


def run_workload(name, seed, seconds, tracer, ledger, tmpdir, rounds=None):
    import workloads
    if name == "mc-grid":
        return workloads.run_mc_grid(seed, seconds, tracer, ledger, tmpdir,
                                     rounds)
    if name == "stream-run":
        return workloads.run_stream_run(seed, seconds, tracer, ledger, tmpdir,
                                        rounds)
    return workloads.run_exact_design(seed, seconds, tracer, ledger, rounds)


def untraced(args, tmpdir):
    from spans import NullTracer
    from stats import fail_frac, median
    from workloads import Ledger

    ledger = Ledger()
    out = run_workload(args.workload, args.seed, args.seconds, NullTracer(),
                       ledger, tmpdir)
    rss = out["peak_rss_mb"]
    setup = setup_seconds(args.workload)
    primary, secondary = out["primary"], out["secondary"]
    metrics = {
        "setup_s": {"value": median(setup), "unit": "s"},
        "primary_per_ref_s": {"value": primary["per_ref_s"], "unit": "1/s"},
        "secondary_per_ref_s": {"value": secondary["per_ref_s"],
                                "unit": "1/s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    print(f"workload {args.workload}: {out['rounds']} round(s), "
          f"seed {args.seed}")
    print(f"  setup_s            {median(setup):.4f} s "
          f"(median of {len(setup)} fresh starts)")
    for label, name, tally in (("primary", PRIMARY, primary),
                               ("secondary", SECONDARY, secondary)):
        print(f"  {name[args.workload]:<18} {tally['per_s']:.2f} 1/s as "
              f"measured, {tally['per_ref_s']:.2f} 1/s at reference speed "
              f"({label}_per_ref_s)")
    if args.workload == "stream-run":
        print(f"  observe_p50_us     {out['observe_p50_us']:.2f} us")
        print(f"  observe_p999_us    {out['observe_p999_us']:.2f} us "
              f"({out['observe_samples']} samples, "
              f"{out['observe_beyond_p999']} beyond p99.9)")
    print(f"  peak_rss_mb        {rss:.1f} MB")
    print(f"  fail_frac          {fail_frac(ledger.failed, ledger.attempted)!r}"
          f" ({ledger.failed} of {ledger.attempted})")
    detail = {k: v for k, v in out.items() if k != "estimates"}
    return ledger, metrics, {"setup_s": setup, "workload": detail}


def traced(args, tmpdir):
    import layers
    from spans import NullTracer, Tracer
    from stats import fail_frac
    from workloads import Ledger

    tracer = Tracer()
    ledger = Ledger()
    # pool measurements first: this process must not have built a table
    # before the workers fork
    pool = layers.run_pool(args.seed, tracer)
    plain = run_workload(args.workload, args.seed, args.seconds, NullTracer(),
                         ledger, tmpdir, rounds=1)
    with tracer.span("bench.workload"):
        traced_out = run_workload(args.workload, args.seed, args.seconds,
                                  tracer, ledger, tmpdir, rounds=1)
    values = layers.run_layers(args.seed, tracer, ledger, tmpdir, pool)
    before = plain["primary"]["per_ref_s"]
    after = traced_out["primary"]["per_ref_s"]
    values["trace.overhead_frac"] = before / after - 1.0
    stem = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}")
    layer_self = tracer.write(stem)

    units = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        raise RuntimeError(f"per-layer metrics differ from BENCHMARK.json: "
                           f"missing {missing}, unlisted {extra}")
    metrics = {name: {"value": float(values[name]), "unit": units[name]}
               for name in units}
    print(f"workload {args.workload} (traced): {len(tracer)} spans "
          f"written to {stem}.npz")
    print(f"  {PRIMARY[args.workload]} at reference speed: untraced "
          f"{before:.2f}, traced {after:.2f} -> overhead "
          f"{values['trace.overhead_frac']:+.4f}")
    for layer, secs in sorted(layer_self.items()):
        print(f"  self time {layer:<11} {secs:9.3f} s")
    print(f"  fail_frac {fail_frac(ledger.failed, ledger.attempted)!r} "
          f"({ledger.failed} of {ledger.attempted})")
    return ledger, metrics, {"layer_self_s": layer_self}


def reap_children() -> None:
    """Stop and wait for every process of this run still alive (none is,
    unless a workload failed part-way)."""
    for proc in multiprocessing.active_children():
        proc.kill()
        proc.join()


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "onfdr", "__init__.py")):
        print("bench: src/onfdr not found; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import onfdr
    if not os.path.abspath(onfdr.__file__).startswith(SRC + os.sep):
        print(f"bench: imported onfdr from {onfdr.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    try:
        if args.trace:
            ledger, metrics, detail = traced(args, tmpdir)
        else:
            ledger, metrics, detail = untraced(args, tmpdir)
    finally:
        reap_children()
        shutil.rmtree(tmpdir, ignore_errors=True)

    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    record = os.path.join(
        OUT, f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as fh:
        json.dump({"machine": machine(args.seed), "argv": sys.argv,
                   "result": result, "failures": ledger.notes[:100],
                   "detail": detail}, fh, indent=1, default=str)
    for note in ledger.notes[:20]:
        print(f"  FAILED CHECK: {note}")
    print(f"run record: {os.path.relpath(record, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
