"""End-to-end benchmark of the Chiron reproduction: plan, serve, fleet.

Run every workload (each in its own fresh interpreter, one after another)::

    python3 benchmarks/e2e/run.py --seed 0

or one workload, as the command in ``BENCHMARK.json`` runs it::

    python3 benchmarks/e2e/run.py --workload fleet --seed 3 --trace 0

``--trace 1`` reports the per-layer metrics instead of the end-to-end ones
and writes ``trace.json`` (Chrome trace events) and ``layers.json`` next to
the result.  Every run writes its result JSON under ``--out`` (default
``.e2e_out/`` at the repository root), the input of ``compare.py``.

The program's output is checked (see ``worker.py``): the run exits non-zero
when an output is invalid, not deterministic, differs from its reference or
differs between the traced and the untraced run.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (each metric's value and unit).
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: set-ups measured per run: the measuring worker plus this many more
SETUP_PROBES = 2
#: a worker that runs longer than this is killed (the run must end in 180 s)
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def worker(*args: str) -> dict:
    """Run ``worker.py`` in a fresh interpreter; return its JSON line."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out: {' '.join(args)}") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def next_tag(out: Path, stem: str) -> str:
    k = 0
    while (out / f"{stem}-{k}.json").exists():
        k += 1
    return f"{stem}-{k}"


def run_workload(spec: dict, name: str, seed: int, seconds: float,
                 trace: bool, quick: bool, out: Path) -> dict:
    """Measure one workload; return its result line plus details."""
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    if quick:
        args.append("--quick")
    tag = next_tag(out, f"{name}-s{seed}{'-trace' if trace else ''}")
    main_args = list(args)
    if trace:
        main_args += ["--trace-dir", str(out / tag)]
    setups = [] if trace else [worker(*args, "--setup-only")["setup_s"]
                               for _ in range(SETUP_PROBES)]
    res = worker(*main_args)
    values = dict(res["metrics"])
    if not trace:
        values["setup_s"] = statistics.median(setups + [res["setup_s"]])
        values["peak_rss_mb"] = res["peak_rss_mb"]
    problems = list(res["problems"])
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        value = values.get(m["name"])
        if value is None or not math.isfinite(value):
            problems.append(f"metric {m['name']} is {value!r}")
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    result = {
        "correct": not problems,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
        "workload": name, "seed": seed, "trace": int(trace),
        "quick": quick, "ops": res["ops"], "digest": res["digest"],
        "failures": res["failures"],
        "problems": problems, "extra": res["extra"],
    }
    out.mkdir(parents=True, exist_ok=True)
    with open(out / f"{tag}.json", "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return result


def print_table(r: dict) -> None:
    print(f"== {r['workload']}  seed {r['seed']}  ops timed {r['ops']}  "
          f"attempted {r['attempted']}  failed {r['failed']}  "
          f"sim digest {r['digest']}")
    rows = [(k, m["value"], m["unit"]) for k, m in r["metrics"].items()]
    rows.append(("failed_fraction", r["failed"] / r["attempted"], "ratio"))
    rows += [(k, v, "") for k, v in r["extra"].items()]
    for key, value, unit in rows:
        print(f"   {key:<34} {value:>14.6g} {unit}")
    for kind, message in r["failures"].items():
        print(f"   first {kind}: {message}")
    for problem in r["problems"]:
        print(f"   CHECK FAILED: {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="one workload (default: all)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="measured seconds per workload "
                         "(default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=ROOT / ".e2e_out")
    ap.add_argument("--quick", action="store_true",
                    help="tiny input sets (tests)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        print(f"run.py: unknown workload {args.workload!r}; known: {names}",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    try:
        results = [run_workload(spec, name, args.seed, seconds,
                                bool(args.trace), args.quick, args.out)
                   for name in ([args.workload] if args.workload else names)]
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    for r in results:
        print_table(r)
    if len(results) == 1:
        final = {k: results[0][k]
                 for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{r['workload']}/{k}": m for r in results
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
