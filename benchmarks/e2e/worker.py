"""Run one workload in this process and print its result as one JSON line.

``run.py`` starts this script in a fresh interpreter per workload, so
``setup_s`` covers the imports, input generation and workload set-up, and
``peak_rss_mb`` belongs to this workload alone.  One thread issues
operations back to back (a closed loop with one client) until ``--seconds``
have passed; the pass of inputs wraps around if it ends first and is
completed after the window if it does not, so the simulated metrics always
cover exactly one pass and repeat bit for bit for a given seed.

Failure accounting: an operation raising :class:`repro.errors.ReproError`
counts as failed (its first message per exception type goes to stderr);
any other exception aborts the run as a bug.

With ``--trace 1`` the window is split: the first half runs untraced, then
the same operations are replayed under :class:`tracing.LayerTrace`; the
replay's simulated outputs must equal the untraced ones, and the wall-time
ratio of the two halves is the tracing overhead.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from workloads import Violation, Workload, digest  # noqa: E402

#: inputs per run checked against a workload's reference (plan-refresh: a
#: cold-cache deploy with the same profiler state), evenly spaced
REFERENCE_SAMPLE = 10


class Run:
    """Outputs, failures and correctness problems of one run."""

    def __init__(self, wl: Workload) -> None:
        self.wl = wl
        #: first-visit simulated output per input of the pass
        self.outputs: List[Optional[tuple]] = [None] * len(wl)
        self.attempted = 0
        self.failed = 0
        #: exception type -> first message
        self.failures: Dict[str, str] = {}
        self.problems: List[str] = []

    def call(self, i: int, trace=None, op_id: int = 0) -> tuple[float, tuple]:
        """Run input ``i`` (as traced operation ``op_id`` when ``trace`` is
        given); return (host ms, simulated output)."""
        self.attempted += 1
        error = None
        with nullcontext() if trace is None else trace.op(op_id,
                                                          self.wl.span):
            t0 = time.perf_counter()
            try:
                result = self.wl.op(i)
            except ReproError as exc:
                error = exc
            ms = (time.perf_counter() - t0) * 1000.0
        if error is not None:
            self.failed += 1
            kind = type(error).__name__
            if kind not in self.failures:
                self.failures[kind] = str(error)
                print(f"{self.wl.name}: op {i} failed: {kind}: {error}",
                      file=sys.stderr)
            return ms, ("error", kind, str(error))
        try:
            out = self.wl.output(i, result)
        except Violation as exc:
            self.problems.append(str(exc))
            out = ("violation", str(exc))
        return ms, out

    def record(self, i: int, out: tuple) -> None:
        first = self.outputs[i]
        if first is None:
            self.outputs[i] = out
        elif first != out:
            self.problems.append(
                f"input {i} is not deterministic: {first} then {out}")

    def loop(self, seconds: float, ops: Optional[int] = None,
             trace=None) -> List[float]:
        """Run the pass in order, wrapping around, for at least one
        operation and ``seconds`` (or for exactly ``ops`` operations);
        return each operation's host ms."""
        n = len(self.wl)
        times: List[float] = []
        deadline = time.perf_counter() + seconds
        while True:
            i = len(times)
            if i % n == 0 and i > 0:
                self.wl.reset()
            ms, out = self.call(i % n, trace, op_id=i)
            times.append(ms)
            self.record(i % n, out)
            if (len(times) >= ops if ops is not None
                    else time.perf_counter() >= deadline):
                return times

    def finish_pass(self, done: int) -> None:
        """Run the inputs the window did not reach (untimed)."""
        for i in range(done, len(self.wl)):
            self.record(i, self.call(i)[1])


def end_to_end(run: Run, times: List[float]) -> dict:
    metrics = {
        "op_ms_p50": float(np.percentile(times, 50)),
        "op_ms_p90": float(np.percentile(times, 90)),
        "ops_per_s": len(times) / (sum(times) / 1000.0),
    }
    metrics.update(run.wl.sim_metrics(run.outputs))
    return metrics


def measure(wl: Workload, seconds: float, *, trace_dir: Optional[str] = None
            ) -> dict:
    """Run ``wl`` for ``seconds``; return outputs, checks and metrics."""
    run = Run(wl)
    if trace_dir is None:
        times = run.loop(seconds)
        run.finish_pass(len(times))
        metrics = end_to_end(run, times)
        extra = wl.extra(run.outputs)
        reference = getattr(wl, "reference", None)
        if reference is not None:
            for i in range(0, len(wl), max(1, len(wl) // REFERENCE_SAMPLE)):
                if reference(i) != run.outputs[i]:
                    run.problems.append(
                        f"input {i}: result differs from its reference")
    else:
        from tracing import LayerTrace

        untraced = run.loop(seconds / 2.0)
        wl.reset()
        trace = LayerTrace()
        # the replay's outputs are checked against the untraced ones
        times = run.loop(0.0, ops=len(untraced), trace=trace)
        metrics = trace.metrics(times, untraced)
        extra = {}
        trace.write(trace_dir, {"workload": wl.name, "ops": len(times),
                                "metrics": metrics})
    return {
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "problems": run.problems,
        "ops": len(times),
        "digest": digest(run.outputs),
        "metrics": metrics,
        "extra": extra,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace-dir", default=None)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = workloads.build(args.workload, args.seed, args.quick)
    setup_s = time.perf_counter() - T0
    result = {"setup_s": setup_s}
    if not args.setup_only:
        result.update(measure(wl, args.seconds, trace_dir=args.trace_dir))
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
