"""Per-layer wall-clock tracing for the benchmark's traced run.

:meth:`LayerTrace.op` wraps layer entry points of ``repro`` for the duration
of one benchmark operation and restores every original on exit; nothing
under ``src/`` changes.  Two kinds of wrapper:

* coarse calls become spans on a wall-clock :class:`repro.obs.Tracer`,
  tagged with the benchmark operation's id: the manager's own
  ``manager.profile``/``schedule``/``generate`` spans (the tracer is handed
  to ``ChironManager.deploy``), ``Platform.run``, ``Environment.run``,
  ``compile_fleet``, ``FleetPlacer.anneal``, ``run_fleet`` and
  ``fifo_completion_times``;
* fine-grained calls (``predict_multithread_exec``, ``FluidCPU.run``,
  ``Gil.acquire``/``release``, ``fork_children``) only bump Registry
  counters and summed milliseconds, which keeps memory bounded.

A layer's self time is its span time minus the time its child spans cover
(spans nest by time: the benchmark runs one thread).
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List

from repro.core.manager import ChironManager
from repro.core.predictor import LatencyPredictor
from repro.fleet import runner as fleet_runner
from repro.fleet import spec as fleet_spec
from repro.fleet.placement import FleetPlacer
from repro.obs import Tracer
from repro.obs.export import write_chrome_trace
from repro.platforms import chiron, faastlane, sand
from repro.platforms.base import Platform
from repro.runtime.cpusched import FluidCPU
from repro.runtime.gil import Gil
from repro.simcore import Environment

#: the Chrome-trace track of the benchmark's own spans
ENTITY = "bench"


class LayerTrace:
    """Spans, counters and the per-layer table of one traced run."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.registry = self.tracer.metrics
        #: id of the benchmark operation in flight (tags every span)
        self.op_id = -1
        self._patches = [(owner, attr, owner.__dict__[attr],
                          wrap(owner.__dict__[attr]))
                         for owner, attr, wrap in self._targets()]

    def span(self, name: str):
        return self.tracer.span(name, entity=ENTITY, op_id=self.op_id)

    @contextmanager
    def op(self, op_id: int, name: str) -> Iterator[None]:
        """Trace one benchmark operation: install every wrapper and open
        the operation's span; restore the originals on exit, so nothing
        between operations (a pass reset) is traced."""
        self.op_id = op_id
        try:
            for owner, attr, _orig, wrapped in self._patches:
                setattr(owner, attr, wrapped)
            with self.span(name):
                yield
        finally:
            for owner, attr, orig, _wrapped in self._patches:
                setattr(owner, attr, orig)

    # -- wrappers -----------------------------------------------------------
    def _spanned(self, name: str):
        def wrap(orig):
            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                with self.span(name):
                    return orig(*args, **kwargs)
            return wrapper
        return wrap

    def _counted(self, name: str):
        inc = self.registry.inc
        clock = time.perf_counter

        def wrap(orig):
            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                t0 = clock()
                try:
                    return orig(*args, **kwargs)
                finally:
                    inc(f"{name}.calls")
                    inc(f"{name}.ms", (clock() - t0) * 1000.0)
            return wrapper
        return wrap

    def _deploy(self, orig):
        tracer, inc = self.tracer, self.registry.inc

        @functools.wraps(orig)
        def deploy(manager, workflow, slo_ms, *args, **kwargs):
            if kwargs.get("tracer") is None:
                kwargs["tracer"] = tracer
            # the manager's PredictionCache counts pgp.* in its own registry
            counters = manager.prediction_cache.metrics.counters
            before = counters()
            try:
                return orig(manager, workflow, slo_ms, *args, **kwargs)
            finally:
                for name, value in counters().items():
                    if value != before.get(name, 0.0):
                        inc(name, value - before.get(name, 0.0))
        return deploy

    def _env_run(self, orig):
        spanned = self._spanned("simcore.run")(orig)
        inc = self.registry.inc

        @functools.wraps(orig)
        def run(env, until=None):
            before = env.events_processed
            try:
                return spanned(env, until)
            finally:
                inc("simcore.events", env.events_processed - before)
        return run

    def _fifo(self, orig):
        spanned = self._spanned("cluster.fleetsim.fifo")(orig)
        inc = self.registry.inc

        @functools.wraps(orig)
        def fifo(arrivals, services, servers, out=None):
            inc("cluster.fleetsim.jobs", len(arrivals))
            return spanned(arrivals, services, servers, out)
        return fifo

    def _anneal(self, orig):
        spanned = self._spanned("fleet.anneal")(orig)
        inc = self.registry.inc

        @functools.wraps(orig)
        def anneal(placer, *args, **kwargs):
            plan = spanned(placer, *args, **kwargs)
            inc("fleet.placement.moves.proposed", plan.moves_proposed)
            inc("fleet.placement.moves.accepted", plan.moves_accepted)
            return plan
        return anneal

    def _gil_release(self, orig):
        inc = self.registry.inc

        @functools.wraps(orig)
        def release(gil, thread):
            before = gil.switch_count
            orig(gil, thread)
            if gil.switch_count != before:
                inc("runtime.gil.handoffs", gil.switch_count - before)
        return release

    def _fork(self, orig):
        inc = self.registry.inc

        @functools.wraps(orig)
        def fork_children(env, parent, groups, **kwargs):
            inc("runtime.osproc.forks", len(groups))
            return orig(env, parent, groups, **kwargs)
        return fork_children

    def _targets(self) -> list:
        """(owner, attribute, wrapper factory) of every traced entry point."""
        targets = [
            (ChironManager, "deploy", self._deploy),
            (Platform, "run", self._spanned("platform.run")),
            (Environment, "run", self._env_run),
            (fleet_spec, "compile_fleet", self._spanned("fleet.compile")),
            (FleetPlacer, "anneal", self._anneal),
            (fleet_runner, "run_fleet", self._spanned("fleet.run")),
            # run_fleet looks the recursion up in its own module
            (fleet_runner, "fifo_completion_times", self._fifo),
            (LatencyPredictor, "predict_multithread_exec",
             self._counted("core.predictor")),
            (FluidCPU, "run", self._counted("runtime.cpusched")),
            (Gil, "acquire", self._counted("runtime.gil.acquire")),
            (Gil, "release", self._gil_release),
        ]
        # platforms import fork_children by name
        return targets + [(module, "fork_children", self._fork)
                          for module in (chiron, faastlane, sand)]

    # -- reduction ------------------------------------------------------------
    def layer_table(self) -> Dict[str, dict]:
        """Per span name: count, total and self milliseconds."""
        spans = sorted(self.tracer, key=lambda s: (s.start_ms, -s.end_ms))
        table: Dict[str, dict] = {}
        child_ms: List[float] = [0.0] * len(spans)
        stack: List[int] = []
        for i, span in enumerate(spans):
            while stack and spans[stack[-1]].end_ms <= span.start_ms:
                stack.pop()
            if stack:
                child_ms[stack[-1]] += span.duration_ms
            stack.append(i)
        for span, children in zip(spans, child_ms):
            row = table.setdefault(str(span.tags["op"]),
                                   {"count": 0, "total_ms": 0.0,
                                    "self_ms": 0.0})
            row["count"] += 1
            row["total_ms"] += span.duration_ms
            row["self_ms"] += span.duration_ms - children
        return table

    def metrics(self, times: List[float], untraced: List[float]) -> dict:
        """The per-layer metrics of ``BENCHMARK.json``: counts per
        operation, or shares of the traced operations' total time
        (``times``); ``untraced`` holds the same operations' untraced
        times, for the tracing overhead."""
        ops = len(times)
        total_ms = sum(times)
        spans = self.layer_table()
        counters = self.registry.counters()

        def count(name):
            return counters.get(name, 0.0)

        def self_ms(name):
            return spans.get(name, {}).get("self_ms", 0.0)

        def total(name):
            return spans.get(name, {}).get("total_ms", 0.0)

        def pct(ms):
            return 100.0 * ms / total_ms

        def ratio(a, b):
            return a / b if b else 0.0

        predictor_ms = count("core.predictor.ms")
        hits, misses = count("pgp.cache.hit"), count("pgp.cache.miss")
        swaps = count("pgp.kl.swaps.evaluated")
        pruned = count("pgp.kl.swaps.pruned")
        return {
            "core.profiler.time_pct": pct(self_ms("manager.profile")),
            "core.predictor.time_pct": pct(predictor_ms),
            "core.predictor.calls": count("core.predictor.calls") / ops,
            "core.predictor.evals_full": count("pgp.evals.full") / ops,
            "core.predictor.cache_hit_ratio": ratio(hits, hits + misses),
            "core.pgp.self_time_pct": pct(self_ms("manager.schedule")
                                          - predictor_ms),
            "core.pgp.kl_swaps_evaluated": swaps / ops,
            "core.pgp.kl_prune_ratio": ratio(pruned, swaps + pruned),
            "core.generator.time_pct": pct(self_ms("manager.generate")),
            "platforms.self_time_pct": pct(self_ms("platform.run")),
            "simcore.time_pct": pct(total("simcore.run")),
            "simcore.events_per_op": count("simcore.events") / ops,
            "simcore.events_per_s": ratio(count("simcore.events"),
                                          total("simcore.run") / 1000.0),
            "runtime.cpusched.run_calls":
                count("runtime.cpusched.calls") / ops,
            "runtime.cpusched.time_pct": pct(count("runtime.cpusched.ms")),
            "runtime.gil.acquire_calls":
                count("runtime.gil.acquire.calls") / ops,
            "runtime.gil.handoffs": count("runtime.gil.handoffs") / ops,
            "runtime.osproc.forks": count("runtime.osproc.forks") / ops,
            "fleet.spec.self_time_pct": pct(self_ms("fleet.compile")),
            "fleet.placement.time_pct": pct(total("fleet.anneal")),
            "fleet.placement.accept_ratio": ratio(
                count("fleet.placement.moves.accepted"),
                count("fleet.placement.moves.proposed")),
            "fleet.runner.self_time_pct": pct(self_ms("fleet.run")),
            "cluster.fleetsim.fifo_time_pct":
                pct(total("cluster.fleetsim.fifo")),
            "cluster.fleetsim.jobs_per_s": ratio(
                count("cluster.fleetsim.jobs"),
                total("cluster.fleetsim.fifo") / 1000.0),
            "obs.trace_overhead_pct":
                100.0 * (total_ms / sum(untraced) - 1.0),
        }

    def write(self, out_dir: str, extra: dict) -> None:
        """Write ``trace.json`` (Chrome trace events) and ``layers.json``."""
        os.makedirs(out_dir, exist_ok=True)
        write_chrome_trace(self.tracer, os.path.join(out_dir, "trace.json"))
        with open(os.path.join(out_dir, "layers.json"), "w") as fh:
            json.dump({"spans": self.layer_table(),
                       "counters": self.registry.counters(), **extra},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
