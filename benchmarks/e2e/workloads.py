"""The five workloads of the end-to-end benchmark, generated from a seed.

Each workload is one pass of inputs that the harness (``worker.py``) runs in
order, one operation at a time, from a single thread:

* ``plan-cold``    - a fresh ``ChironManager().deploy`` per drifted FINRA-20
  input: profiler, predictor and PGP with a prediction cache that starts
  empty every time.
* ``plan-refresh`` - the same inputs re-planned by one long-lived manager
  through ``manager.refresh``: the same layers, with a cache that carries
  over from the incumbent deployment.
* ``serve-chiron`` - isolated ``Platform.run`` requests of FINRA-50 on the
  PGP plan (forked processes, one ``FluidCPU`` per process).
* ``serve-faastlane`` - the same requests on Faastlane (all functions in one
  sandbox: threads, and a forked process per parallel function).
* ``fleet``        - synthesize, compile, anneal and run whole multi-tenant
  fleets (1.08M simulated requests each).

A workload exposes ``op(i)`` (the timed call into ``repro``), ``output(i,
result)`` (untimed: validates the result and reduces it to the simulated
values that must repeat bit for bit), ``reset()`` (untimed: restores the
state a pass starts from) and ``sim_metrics(outputs)`` over one full pass.
Only public ``repro`` functions are called.  The fleet calls go through
their modules (``fleet_spec.compile_fleet``...) so the traced run can wrap
them.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, List, Optional, Sequence

import numpy as np

from repro.apps.catalog import finra
from repro.core.manager import ChironManager
from repro.core.pgp import PGPOptions
from repro.core.profiler import Profiler
from repro.core.search import SearchOptions
from repro.errors import CapacityError, DeploymentError
from repro.fleet import runner as fleet_runner
from repro.fleet import spec as fleet_spec
from repro.fleet.placement import FleetPlacer
from repro.platforms import build_platform
from repro.platforms.registry import default_slo_ms
from repro.workflow.model import Stage, Workflow

#: plan-*: FINRA with 20 rule checks.  One shape keeps the deploy-time
#: distribution unimodal; the drift below varies the work, not the shape.
#: At ~65 ms a deploy, a 15 s window holds ~230 of them, enough for a p90
#: with more than ten samples beyond it (FINRA-30 takes ~220 ms).
PLAN_PARALLELISM = 20
#: share of a plan input's functions whose CPU time drifts
PLAN_DRIFT_SHARE = 0.2
#: range of the drifted functions' CPU scale factor
PLAN_DRIFT_RANGE = (0.7, 1.5)
#: SLO as a multiple of the input's critical path.  PGP runs in strict mode
#: (an SLO it cannot meet is a refused deploy).  1.5x is infeasible for
#: FINRA-20 (best prediction 105.3 ms against a 104.25 ms SLO) and 1.75x
#: leaves 3% of the drifted inputs above their SLO, so the plan workloads
#: use 2.0x.
PLAN_SLO_FACTOR = 2.0
PLAN_INPUTS = 200
PLAN_INPUTS_QUICK = 3

#: serve-*: one app per workload.  Mixing apps makes the median host time
#: per request fall between app clusters and jump between runs.
SERVE_PARALLELISM = 50
SERVE_REQUESTS = {"chiron": 5000, "faastlane": 4000}
SERVE_REQUESTS_QUICK = 40
#: every COLD_EVERY-th request boots its sandboxes cold (the rest are warm)
COLD_EVERY = 10
#: request seeds of two benchmark seeds never overlap
REQUEST_SEED_STRIDE = 1_000_000

#: fleet: the shape of ``repro.fleet.bench``'s full arm
FLEET_TENANTS = 6
FLEET_WORKLOADS_PER_TENANT = 3
FLEET_REQUESTS_PER_STREAM = 60_000
FLEET_REQUESTS_PER_STREAM_QUICK = 2_000
FLEET_RPS = 40.0
FLEET_ANNEAL_BUDGET = 6_000
FLEET_FLEETS = 7
FLEET_FLEETS_QUICK = 1


class Violation(Exception):
    """An output failed a correctness check (not an operation failure)."""


def digest(value: Any) -> str:
    """Stable short hash of a value's repr (floats keep every digit)."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def succeeded(outputs: Sequence[tuple]) -> List[tuple]:
    """The outputs of operations that neither failed nor broke a check."""
    return [o for o in outputs if o[0] not in ("error", "violation")]


def drifted_finra(seed: int, count: int) -> List[Workflow]:
    """``count`` FINRA-20 workflows, each with a seeded 20% of functions
    CPU-scaled.  Factors are Python floats: numpy scalars in behaviours
    make PGP's Kernighan-Lin pass raise ``TypeError`` (see README)."""
    base = finra(PLAN_PARALLELISM)
    names = [fn.name for fn in base.functions]
    k = max(1, round(PLAN_DRIFT_SHARE * len(names)))
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        picked = rng.choice(len(names), size=k, replace=False)
        factors = rng.uniform(*PLAN_DRIFT_RANGE, size=k)
        scale = {names[int(j)]: float(f) for j, f in zip(picked, factors)}
        out.append(Workflow(base.name, [
            Stage(stage.name, [
                fn.with_behavior(fn.behavior.scaled(cpu_factor=scale[fn.name]))
                if fn.name in scale else fn
                for fn in stage])
            for stage in base.stages]))
    return out


class Workload:
    """One pass of inputs plus the state an operation runs against."""

    name = "abstract"
    #: name of the traced run's span around one operation
    span = "op"

    #: one pass of inputs, in the order the operations run them
    inputs: Sequence[Any] = ()

    def __len__(self) -> int:
        return len(self.inputs)

    def reset(self) -> None:
        """Restore the state a pass starts from (untimed)."""

    def op(self, i: int) -> Any:
        raise NotImplementedError

    def output(self, i: int, result: Any) -> tuple:
        raise NotImplementedError

    def sim_metrics(self, outputs: Sequence[Optional[tuple]]) -> dict:
        raise NotImplementedError

    def extra(self, outputs: Sequence[Optional[tuple]]) -> dict:
        """Workload-specific values printed beside the metrics."""
        return {}


# ---------------------------------------------------------------------------
# plan-cold / plan-refresh
# ---------------------------------------------------------------------------

def _strict_manager(profiler: Optional[Profiler] = None) -> ChironManager:
    """A manager whose PGP refuses (``SchedulingError``) an SLO it cannot
    meet instead of returning a best-effort plan."""
    return ChironManager(options=PGPOptions(strict=True), profiler=profiler)


class PlanCold(Workload):
    name = "plan-cold"
    span = "manager.deploy"

    def __init__(self, seed: int, quick: bool = False) -> None:
        self.inputs = drifted_finra(
            seed, PLAN_INPUTS_QUICK if quick else PLAN_INPUTS)
        self.slos = [PLAN_SLO_FACTOR * wf.critical_path_ms
                     for wf in self.inputs]

    def op(self, i: int):
        return _strict_manager().deploy(self.inputs[i], self.slos[i])

    def output(self, i: int, result) -> tuple:
        wf, plan = self.inputs[i], result.plan
        try:
            plan.validate(wf)
        except DeploymentError as exc:
            raise Violation(f"input {i}: invalid plan: {exc}") from None
        return (digest(plan.fingerprint(wf)), plan.predicted_latency_ms,
                plan.total_cores, self.slos[i])

    def sim_metrics(self, outputs) -> dict:
        ok = succeeded(outputs)
        predicted = [o[1] for o in ok] or [math.nan]
        return {
            "sim_latency_p50_ms": percentile(predicted, 50),
            "sim_latency_p99_ms": percentile(predicted, 99),
            "slo_met_fraction": sum(o[1] <= o[3] for o in ok) / len(outputs),
            "cores_mean": (float(np.mean([o[2] for o in ok])) if ok
                           else math.nan),
        }


class PlanRefresh(PlanCold):
    """The plan-cold inputs, re-planned by one manager that first deployed
    the undrifted base workflow (the incumbent)."""

    name = "plan-refresh"
    span = "manager.refresh"

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        self.base = finra(PLAN_PARALLELISM)
        self.reset()

    def reset(self) -> None:
        # A pass starts from a manager whose cache holds only the base
        # plan; re-running a pass on a warm cache would time cache hits.
        self.manager = _strict_manager()
        self.incumbent = self.manager.deploy(
            self.base, PLAN_SLO_FACTOR * self.base.critical_path_ms)

    def op(self, i: int):
        return self.manager.refresh(self.incumbent, self.slos[i],
                                    workflow=self.inputs[i])

    def reference(self, i: int) -> tuple:
        """What refreshing input ``i`` must produce: a deploy with a cold
        prediction cache and the same profiler state.

        The manager's profiler draws fresh measurement noise on every
        profile, so input ``i`` is profiled after the base workflow and
        inputs ``0..i-1`` of the pass; replaying those profiles rebuilds
        that state.  A plan-cold deploy (profiler at its initial state)
        profiles differently and is not a valid reference.
        """
        profiler = Profiler()
        for wf in [self.base, *self.inputs[:i]]:
            profiler.profile_workflow(wf)
        return self.output(i, _strict_manager(profiler).deploy(
            self.inputs[i], self.slos[i]))


# ---------------------------------------------------------------------------
# serve-chiron / serve-faastlane
# ---------------------------------------------------------------------------

class Serve(Workload):
    span = "serve.request"

    def __init__(self, platform: str, seed: int, quick: bool = False) -> None:
        self.name = f"serve-{platform}"
        self.workflow = finra(SERVE_PARALLELISM)
        # the paper's SLO (Faastlane mean + 10 ms), for both platforms
        self.slo_ms = default_slo_ms(self.workflow)
        self.platform = build_platform(platform, self.workflow,
                                       slo_ms=self.slo_ms)
        count = SERVE_REQUESTS_QUICK if quick else SERVE_REQUESTS[platform]
        #: per-request jitter seeds
        self.inputs = [seed * REQUEST_SEED_STRIDE + i for i in range(count)]

    def op(self, i: int):
        return self.platform.run(self.workflow, seed=self.inputs[i],
                                 cold=(i % COLD_EVERY == 0))

    def output(self, i: int, result) -> tuple:
        latency = result.latency_ms
        if not (math.isfinite(latency) and latency > 0):
            raise Violation(f"request {i}: latency {latency!r}")
        return (latency,)

    def sim_metrics(self, outputs) -> dict:
        ok = [o[0] for o in succeeded(outputs)] or [math.nan]
        return {
            "sim_latency_p50_ms": percentile(ok, 50),
            "sim_latency_p99_ms": percentile(ok, 99),
            "slo_met_fraction": sum(v <= self.slo_ms for v in ok)
            / len(outputs),
            "cores_mean": float(self.platform.allocated_cores(self.workflow)),
        }

    def extra(self, outputs) -> dict:
        plan = getattr(self.platform, "plan", None)
        if plan is None:
            return {"slo_ms": self.slo_ms}
        p50 = self.sim_metrics(outputs)["sim_latency_p50_ms"]
        # model error against the repo's own DES; never checked against a
        # real cluster, so it is not an accuracy figure
        return {"slo_ms": self.slo_ms,
                "pred_err_pct": abs(plan.predicted_latency_ms - p50)
                / p50 * 100.0}


# ---------------------------------------------------------------------------
# fleet
# ---------------------------------------------------------------------------

class Fleet(Workload):
    name = "fleet"
    span = "fleet.op"

    def __init__(self, seed: int, quick: bool = False) -> None:
        count = FLEET_FLEETS_QUICK if quick else FLEET_FLEETS
        self.requests = (FLEET_REQUESTS_PER_STREAM_QUICK if quick
                         else FLEET_REQUESTS_PER_STREAM)
        #: synth_fleet seeds
        self.inputs = [seed * FLEET_FLEETS + k for k in range(count)]

    def op(self, i: int):
        fs = self.inputs[i]
        spec = fleet_spec.synth_fleet(
            tenants=FLEET_TENANTS,
            workloads_per_tenant=FLEET_WORKLOADS_PER_TENANT,
            requests_per_stream=self.requests, rps=FLEET_RPS, seed=fs)
        fleet = fleet_spec.compile_fleet(spec, manager=ChironManager())
        placement = FleetPlacer(fleet).anneal(
            SearchOptions(budget=FLEET_ANNEAL_BUDGET, seed=fs))
        report = fleet_runner.run_fleet(fleet, placement)
        return fleet, placement, report

    def output(self, i: int, result) -> tuple:
        fleet, placement, report = result
        try:
            placement.validate(fleet)
        except CapacityError as exc:
            raise Violation(f"fleet {i}: invalid placement: {exc}") from None
        if report.completed != fleet.spec.total_requests:
            raise Violation(f"fleet {i}: completed {report.completed} of "
                            f"{fleet.spec.total_requests} requests")
        return (report.sojourn.p50_ms, report.sojourn.p99_ms,
                report.goodput_fraction, report.machines_used,
                report.machines_used * fleet.spec.cores_per_machine,
                report.jobs, report.completed, digest(placement.assignment))

    def sim_metrics(self, outputs) -> dict:
        ok = succeeded(outputs)
        mean = (lambda k: float(np.mean([o[k] for o in ok]))
                if ok else math.nan)
        return {
            "sim_latency_p50_ms": mean(0),
            "sim_latency_p99_ms": mean(1),
            # goodput: requests served within their deadline
            "slo_met_fraction": sum(o[2] for o in ok) / len(outputs),
            "cores_mean": mean(4),
        }

    def extra(self, outputs) -> dict:
        ok = succeeded(outputs)
        return {"machines_used": float(np.mean([o[3] for o in ok]))
                if ok else math.nan,
                "sim_requests_per_fleet": ok[0][6] if ok else 0,
                "jobs_per_fleet": ok[0][5] if ok else 0}


def build(name: str, seed: int, quick: bool = False) -> Workload:
    """Generate the inputs of workload ``name`` and set up its state."""
    if name == "plan-cold":
        return PlanCold(seed, quick)
    if name == "plan-refresh":
        return PlanRefresh(seed, quick)
    if name == "serve-chiron":
        return Serve("chiron", seed, quick)
    if name == "serve-faastlane":
        return Serve("faastlane", seed, quick)
    if name == "fleet":
        return Fleet(seed, quick)
    raise ValueError(f"unknown workload {name!r}")
