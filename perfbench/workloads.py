"""The benchmark's workloads, their rounds and their metrics.

Every workload runs the same pipeline through the public API — train,
``save_model``/``load_model``, ``ModelRegistry`` hot-swap, serve with
``serve_fleet`` — but weights its stages so that a different layer does
most of the work:

- ``train-forest-p4``: cold ``fit_parallel`` on the forest miniature at
  p=4 (message layer);
- ``train-url-p1``: the same solver on the sparse url miniature at p=1
  (kernel and sparse layers, no messages);
- ``train-forest-p2-faults``: the forest solve at p=2, once fault-free
  and once under a fixed fault plan (fault-recovery layer);
- ``serve-refresh``: a drift stream whose batches are served by a 2×2
  fleet and folded in by ``IncrementalSVC.partial_fit`` (serving and
  streaming layers).

The training workloads end each solve with a small deploy-and-serve
tail (a burst of requests scored by the freshly deployed model), so
every workload reports every end-to-end metric.  A *round*
runs every input of the workload once; a run repeats whole rounds.
Oracles (:mod:`perfbench.oracles`) check every output between the
timed operations.
"""

from __future__ import annotations

import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

import repro
from repro.core.params import SVMParams
from repro.data.registry import get_entry, load_dataset
from repro.data.synthetic import DriftStreamSpec, drift_stream
from repro.kernels import RBFKernel
from repro.perfmodel import costs
from repro.perfmodel.machine import MachineSpec
from repro.serve import SCORED

from . import oracles
from .tracer import SpanTracer

CLOCK = time.perf_counter
#: ε of every solve
EPS = 1e-3
#: share of the paper's sample count the training miniatures use
SCALE = 2e-3
#: the fixed fault plan of ``train-forest-p2-faults`` and the message
#: faults it must be seen to fire: (kind, src, dest, nth)
FAULT_PLAN = (
    "seed=7;drop:src=0,dest=1,nth=400;drop:src=1,dest=0,nth=1200;"
    "drop:src=0,dest=1,nth=2500;dup:src=1,dest=0,nth=300;"
    "corrupt:src=0,dest=1,nth=900"
)
PLANNED_FAULTS = (
    ("drop", 0, 1, 400), ("drop", 1, 0, 1200), ("drop", 0, 1, 2500),
    ("dup", 1, 0, 300), ("corrupt", 0, 1, 900),
)
MACHINE = MachineSpec.cascade()
#: seed of the drift stream behind ``serve-refresh``
STREAM_SEED = 0
#: ``serve_fleet`` calls (bursts of requests arriving at t=0) that score
#: each freshly deployed model on the training workloads; several short
#: calls give ``serve_rps`` a median over many samples
TAIL_BURSTS = 4


def poisson_arrivals(rng: np.random.Generator, n: int, rate: float) -> np.ndarray:
    """Open-loop arrival times (simulated seconds) at ``rate`` per second."""
    gaps = rng.exponential(1.0 / rate, size=n)
    gaps[0] = 0.0
    return np.cumsum(gaps)


def median(values) -> float:
    return float(statistics.median(values))


# ----------------------------------------------------------------------
# what a round measured
# ----------------------------------------------------------------------
@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0


@dataclass
class Requests:
    """One open-loop request stream: rows and arrival times."""

    X: object  # repro CSRMatrix handed to the program
    Xs: sp.csr_matrix  # the same rows for the oracle
    arrivals: np.ndarray


@dataclass
class Ledger:
    """Measurements, counts and oracle findings of one or more items."""

    ops: Dict[str, Tally] = field(default_factory=lambda: {
        "solves": Tally(), "requests": Tally(), "refreshes": Tally()})
    problems: List[str] = field(default_factory=list)
    #: host seconds inside the timed operations (oracles excluded)
    op_wall: float = 0.0
    #: solves on the training workloads, stream passes on serve-refresh
    units: int = 0
    fit_s: List[float] = field(default_factory=list)
    fit_vtime_s: List[float] = field(default_factory=list)
    refresh_s: List[float] = field(default_factory=list)
    refresh_vtime_s: List[float] = field(default_factory=list)
    recovery_s: List[float] = field(default_factory=list)
    serve_s: float = 0.0
    served: int = 0
    #: completed requests per host second of each serve_fleet call
    serve_rps: List[float] = field(default_factory=list)
    latencies: List[np.ndarray] = field(default_factory=list)
    solve_host_s: float = 0.0
    peak_queue_depth: int = 0
    active_fraction: List[float] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)

    def merge(self, other: "Ledger") -> None:
        for k, t in other.ops.items():
            self.ops[k].attempted += t.attempted
            self.ops[k].failed += t.failed
        self.problems += other.problems
        self.op_wall += other.op_wall
        self.units += other.units
        for name in ("fit_s", "fit_vtime_s", "refresh_s", "refresh_vtime_s",
                     "recovery_s", "latencies", "active_fraction",
                     "serve_rps"):
            getattr(self, name).extend(getattr(other, name))
        self.serve_s += other.serve_s
        self.served += other.served
        self.solve_host_s += other.solve_host_s
        self.peak_queue_depth = max(self.peak_queue_depth,
                                    other.peak_queue_depth)
        self.counts.update(other.counts)


class Guard:
    """Operation accounting for one pipeline item.

    ``planned`` operations are counted as attempted up front; the body
    marks each one done as it succeeds.  Whatever is not done when the
    body returns or raises counts as failed, so a run's failed share
    does not depend on where a failure happened.
    """

    def __init__(self, ledger: Ledger, **planned: int) -> None:
        self.ledger = ledger
        self.planned = planned
        self.done = Counter()

    def __enter__(self) -> Counter:
        for kind, n in self.planned.items():
            self.ledger.ops[kind].attempted += n
        return self.done

    def __exit__(self, exc_type, exc, tb) -> bool:
        for kind, n in self.planned.items():
            self.ledger.ops[kind].failed += n - min(n, self.done[kind])
        if exc_type is not None and issubclass(exc_type, Exception):
            traceback.print_exception(exc_type, exc, tb, file=sys.stderr)
            return True  # counted as failed; the run goes on
        return False


def record_fit(ledger: Ledger, res, host_s: float) -> None:
    """Fold one solve's program-reported counters into the ledger."""
    c = ledger.counts
    tr = res.trace
    ranks = res.spmd.rank_stats
    c["mpi.messages"] += res.stats.messages
    c["mpi.bytes"] += res.stats.bytes_sent
    c["mpi.comm_vtime_s"] += max(r.stats.comm_seconds for r in ranks)
    c["perfmodel.compute_vtime_s"] += max(r.stats.compute_seconds for r in ranks)
    c["core.iterations"] += res.iterations
    c["kernels.evals"] += res.stats.kernel_evals
    c["core.pair_broadcasts"] += tr.pair_broadcasts
    c["core.shrink.events"] += len(tr.shrink_iters)
    c["core.recon.count"] += tr.n_reconstructions()
    c["core.recon.kernel_evals"] += tr.recon_kernel_evals()
    c["core.recon.bytes"] += tr.recon_bytes()
    if tr.iterations:
        ledger.active_fraction.append(float(tr.active_fraction().mean()))
    ledger.solve_host_s += host_s


def model_view(model) -> Tuple[sp.csr_matrix, np.ndarray, float, float]:
    """What the serving oracle needs to evaluate a model version."""
    return (oracles.to_scipy(model.sv_X), model.sv_coef, float(model.beta),
            float(model.kernel.gamma))


class Pipeline:
    """The deploy and serve stages shared by every workload."""

    def __init__(self, out_dir: Path, serve_config, policy) -> None:
        self.out_dir = out_dir
        self.deploys = 0
        self.serve_config = serve_config
        self.policy = policy

    def deploy(self, model, registry) -> Tuple[object, int]:
        """save → load → hot-swap; returns the loaded model and its version.

        Every deploy writes a new file: rewriting an existing one makes
        ext4 flush it to disk on close (its replace-via-truncate
        heuristic), which would time the disk instead of the program.
        """
        self.deploys += 1
        path = self.out_dir / f"model-{self.deploys}.json"
        repro.save_model(model, path)
        loaded = repro.load_model(path)
        path.unlink()
        return loaded, registry.hot_swap(loaded)

    def reshard_vtime(self, model) -> float:
        """Modeled re-shard of a new model onto the serving ranks."""
        return costs.fleet_reshard_time(
            MACHINE, model.n_sv, model.sv_X.avg_row_nnz,
            self.serve_config.nprocs,
        )

    def serve(self, ledger: Ledger, registry, req: Requests, models: dict,
              done: Counter) -> None:
        t0 = CLOCK()
        res = repro.serve_fleet(
            registry, req.X, req.arrivals, policy=self.policy,
            config=self.serve_config,
        )
        dt = CLOCK() - t0
        ledger.op_wall += dt
        ok = np.flatnonzero(res.status == SCORED)
        ledger.serve_s += dt
        ledger.served += ok.size
        ledger.serve_rps.append(ok.size / dt)
        ledger.latencies.append(res.latencies[ok])
        done["requests"] += ok.size
        st = res.stats
        c = ledger.counts
        c["serve.messages"] += st.total_messages
        c["mpi.messages"] += st.total_messages
        c["mpi.bytes"] += st.total_bytes_sent
        c["serve.slabs"] += st.n_slabs
        c["serve.requests"] += st.n_requests
        ledger.peak_queue_depth = max(ledger.peak_queue_depth,
                                      st.peak_queue_depth)
        c["serve.kernel_evals"] += sum(
            models[int(v)][0].shape[0] for v in res.versions[ok])
        ledger.problems += oracles.served_scores(
            req.Xs[ok], res.scores[ok], res.versions[ok], models)


# ----------------------------------------------------------------------
# training workloads
# ----------------------------------------------------------------------
@dataclass
class TrainItem:
    X: object
    y: np.ndarray
    Xs: sp.csr_matrix
    bursts: List[Requests]


class TrainWorkload:
    """Cold solves back to back (closed loop), each deployed and served.

    The registry miniature is generated once; the run seed draws one
    row permutation of it per item.  A permutation keeps the kernel
    matrix, so the work per solve stays close from seed to seed, while
    the iteration path, the rank partition and the served requests
    change with the seed.
    """

    def __init__(self, name: str, dataset: str, nprocs: int, n_items: int,
                 n_requests: int, *, faults: Optional[str] = None) -> None:
        self.name = name
        self.dataset = dataset
        self.n_items = n_items
        self.faults = faults
        self.n_requests = n_requests
        entry = get_entry(dataset)
        self.C = float(entry.C)
        self.gamma = 1.0 / float(entry.sigma_sq)
        self.params = SVMParams(C=entry.C,
                                kernel=RBFKernel.from_sigma_sq(entry.sigma_sq),
                                eps=EPS)
        self.config = repro.RunConfig(
            nprocs=nprocs, heuristic="multi5pc", engine="packed", wss="mvp",
            comm="flat")
        self.serve_config = repro.RunConfig(nprocs=1, replicas=1, comm="flat")
        self.policy = repro.BatchPolicy(max_batch=32, max_delay=200e-6)

    def generate(self, seed: int) -> List[TrainItem]:
        base = load_dataset(self.dataset, scale=SCALE)
        n = base.X_train.shape[0]
        rng = np.random.default_rng(seed)
        items = []
        for _ in range(self.n_items):
            perm = rng.permutation(n)
            X = base.X_train.take_rows(perm)
            bursts = []
            for _ in range(TAIL_BURSTS):
                Xr = X.take_rows(rng.integers(0, n, size=self.n_requests))
                bursts.append(Requests(Xr, oracles.to_scipy(Xr),
                                       np.zeros(self.n_requests)))
            items.append(TrainItem(
                X=X, y=base.y_train[perm].copy(), Xs=oracles.to_scipy(X),
                bursts=bursts,
            ))
        return items

    def initial_model(self, inputs) -> None:
        return None

    def run_item(self, item: TrainItem, ledger: Ledger,
                 pipe: Pipeline) -> None:
        solves = 2 if self.faults else 1
        with Guard(ledger, solves=solves, refreshes=1,
                   requests=TAIL_BURSTS * self.n_requests) as done:
            self._run_item(item, repro.ModelRegistry(), ledger, pipe, done)

    def _solve(self, ledger: Ledger, item: TrainItem, config):
        t0 = CLOCK()
        res = repro.fit_parallel(item.X, item.y, self.params, config=config)
        dt = CLOCK() - t0
        ledger.op_wall += dt
        ledger.units += 1
        record_fit(ledger, res, dt)
        return res, dt

    def _run_item(self, item: TrainItem, registry, ledger: Ledger,
                  pipe: Pipeline, done: Counter) -> None:
        clean = None
        if self.faults:
            clean, clean_s = self._solve(ledger, item, self.config)
            done["solves"] += 1
        t0 = CLOCK()
        res, fit_s = self._solve(
            ledger, item,
            self.config.replace(faults=self.faults) if self.faults
            else self.config)
        t1 = CLOCK()
        loaded, version = pipe.deploy(res.model, registry)
        t2 = CLOCK()
        ledger.op_wall += t2 - t1

        problems = oracles.kkt_certificate(
            item.Xs, item.y, res.alpha, res.model.beta, self.C, self.gamma,
            EPS)
        problems += oracles.model_matches_dual(res.model, res.alpha, item.y)
        problems += oracles.same_model(res.model, loaded)
        if self.faults:
            problems += oracles.bitwise_equal_solves(clean, res)
            report = res.spmd.fault_stats
            problems += oracles.planned_faults_fired(report, PLANNED_FAULTS)
            stats = report["stats"] if report else {}
            ledger.counts["mpi.faults.retries"] += stats.get("retries", 0)
            ledger.counts["mpi.faults.retransmitted"] += stats.get(
                "retransmitted", 0)
            ledger.counts["mpi.faults.solves"] += 1
            ledger.recovery_s.append(fit_s - clean_s)
        ledger.problems += [f"{self.name}: {p}" for p in problems]
        done["solves"] += 1
        ledger.fit_s.append(fit_s)
        ledger.fit_vtime_s.append(float(res.vtime))
        if registry.active_version == version and not problems:
            done["refreshes"] += 1
            ledger.refresh_s.append(t2 - t0)
            ledger.refresh_vtime_s.append(
                float(res.vtime) + pipe.reshard_vtime(loaded))
        models = {version: model_view(loaded)}
        for burst in item.bursts:
            pipe.serve(ledger, registry, burst, models, done)


# ----------------------------------------------------------------------
# serving + streaming workload
# ----------------------------------------------------------------------
@dataclass
class StreamInputs:
    batches: list  # (CSRMatrix, y) per batch
    Xs: sp.csr_matrix  # every batch's rows stacked, for the oracle
    y: np.ndarray
    requests: List[Optional[Requests]]  # per batch (None for batch 0)


class ServeRefreshWorkload:
    """A rotate-drift stream: serve each batch, then refit and hot-swap.

    One item is one pass over the stream: a cold ``IncrementalSVC`` fit
    of batch 0 published to a fresh registry, then for every later
    batch (1) its requests served by ``serve_fleet`` at p=2 × 2
    replicas, (2) ``partial_fit`` on it, (3) ``save_model`` →
    ``load_model``, (4) ``hot_swap``.  Per-solve figures of an item are
    means over its 15 refits.

    The drift stream itself is fixed (``STREAM_SEED``); the run seed
    draws ``n_items`` copies of it with the rows inside every batch
    permuted, and the requests and their arrivals of each.  With the stream drawn from the run seed, the mean
    refit cost of a pass varied by half its median between seeds.
    """

    name = "serve-refresh"
    n_items = 4
    n_batches = 16
    batch_size = 60
    n_features = 3
    n_requests = 1024
    rate = 50_000.0
    C = 10.0
    gamma = 0.5

    def __init__(self) -> None:
        self.fit_config = repro.RunConfig(
            nprocs=1, heuristic="multi5pc", engine="packed", wss="mvp",
            comm="flat")
        self.serve_config = repro.RunConfig(nprocs=2, replicas=2, comm="flat")
        self.policy = repro.BatchPolicy(max_batch=32, max_delay=200e-6)

    def generate(self, seed: int) -> List[StreamInputs]:
        spec = DriftStreamSpec(
            n_batches=self.n_batches, batch_size=self.batch_size,
            n_features=self.n_features, drift="rotate", seed=STREAM_SEED)
        stream = drift_stream(spec)
        rng = np.random.default_rng(seed)
        items = []
        for _ in range(self.n_items):
            batches = []
            for X, y in stream:
                perm = rng.permutation(X.shape[0])
                batches.append((X.take_rows(perm), y[perm]))
            requests: List[Optional[Requests]] = [None]
            for X, _ in batches[1:]:
                Xr = X.take_rows(
                    rng.integers(0, X.shape[0], size=self.n_requests))
                requests.append(Requests(
                    Xr, oracles.to_scipy(Xr),
                    poisson_arrivals(rng, self.n_requests, self.rate)))
            items.append(StreamInputs(
                batches=batches,
                Xs=sp.vstack([oracles.to_scipy(X) for X, _ in batches]).tocsr(),
                y=np.concatenate([y for _, y in batches]),
                requests=requests,
            ))
        return items

    def _learner(self):
        return repro.IncrementalSVC(C=self.C, gamma=self.gamma, eps=EPS,
                                    config=self.fit_config)

    def initial_model(self, inputs: List[StreamInputs]) -> None:
        """The cold fit of batch 0, published (set-up cost)."""
        clf = self._learner().partial_fit(*inputs[0].batches[0])
        repro.ModelRegistry().publish(clf.model_)

    def run_item(self, inputs: StreamInputs, ledger: Ledger,
                 pipe: Pipeline) -> None:
        refreshes = self.n_batches - 1
        with Guard(ledger, solves=self.n_batches, refreshes=refreshes,
                   requests=refreshes * self.n_requests) as done:
            self._run_pass(inputs, ledger, pipe, done)

    def _run_pass(self, inputs: StreamInputs, ledger: Ledger, pipe: Pipeline,
                  done: Counter) -> None:
        ledger.units += 1
        t0 = CLOCK()
        clf = self._learner().partial_fit(*inputs.batches[0])
        registry = repro.ModelRegistry()
        version = registry.publish(clf.model_)
        dt = CLOCK() - t0
        ledger.op_wall += dt
        record_fit(ledger, clf.fit_result_, dt)
        models = {version: model_view(clf.model_)}
        n = inputs.batches[0][0].shape[0]
        ledger.problems += self._check(inputs, clf, clf.model_, n)
        done["solves"] += 1

        fit_s, fit_vtime, refresh_s, refresh_vtime = [], [], [], 0.0
        for b in range(1, self.n_batches):
            pipe.serve(ledger, registry, inputs.requests[b], models, done)
            X, y = inputs.batches[b]
            t0 = CLOCK()
            clf.partial_fit(X, y)
            t1 = CLOCK()
            loaded, version = pipe.deploy(clf.model_, registry)
            t2 = CLOCK()
            ledger.op_wall += t2 - t0
            n += X.shape[0]
            rec = clf.records_[-1]
            record_fit(ledger, clf.fit_result_, t1 - t0)
            c = ledger.counts
            c["stream.refit.iterations"] += rec.iterations
            c["stream.refit.kernel_evals"] += rec.solver_kernel_evals
            c["stream.seed_kernel_evals"] += rec.seed_kernel_evals
            problems = self._check(inputs, clf, loaded, n)
            done["solves"] += 1
            fit_s.append(t1 - t0)
            fit_vtime.append(float(rec.vtime))
            models[version] = model_view(loaded)
            if registry.active_version == version and not problems:
                done["refreshes"] += 1
                refresh_s.append(t2 - t0)
                refresh_vtime += float(rec.vtime) + pipe.reshard_vtime(loaded)
            ledger.problems += [f"batch {b}: {p}" for p in problems]
        ledger.fit_s.append(float(np.mean(fit_s)))
        ledger.fit_vtime_s.append(float(np.mean(fit_vtime)))
        if refresh_s:
            ledger.refresh_s.append(float(np.mean(refresh_s)))
        ledger.refresh_vtime_s.append(refresh_vtime)

    def _check(self, inputs: StreamInputs, clf, model, n: int) -> List[str]:
        y = inputs.y[:n]
        problems = oracles.kkt_certificate(
            inputs.Xs[:n], y, clf.alpha_, model.beta, self.C, self.gamma, EPS)
        problems += oracles.model_matches_dual(clf.model_, clf.alpha_, y)
        if model is not clf.model_:
            problems += oracles.same_model(clf.model_, model)
        return problems


WORKLOADS = {
    "train-forest-p4": lambda: TrainWorkload(
        "train-forest-p4", "forest", nprocs=4, n_items=12, n_requests=2048),
    "train-url-p1": lambda: TrainWorkload(
        "train-url-p1", "url", nprocs=1, n_items=3, n_requests=512),
    "train-forest-p2-faults": lambda: TrainWorkload(
        "train-forest-p2-faults", "forest", nprocs=2, n_items=8,
        n_requests=2048, faults=FAULT_PLAN),
    "serve-refresh": ServeRefreshWorkload,
}


# ----------------------------------------------------------------------
# a run
# ----------------------------------------------------------------------
def timed_setup(name: str, seed: int) -> Tuple[float, float]:
    """One set-up of a workload: (set-up seconds, input-generation
    seconds), both excluding the imports."""
    workload = WORKLOADS[name]()
    t0 = CLOCK()
    inputs = workload.generate(seed)
    t1 = CLOCK()
    workload.initial_model(inputs)
    return CLOCK() - t0, t1 - t0


def run(name: str, seed: int, seconds: float, trace: bool,
        setups: List[Tuple[float, float]], out_dir: Path) -> dict:
    """One benchmark run.  ``setups`` holds the (set-up, generation)
    seconds of the set-ups timed in fresh processes, imports included."""
    workload = WORKLOADS[name]()
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = workload.generate(seed)
    pipe = Pipeline(out_dir, workload.serve_config, workload.policy)
    setup_s = median(s for s, _ in setups)
    generate_s = median(g for _, g in setups)

    total = Ledger()
    if trace:
        # each item runs untraced, then traced: the overhead is a
        # per-item ratio over identical work
        traced, tracer, overheads = Ledger(), SpanTracer(repro), []
        start = CLOCK()
        for item in inputs:
            t0 = CLOCK()
            plain = Ledger()
            workload.run_item(item, plain, pipe)
            total.merge(plain)
            one = Ledger()
            tracer.install()
            try:
                workload.run_item(item, one, pipe)
            finally:
                tracer.uninstall()
            traced.merge(one)
            overheads.append((one.op_wall / plain.op_wall - 1.0) * 100.0)
            if CLOCK() - start + (CLOCK() - t0) > seconds:
                break
        total.merge(traced)
        n_spans = tracer.dump(out_dir / f"spans-{name}.npz")
        metrics = layer_metrics(traced, tracer, generate_s, median(overheads),
                                n_spans)
    else:
        start = CLOCK()
        while True:
            t0 = CLOCK()
            for item in inputs:
                workload.run_item(item, total, pipe)
            last = CLOCK() - t0
            if CLOCK() - start + last > seconds:
                break
        metrics = end_to_end_metrics(total, setup_s)

    for p in total.problems:
        print(f"ORACLE: {p}", file=sys.stderr)
    return {
        "correct": not total.problems,
        "attempted": sum(t.attempted for t in total.ops.values()),
        "failed": sum(t.failed for t in total.ops.values()),
        "metrics": metrics,
        "ops": {k: vars(t) for k, t in total.ops.items()},
    }


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(led: Ledger, setup_s: float) -> dict:
    lat = np.concatenate(led.latencies) if led.latencies else np.zeros(1)
    p50, p99 = np.percentile(lat, [50, 99]) * 1e3
    values = {
        "setup_s": (setup_s, "s"),
        "fit_s": (median(led.fit_s), "s"),
        "fit_vtime_s": (median(led.fit_vtime_s), "s"),
        "serve_rps": (median(led.serve_rps), "req/s"),
        "serve_p50_vtime_ms": (float(p50), "ms"),
        "serve_p99_vtime_ms": (float(p99), "ms"),
        "refresh_s": (median(led.refresh_s) if led.refresh_s else 0.0, "s"),
        "refresh_vtime_s": (
            median(led.refresh_vtime_s) if led.refresh_vtime_s else 0.0, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def layer_metrics(led: Ledger, tracer: SpanTracer, generate_s: float,
                  overhead_pct: float, n_spans: int) -> dict:
    """Per-layer metrics of the traced round, per unit of work (a solve
    on the training workloads, a stream pass on serve-refresh)."""
    units = max(led.units, 1)
    c = led.counts
    self_s = tracer.self_seconds()
    calls = tracer.calls()
    per = lambda v: v / units  # noqa: E731
    faulted = max(c["mpi.faults.solves"], 1)
    requests = c["serve.requests"]
    attributed = sum(self_s.values())
    values = {
        "mpi.messages": (per(c["mpi.messages"]), "count"),
        "mpi.bytes": (per(c["mpi.bytes"]), "B"),
        "mpi.comm_vtime_s": (per(c["mpi.comm_vtime_s"]), "s"),
        "mpi.host_s": (per(self_s["mpi"]), "s"),
        "mpi.host_us_per_msg": (
            self_s["mpi"] / c["mpi.messages"] * 1e6 if c["mpi.messages"]
            else 0.0, "us"),
        "mpi.faults.retries": (c["mpi.faults.retries"] / faulted, "count"),
        "mpi.faults.retransmitted": (
            c["mpi.faults.retransmitted"] / faulted, "count"),
        "mpi.faults.recovery_s": (
            median(led.recovery_s) if led.recovery_s else 0.0, "s"),
        "sparse.dot_csr_t.calls": (per(calls["sparse.dot_csr_t"]), "count"),
        "sparse.dot_csr_t.host_s": (per(self_s["sparse.dot_csr_t"]), "s"),
        "kernels.evals": (per(c["kernels.evals"]), "count"),
        "kernels.block.host_s": (per(self_s["kernels.block"]), "s"),
        "kernels.evals_per_host_s": (
            c["kernels.evals"] / led.solve_host_s if led.solve_host_s
            else 0.0, "1/s"),
        "core.iterations": (per(c["core.iterations"]), "count"),
        "core.host_us_per_iter": (
            led.solve_host_s / c["core.iterations"] * 1e6
            if c["core.iterations"] else 0.0, "us"),
        "core.fit.host_s": (per(self_s["core.fit"]), "s"),
        "core.update.host_s": (per(self_s["core.update"]), "s"),
        "core.select.host_s": (per(self_s["core.select"]), "s"),
        # SolveTrace.wss_elections stays 0 under mvp, so elections are
        # counted as select calls along the critical thread (rank 0)
        "core.elections": (
            per(tracer.calls(critical_only=True)["core.select"]), "count"),
        "core.fetch_pair.host_s": (per(self_s["core.fetch_pair"]), "s"),
        "core.pair_broadcasts": (per(c["core.pair_broadcasts"]), "count"),
        "core.shrink.events": (per(c["core.shrink.events"]), "count"),
        "core.active_fraction_mean": (
            float(np.mean(led.active_fraction)) if led.active_fraction
            else 0.0, "ratio"),
        "core.recon.count": (per(c["core.recon.count"]), "count"),
        "core.recon.kernel_evals": (per(c["core.recon.kernel_evals"]), "count"),
        "core.recon.bytes": (per(c["core.recon.bytes"]), "B"),
        "core.recon.host_s": (per(self_s["core.recon"]), "s"),
        "perfmodel.compute_vtime_s": (
            per(c["perfmodel.compute_vtime_s"]), "s"),
        "serve.host_s": (per(self_s["serve"]), "s"),
        "serve.host_us_per_request": (
            led.serve_s / requests * 1e6 if requests else 0.0, "us"),
        "serve.messages": (per(c["serve.messages"]), "count"),
        "serve.slabs": (per(c["serve.slabs"]), "count"),
        "serve.mean_slab_size": (
            requests / c["serve.slabs"] if c["serve.slabs"] else 0.0, "req"),
        "serve.peak_queue_depth": (led.peak_queue_depth, "req"),
        "serve.kernel_evals": (per(c["serve.kernel_evals"]), "count"),
        "serve.registry.host_s": (per(self_s["serve.registry"]), "s"),
        "serve.persist.host_s": (per(self_s["serve.persist"]), "s"),
        "stream.partial_fit.host_s": (per(self_s["stream.partial_fit"]), "s"),
        "stream.refit.iterations": (per(c["stream.refit.iterations"]), "count"),
        "stream.refit.kernel_evals": (
            per(c["stream.refit.kernel_evals"]), "count"),
        "stream.seed_kernel_evals": (
            per(c["stream.seed_kernel_evals"]), "count"),
        "data.generate_s": (generate_s, "s"),
        "trace.wall_s": (per(led.op_wall), "s"),
        "trace.unattributed_s": (per(led.op_wall - attributed), "s"),
        "trace.overhead_pct": (overhead_pct, "%"),
        "trace.spans": (per(n_spans), "count"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}
