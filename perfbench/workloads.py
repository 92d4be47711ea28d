"""The four benchmark workloads: fixed, seeded work through ``repro``'s public APIs.

Each workload has a ``setup(seed)`` that derives every input from the
workload seed (graphs, UID keys, trial seeds, fault plans), and a list of
timed *units* that consume those inputs.  A unit returns what ``check``
needs to decide whether every trial stabilized on the expected leader.
All four run in this one process with one thread: no pool, no sockets.
"""

from __future__ import annotations

import shutil
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

#: Round horizon for every engine run; no trial comes near it.
MAX_ROUNDS = 20_000


def derive(seed: int, *labels: int | str) -> int:
    """A 31-bit input seed derived from the workload seed and labels."""
    words = [int(seed) & 0xFFFFFFFF] + [
        zlib.crc32(x.encode()) if isinstance(x, str) else int(x) for x in labels
    ]
    return int(np.random.SeedSequence(words).generate_state(1)[0] & 0x7FFFFFFF)


@dataclass
class Outcome:
    """Checked result of one unit."""

    node_rounds: int
    rounds: list[int]
    attempted: int
    failed: int
    connections: int = 0
    notes: list[str] = field(default_factory=list)
    #: Campaign cells: retries beyond the first attempt.
    retries: int = 0
    #: Campaign cells: ``elapsed_s`` read back from each cell's checkpoint.
    cell_elapsed_s: dict[str, float] = field(default_factory=dict)


def _min_pair(tags: np.ndarray, keys: np.ndarray) -> tuple[int, int]:
    order = np.lexsort((keys, tags))
    return int(tags[order[0]]), int(keys[order[0]])


# -- batched engine workloads ------------------------------------------------


def _batched_outcome(label: str, engine, result, expect) -> Outcome:
    """Trial-by-trial check of a finished batched run."""
    ok = np.asarray(result.stabilized, dtype=bool) & expect(engine)
    notes = [f"{label}: trial {t} did not stabilize on the expected leader"
             for t in np.flatnonzero(~ok)]
    return Outcome(
        node_rounds=int(engine.n) * int(result.rounds.sum()),
        rounds=[int(r) for r in result.rounds],
        attempted=int(ok.size),
        failed=int((~ok).sum()),
        connections=int(engine.connections_made.sum()),
        notes=notes,
    )


def _expect_min_key(keys: np.ndarray) -> Callable:
    return lambda engine: (engine.state.best == keys.min()).all(axis=1)


def _expect_informed(engine) -> np.ndarray:
    return engine.state.informed.all(axis=1)


def _expect_min_pair(keys: np.ndarray, config, seeds) -> Callable:
    """Every node holds the smallest (ID tag, UID key) pair of its replica.

    The tags are drawn again from each trial seed, independently of the
    engine's own convergence target.
    """
    from repro.algorithms.bit_convergence import draw_id_tags

    def expect(engine) -> np.ndarray:
        out = np.empty(len(seeds), dtype=bool)
        for t, ts in enumerate(seeds):
            tag, key = _min_pair(
                draw_id_tags(keys.size, config, int(ts), unique=True), keys
            )
            out[t] = bool(
                (engine.state.ctag[t] == tag).all() and (engine.state.ckey[t] == key).all()
            )
        return out

    return expect


def _sweep_algorithms(inputs) -> dict[str, tuple[Callable, Callable]]:
    """name -> (algorithm factory, expected-leader predicate)."""
    from repro.algorithms.bit_convergence import BitConvergenceBatched
    from repro.algorithms.blind_gossip import BlindGossipBatched
    from repro.algorithms.ppush import PPushBatched
    from repro.algorithms.push_pull import PushPullBatched

    keys, sources, config = inputs.keys, inputs.sources, inputs.config
    return {
        "blind_gossip": (lambda: BlindGossipBatched(keys), _expect_min_key(keys)),
        "push_pull": (lambda: PushPullBatched(sources), _expect_informed),
        "ppush": (lambda: PPushBatched(sources), _expect_informed),
        "bit_convergence": (
            lambda: BitConvergenceBatched(keys, config, unique_tags=True),
            None,  # needs the unit's trial seeds; bound per unit
        ),
    }


class SweepBatched:
    """Static random 8-regular graph, n=1024, 32 trials of each of four algorithms.

    A batch runs until its slowest replica stabilizes, and bit convergence
    finishes in whole 60-round phases, so one batch of 32 ran 300 or 360
    rounds depending on the seed (16.7% spread in executed rounds over 12
    seeds).  Its 32 trials therefore run as four batches of 8 (7.1%).
    """

    name = "sweep-batched"
    n, degree = 1024, 8
    #: label -> (algorithm, trials in the batch)
    batches = {
        "blind_gossip": ("blind_gossip", 32),
        "push_pull": ("push_pull", 32),
        "ppush": ("ppush", 32),
        **{f"bit_convergence/{b}": ("bit_convergence", 8) for b in range(4)},
    }

    def setup(self, seed: int):
        from repro.algorithms.bit_convergence import BitConvergenceConfig
        from repro.graphs import families
        from repro.harness import trial_seeds_for
        from repro.harness.experiments import uid_keys_random

        n = self.n
        return SimpleNamespace(
            graph=families.random_regular(n, self.degree, seed=derive(seed, "graph")),
            keys=uid_keys_random(n, derive(seed, "keys")),
            sources=np.array([derive(seed, "source") % n]),
            config=BitConvergenceConfig(n_upper=n, delta_bound=self.degree, beta=1.0),
            seeds={
                label: trial_seeds_for(derive(seed, label), trials)
                for label, (_, trials) in self.batches.items()
            },
        )

    def units(self, inputs) -> list[tuple[str, Callable]]:
        from repro.core import BatchedVectorizedEngine
        from repro.graphs.dynamic import StaticDynamicGraph

        algos = _sweep_algorithms(inputs)

        def unit(label, name):
            make, _ = algos[name]

            def run(_segments):
                engine = BatchedVectorizedEngine(
                    StaticDynamicGraph(inputs.graph), make(), seeds=inputs.seeds[label]
                )
                return engine, engine.run(MAX_ROUNDS)

            return run

        return [(label, unit(label, name)) for label, (name, _) in self.batches.items()]

    def check(self, inputs, label: str, out) -> Outcome:
        engine, result = out
        _, expect = _sweep_algorithms(inputs)[self.batches[label][0]]
        if expect is None:
            expect = _expect_min_pair(inputs.keys, inputs.config, inputs.seeds[label])
        return _batched_outcome(label, engine, result, expect)


class ChurnFaults:
    """Per-trial τ=1 / τ=4 relabel churn over one n=256 base, crashes and drops."""

    name = "churn-faults"
    n, degree, trials = 256, 8, 16
    algorithms = ("blind_gossip", "push_pull", "bit_convergence")
    taus = (1, 4)
    drop_p = 0.3
    crash_horizon = 40

    def setup(self, seed: int):
        from repro.algorithms.bit_convergence import BitConvergenceConfig
        from repro.faults import ConnectionDropModel, FaultPlan, random_crash_schedule
        from repro.graphs import families
        from repro.harness import trial_seeds_for
        from repro.harness.experiments import uid_keys_random

        n = self.n
        # Bit convergence has no reset hook, so crashed nodes resume from
        # their frozen state; every window ends by the crash horizon.
        crashes = random_crash_schedule(
            n, n // 8, first_round=1, last_round=self.crash_horizon,
            seed=derive(seed, "crashes"), reset_on_rejoin=False,
        )
        return SimpleNamespace(
            graph=families.random_regular(n, self.degree, seed=derive(seed, "graph")),
            keys=uid_keys_random(n, derive(seed, "keys")),
            sources=np.array([derive(seed, "source") % n]),
            config=BitConvergenceConfig(n_upper=n, delta_bound=self.degree, beta=1.0),
            plan=FaultPlan(
                crashes=crashes,
                connection_drop=ConnectionDropModel(self.drop_p),
                n=n,
            ),
            seeds={
                (a, tau): trial_seeds_for(derive(seed, a, tau), self.trials)
                for a in self.algorithms
                for tau in self.taus
            },
        )

    def units(self, inputs) -> list[tuple[str, Callable]]:
        from repro.core import BatchedVectorizedEngine
        from repro.graphs.dynamic import PeriodicRelabelDynamicGraph

        algos = _sweep_algorithms(inputs)

        def unit(name, tau):
            make, _ = algos[name]
            seeds = inputs.seeds[(name, tau)]

            def run(_segments):
                graphs = [
                    PeriodicRelabelDynamicGraph(inputs.graph, tau, seed=int(s))
                    for s in seeds
                ]
                engine = BatchedVectorizedEngine(
                    graphs, make(), seeds=seeds, fault_plan=inputs.plan
                )
                return engine, engine.run(MAX_ROUNDS)

            return run

        return [
            (f"{name}/tau{tau}", unit(name, tau))
            for name in self.algorithms
            for tau in self.taus
        ]

    def check(self, inputs, label: str, out) -> Outcome:
        engine, result = out
        name, tau = label.split("/tau")
        _, expect = _sweep_algorithms(inputs)[name]
        if expect is None:
            expect = _expect_min_pair(
                inputs.keys, inputs.config, inputs.seeds[(name, int(tau))]
            )
        return _batched_outcome(label, engine, result, expect)


class LargeN:
    """LargeNEngine blind gossip on one random 8-regular graph, n=2^18, two trials."""

    name = "large-n"
    n, degree, trials = 1 << 18, 8, 2

    def setup(self, seed: int):
        from repro.graphs import families
        from repro.harness.experiments import uid_keys_random

        return SimpleNamespace(
            graph=families.random_regular(self.n, self.degree, seed=derive(seed, "graph")),
            keys=uid_keys_random(self.n, derive(seed, "keys")),
            seeds=[derive(seed, "trial", t) for t in range(self.trials)],
        )

    def units(self, inputs) -> list[tuple[str, Callable]]:
        from repro.algorithms.blind_gossip import BlindGossipVectorized
        from repro.core import LargeNEngine
        from repro.graphs.dynamic import StaticDynamicGraph

        def unit(ts):
            def run(_segments):
                engine = LargeNEngine(
                    StaticDynamicGraph(inputs.graph),
                    BlindGossipVectorized(inputs.keys),
                    seed=ts,
                )
                return engine, engine.run(MAX_ROUNDS)

            return run

        return [(f"trial{t}", unit(ts)) for t, ts in enumerate(inputs.seeds)]

    def check(self, inputs, label: str, out) -> Outcome:
        engine, result = out
        ok = bool(result.stabilized) and bool(
            (engine.state.best == inputs.keys.min()).all()
        )
        return Outcome(
            node_rounds=engine.n * int(result.rounds),
            rounds=[int(result.rounds)],
            attempted=1,
            failed=int(not ok),
            connections=int(engine.connections_made),
            notes=[] if ok else [f"{label}: did not stabilize on the minimum key"],
        )


class CampaignQuick:
    """Serial in-process quick-profile campaign with verification and checkpoints."""

    name = "campaign-quick"
    cells = ("E1", "E3", "E5", "E8", "E9", "E13", "E19", "A4", "A5", "R1", "R3", "T2")
    #: Cells kept at their registry seed: their quick-profile verdicts are
    #: statistical.  E3 and E5 fail at about one seed in three, A5 and R1
    #: at about one in sixty; the other eight passed at 200 of 200 seeds.
    fixed_seed_cells = ("E3", "E5", "A5", "R1")

    def __init__(self, scratch: Path):
        self.scratch = scratch

    def setup(self, seed: int):
        import repro.harness  # noqa: F401  (the campaign's whole import graph)

        self.scratch.mkdir(parents=True, exist_ok=True)
        return SimpleNamespace(
            overrides={
                cell: {"seed": derive(seed, cell)}
                for cell in self.cells
                if cell not in self.fixed_seed_cells
            },
            runs=0,
        )

    def units(self, inputs) -> list[tuple[str, Callable]]:
        from repro.harness import CampaignConfig, run_campaign

        def run(segments):
            inputs.runs += 1
            directory = self.scratch / f"campaign-{inputs.runs}"
            shutil.rmtree(directory, ignore_errors=True)
            config = CampaignConfig(
                checkpoint_dir=directory,
                profile="quick",
                exp_ids=list(self.cells),
                processes=1,
                verify=True,
                overrides=inputs.overrides,
            )
            # Each progress line closes the segment of the cell it names,
            # so every cell is bracketed by its own calibration.
            report = run_campaign(
                config, progress=lambda line: segments.mark(line.split(":", 1)[0])
            )
            return report, directory

        return [("campaign", run)]

    def check(self, inputs, label: str, out) -> Outcome:
        from repro.harness import load_document

        report, directory = out
        notes, elapsed = [], {}
        for cell in report.cells:
            if not cell.ok:
                notes.append(
                    f"{cell.exp_id}: {cell.status}, checks "
                    f"{cell.checks_passed}/{cell.checks_total} {cell.error or ''}"
                )
            else:
                doc = load_document(cell.path)
                elapsed[cell.exp_id] = float(doc.extra["campaign"]["elapsed_s"])
        missing = len(self.cells) - len(report.cells)
        if missing:
            notes.append(f"campaign aborted ({report.aborted}): {missing} cells missing")
        shutil.rmtree(directory, ignore_errors=True)
        return Outcome(
            node_rounds=0,
            rounds=[],
            attempted=len(self.cells),
            failed=sum(not c.ok for c in report.cells) + missing,
            notes=notes,
            retries=sum(max(c.attempts - 1, 0) for c in report.cells),
            cell_elapsed_s=elapsed,
        )


def make(name: str, scratch: Path):
    workloads = {
        SweepBatched.name: SweepBatched,
        ChurnFaults.name: ChurnFaults,
        LargeN.name: LargeN,
    }
    if name == CampaignQuick.name:
        return CampaignQuick(scratch)
    if name not in workloads:
        raise SystemExit(
            f"unknown workload {name!r}; known: "
            f"{sorted([*workloads, CampaignQuick.name])}"
        )
    return workloads[name]()
