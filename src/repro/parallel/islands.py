"""Island-model distributed GA over a directed migration topology.

IPPS is a parallel-processing venue; the natural distributed extension
of the paper's multi-execution scheme is an island model: several
steady-state populations evolve independently and exchange their best
rules every ``migration_interval`` generations along a directed
topology.  An immigrant enters exactly like a §3.3 offspring — it
challenges the phenotypically nearest resident and replaces it only if
fitter — so the crowding invariants are preserved island-locally.

A topology is a plain tuple of directed ``(src, dst)`` edges between
islands ``0..k-1``; ring, torus, star and complete builders are
provided, and any user edge tuple works.  Migration walks the edges in
tuple order, which decides where each immigrant lands, so the builders
emit a fixed order: sources ascending, each source's successors in the
order the builder adds them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.config import EvolutionConfig
from ..core.engine import SteadyStateEngine
from ..core.population_state import PopulationState
from ..core.predictor import RuleSystem
from ..core.replacement import nearest_phenotype_index, try_replace
from ..core.rule import Rule
from ..series.windowing import WindowDataset
from .backends import Backend
from .rng import spawn_generators

__all__ = [
    "ring_topology",
    "torus_topology",
    "star_topology",
    "complete_topology",
    "Topology",
    "IslandResult",
    "IslandModel",
]


#: Directed migration edges ``(src, dst)`` between islands ``0..k-1``.
Topology = Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class _IslandEpoch:
    """Picklable unit of work: advance one island ``chunk`` generations.

    Carries the island's full evolutionary state — population (with
    cached match masks), RNG and replacement count — plus the *series*
    the worker re-windows (zero-copy) into the training matrix.  Under
    :class:`~repro.parallel.shm.SharedMemoryBackend` the series and
    the population's mask arrays ride shared memory by handle; the
    series segment is placed once and reused every epoch.
    """

    series: np.ndarray
    d: int
    horizon: int
    config: EvolutionConfig
    rules: Tuple[Rule, ...]
    rng: np.random.Generator
    replacements: int
    chunk: int


def _rebind_masks(rules: List[Rule], windows: np.ndarray) -> None:
    """Re-key each rule's cached mask to this process's window matrix.

    Masks are values over window *contents*, which are identical on
    both sides of a process hop; only the identity key changes.
    """
    n = windows.shape[0]
    for rule in rules:
        if rule.match_mask is not None and rule.match_mask.shape[0] == n:
            rule.bind_mask(rule.match_mask, windows)


def _run_island_epoch(
    task: _IslandEpoch,
) -> Tuple[List[Rule], np.random.Generator, int]:
    """Worker body for one island epoch (module-level: pool-picklable).

    Rebuilds the window matrix from the series, rehydrates the engine
    from the shipped state and steps it ``chunk`` generations.  Every
    quantity that influences evolution (masks, fitness, RNG stream)
    round-trips exactly, so the result is bitwise identical to
    stepping the same engine in the parent process.
    """
    dataset = WindowDataset.from_series(task.series, task.d, task.horizon)
    engine = SteadyStateEngine(dataset, task.config, rng=task.rng)
    engine.population = list(task.rules)
    _rebind_masks(engine.population, dataset.X)
    engine.state = PopulationState.from_population(
        engine.population, dataset.X
    )
    engine.replacements = task.replacements
    for _ in range(task.chunk):
        engine.step()
    return engine.population, engine.rng, engine.replacements


def _check_islands(n_islands: int) -> None:
    if n_islands < 1:
        raise ValueError("n_islands must be >= 1")


def ring_topology(n_islands: int) -> Topology:
    """Directed ring: island i sends to (i+1) mod n."""
    _check_islands(n_islands)
    if n_islands == 1:
        return ()
    return tuple((i, (i + 1) % n_islands) for i in range(n_islands))


def torus_topology(rows: int, cols: int) -> Topology:
    """2-D torus grid: each island sends to its E and S neighbours."""
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    edges = []
    for r in range(rows):
        for c in range(cols):
            src = r * cols + c
            east = r * cols + (c + 1) % cols
            south = ((r + 1) % rows) * cols + c
            edges.extend((src, dst) for dst in (east, south) if dst != src)
    return tuple(edges)


def star_topology(n_islands: int) -> Topology:
    """Hub-and-spoke: island 0 exchanges with every other island."""
    _check_islands(n_islands)
    spokes = range(1, n_islands)
    return tuple((0, i) for i in spokes) + tuple((i, 0) for i in spokes)


def complete_topology(n_islands: int) -> Topology:
    """All-to-all migration."""
    _check_islands(n_islands)
    return tuple(
        (i, j) for i in range(n_islands) for j in range(n_islands) if i != j
    )


@dataclass
class IslandResult:
    """Outcome of an island-model run.

    Attributes
    ----------
    system:
        Union of all islands' valid rules.
    island_rules:
        Final population per island.
    migrations_accepted / migrations_sent:
        Migration accounting (acceptance mirrors crowding replacement).
    """

    system: RuleSystem
    island_rules: List[List[Rule]]
    migrations_sent: int = 0
    migrations_accepted: int = 0
    history: List[Dict[int, float]] = field(default_factory=list)


class IslandModel:
    """Co-evolving islands with periodic best-rule migration.

    Parameters
    ----------
    dataset:
        Shared training windows.
    config:
        Per-island configuration (``config.seed`` ignored; the model
        spawns one independent stream per island from ``root_seed``).
    topology:
        Directed ``(src, dst)`` migration edges; the model runs
        ``max label + 1`` islands (one island for an empty tuple).
    migration_interval:
        Generations between migration rounds.
    n_emigrants:
        Best rules sent along each edge per round.
    backend:
        Optional :class:`~repro.parallel.backends.Backend` that fans
        the per-epoch island stepping out over workers (one task per
        island, synchronized at every migration round).  Results are
        bitwise identical to the default in-process loop for *any*
        backend — the island state round-trips exactly — so the
        backend only changes wall-clock.
    """

    def __init__(
        self,
        dataset: WindowDataset,
        config: EvolutionConfig,
        topology: Topology,
        migration_interval: int = 250,
        n_emigrants: int = 1,
        root_seed: Optional[int] = None,
        backend: Optional[Backend] = None,
    ) -> None:
        if migration_interval < 1:
            raise ValueError("migration_interval must be >= 1")
        if n_emigrants < 1:
            raise ValueError("n_emigrants must be >= 1")
        topology = tuple((int(src), int(dst)) for src, dst in topology)
        if any(src < 0 or dst < 0 for src, dst in topology):
            raise ValueError("topology edges must name islands 0..k-1")
        self.dataset = dataset
        self.config = config
        self.topology = topology
        self.migration_interval = migration_interval
        self.n_emigrants = n_emigrants
        self.backend = backend
        self.n_islands = 1 + max((max(e) for e in topology), default=0)
        rngs = spawn_generators(self.n_islands, root_seed)
        self.engines = [
            SteadyStateEngine(dataset, config, rng=rng) for rng in rngs
        ]
        self.migrations_sent = 0
        self.migrations_accepted = 0
        self.history: List[Dict[int, float]] = []

    def _best_rules(self, island: int) -> List[Rule]:
        pop = self.engines[island].population
        order = np.argsort([-(r.fitness) for r in pop])
        return [pop[int(i)] for i in order[: self.n_emigrants]]

    def _migrate(self) -> None:
        """One synchronous migration round along every topology edge.

        Each destination engine's incrementally maintained
        :class:`~repro.core.population_state.PopulationState` is reused
        directly — an accepted immigrant is one row update, exactly like
        a §3.3 offspring, with no per-edge match-matrix rebuild.
        """
        # Snapshot emigrants first so the round is order-independent.
        outbox = [
            [r.copy() for r in self._best_rules(i)]
            for i in range(self.n_islands)
        ]
        for src, dst in self.topology:
            engine = self.engines[dst]
            state = engine.state
            assert state is not None, "islands must be initialized before migration"
            for immigrant in outbox[src]:
                self.migrations_sent += 1
                if immigrant.match_mask is None:
                    continue
                slot = nearest_phenotype_index(
                    immigrant, engine.population, state
                )
                if try_replace(engine.population, state, immigrant.copy(), slot):
                    self.migrations_accepted += 1

    def _advance(self, chunk: int) -> None:
        """Step every island ``chunk`` generations, fanned out if asked."""
        if self.backend is None:
            for engine in self.engines:
                for _ in range(chunk):
                    engine.step()
            return
        tasks = [
            _IslandEpoch(
                series=self.dataset.series,
                d=self.dataset.d,
                horizon=self.dataset.horizon,
                config=self.config,
                rules=tuple(engine.population),
                rng=engine.rng,
                replacements=engine.replacements,
                chunk=chunk,
            )
            for engine in self.engines
        ]
        for engine, (rules, rng, replacements) in zip(
            self.engines, self.backend.map(_run_island_epoch, tasks)
        ):
            engine.population = list(rules)
            _rebind_masks(engine.population, self.dataset.X)
            engine.state = PopulationState.from_population(
                engine.population, self.dataset.X
            )
            engine.rng = rng
            engine.replacements = replacements

    def run(self) -> IslandResult:
        """Evolve all islands with synchronized migration rounds."""
        for engine in self.engines:
            engine.initialize()
        total = self.config.generations
        done = 0
        while done < total:
            chunk = min(self.migration_interval, total - done)
            self._advance(chunk)
            done += chunk
            if done < total and self.n_islands > 1:
                self._migrate()
            self.history.append(
                {
                    i: float(
                        max(r.fitness for r in engine.population)
                    )
                    for i, engine in enumerate(self.engines)
                }
            )
        pooled: List[Rule] = []
        island_rules: List[List[Rule]] = []
        f_min = self.config.fitness.f_min
        for engine in self.engines:
            island_rules.append(engine.population)
            pooled.extend(r for r in engine.population if r.fitness > f_min)
        return IslandResult(
            system=RuleSystem(pooled),
            island_rules=island_rules,
            migrations_sent=self.migrations_sent,
            migrations_accepted=self.migrations_accepted,
            history=self.history,
        )
