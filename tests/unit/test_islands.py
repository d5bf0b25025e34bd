"""Unit tests for the island-model GA."""

import numpy as np
import pytest

from repro.parallel.islands import (
    IslandModel,
    complete_topology,
    ring_topology,
    star_topology,
    torus_topology,
)


class TestTopologies:
    """Edge tuples pinned literally: migration walks them in this order,
    which decides where each immigrant lands."""

    def test_ring(self):
        assert ring_topology(4) == ((0, 1), (1, 2), (2, 3), (3, 0))
        assert ring_topology(2) == ((0, 1), (1, 0))

    def test_ring_single_island(self):
        assert ring_topology(1) == ()

    def test_torus_degree(self):
        assert torus_topology(2, 3) == (
            (0, 1), (0, 3), (1, 2), (1, 4), (2, 0), (2, 5),
            (3, 4), (3, 0), (4, 5), (4, 1), (5, 3), (5, 2),
        )
        assert torus_topology(2, 2) == (
            (0, 1), (0, 2), (1, 0), (1, 3), (2, 3), (2, 0), (3, 2), (3, 1),
        )
        assert torus_topology(1, 3) == ((0, 1), (1, 2), (2, 0))
        assert torus_topology(3, 1) == ((0, 1), (1, 2), (2, 0))
        assert torus_topology(1, 1) == ()

    def test_star(self):
        assert star_topology(4) == (
            (0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0),
        )
        assert star_topology(1) == ()

    def test_complete(self):
        assert complete_topology(3) == (
            (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1),
        )
        assert complete_topology(1) == ()

    @pytest.mark.parametrize("builder", [ring_topology, star_topology, complete_topology])
    def test_validation(self, builder):
        with pytest.raises(ValueError):
            builder(0)

    def test_torus_validation(self):
        with pytest.raises(ValueError):
            torus_topology(0, 3)


class TestIslandModel:
    def test_runs_and_pools(self, sine_dataset, tiny_config):
        cfg = tiny_config.replace(generations=100)
        model = IslandModel(
            sine_dataset, cfg, ring_topology(3),
            migration_interval=40, root_seed=1,
        )
        result = model.run()
        assert len(result.island_rules) == 3
        assert all(
            len(pop) == cfg.population_size for pop in result.island_rules
        )
        assert len(result.system) > 0
        assert result.migrations_sent > 0

    def test_migration_preserves_population_invariants(self, sine_dataset, tiny_config):
        cfg = tiny_config.replace(generations=80)
        model = IslandModel(
            sine_dataset, cfg, complete_topology(2),
            migration_interval=20, root_seed=2,
        )
        result = model.run()
        from repro.core.matching import match_mask

        for pop in result.island_rules:
            for rule in pop:
                if rule.match_mask is not None:
                    assert np.array_equal(
                        rule.match_mask, match_mask(rule, sine_dataset.X)
                    )

    def test_accepted_never_exceeds_sent(self, sine_dataset, tiny_config):
        model = IslandModel(
            sine_dataset, tiny_config.replace(generations=60),
            ring_topology(3), migration_interval=20, root_seed=3,
        )
        result = model.run()
        assert 0 <= result.migrations_accepted <= result.migrations_sent

    def test_single_island_no_migration(self, sine_dataset, tiny_config):
        model = IslandModel(
            sine_dataset, tiny_config.replace(generations=40),
            ring_topology(1), migration_interval=10, root_seed=4,
        )
        result = model.run()
        assert result.migrations_sent == 0

    def test_history_recorded(self, sine_dataset, tiny_config):
        model = IslandModel(
            sine_dataset, tiny_config.replace(generations=100),
            ring_topology(2), migration_interval=25, root_seed=5,
        )
        result = model.run()
        assert len(result.history) == 4
        assert set(result.history[0].keys()) == {0, 1}

    def test_rejects_edges_outside_the_island_range(
        self, sine_dataset, tiny_config
    ):
        for edges in (((0, 1), (1, -1)), ((-2, 0),), (("a", "b"),)):
            with pytest.raises(ValueError):
                IslandModel(sine_dataset, tiny_config, edges)

    @pytest.mark.parametrize("name, topology, sent, accepted, history", [
        ("ring", ring_topology(3), 6, 3, [
            (54.323922388506524, 54.323922388506524, 49.92984248553971),
            (61.927470913176904, 61.527052330472344, 61.927470913176904),
            (61.927470913176904, 61.527052330472344, 61.927470913176904),
        ]),
        ("star", star_topology(3), 8, 4, [
            (54.323922388506524, 54.323922388506524, 54.323922388506524),
            (61.527052330472344, 61.527052330472344, 56.72707445390033),
            (61.527052330472344, 61.527052330472344, 56.72707445390033),
        ]),
        ("torus", torus_topology(2, 2), 16, 8, [
            (54.323922388506524, 54.323922388506524, 54.323922388506524,
             52.3292107433117),
            (65.12595215277713, 61.12577939527158, 65.12595215277713,
             65.12595215277713),
            (65.12595215277713, 61.12577939527158, 72.72693552766368,
             65.12595215277713),
        ]),
    ])
    def test_runs_are_pinned(
        self, sine_dataset, tiny_config, name, topology, sent, accepted,
        history,
    ):
        """Migration counts and per-round best fitness, bit for bit, as
        recorded when topologies were still networkx digraphs (whose
        edge iteration order the builders reproduce)."""
        result = IslandModel(
            sine_dataset, tiny_config.replace(generations=90), topology,
            migration_interval=30, root_seed=11,
        ).run()
        assert result.migrations_sent == sent
        assert result.migrations_accepted == accepted
        assert [
            tuple(h[i] for i in range(len(h))) for h in result.history
        ] == history

    def test_validation(self, sine_dataset, tiny_config):
        with pytest.raises(ValueError):
            IslandModel(sine_dataset, tiny_config, ring_topology(2),
                        migration_interval=0)
        with pytest.raises(ValueError):
            IslandModel(sine_dataset, tiny_config, ring_topology(2),
                        n_emigrants=0)
