"""Tests for grid construction and the VO hierarchy."""

import pytest

from repro.grid import GridBuilder, VORegistry, VirtualOrganization
from repro.sim import RngRegistry, Simulator


@pytest.fixture
def builder():
    sim = Simulator()
    return GridBuilder(sim, RngRegistry(0).stream("grid"))


class TestVORegistry:
    def test_create_hierarchy(self):
        reg = VORegistry()
        vo = reg.create("atlas", n_groups=3, users_per_group=2)
        assert len(vo.groups) == 3
        assert len(vo.users) == 6
        assert all(u.vo == "atlas" for u in vo.users)

    def test_duplicate_vo_rejected(self):
        reg = VORegistry()
        reg.create("cms")
        with pytest.raises(ValueError):
            reg.create("cms")

    def test_duplicate_group_rejected(self):
        vo = VirtualOrganization("v")
        vo.add_group("g")
        with pytest.raises(ValueError):
            vo.add_group("g")

    def test_lookup(self):
        reg = VORegistry()
        reg.create("cdf")
        assert reg.get("cdf").name == "cdf"
        assert "cdf" in reg and "d0" not in reg
        with pytest.raises(KeyError):
            reg.get("d0")

    def test_iteration_and_len(self):
        reg = VORegistry()
        for n in ("a", "b"):
            reg.create(n)
        assert len(reg) == 2
        assert {v.name for v in reg} == {"a", "b"}


class TestGridBuilder:
    def test_cpu_total_exact(self, builder):
        grid = builder.build(n_sites=20, total_cpus=1000)
        assert grid.total_cpus == 1000
        assert len(grid) == 20
        assert len(grid.vos) == 10

    def test_min_site_size_respected(self, builder):
        grid = builder.build(n_sites=50, total_cpus=2000, min_site_cpus=8)
        assert all(s.total_cpus >= 8 for s in grid.sites.values())

    def test_infeasible_rejected(self, builder):
        with pytest.raises(ValueError):
            builder.build(n_sites=100, total_cpus=100, min_site_cpus=8)
        with pytest.raises(ValueError):
            builder.build(n_sites=0, total_cpus=100)

    def test_heavy_tail(self, builder):
        grid = builder.build(n_sites=100, total_cpus=10000, size_sigma=1.0)
        sizes = sorted((s.total_cpus for s in grid.sites.values()), reverse=True)
        # Top decile holds well over its proportional share.
        assert sum(sizes[:10]) > 0.2 * 10000

    def test_uniform_preset(self, builder):
        grid = builder.uniform(n_sites=5, cpus_per_site=16)
        assert [s.total_cpus for s in grid.sites.values()] == [16] * 5

    def test_deterministic(self):
        def build():
            b = GridBuilder(Simulator(), RngRegistry(7).stream("grid"))
            return b.build(n_sites=30, total_cpus=3000)
        g1, g2 = build(), build()
        assert ([s.total_cpus for s in g1.sites.values()]
                == [s.total_cpus for s in g2.sites.values()])

    def test_free_at_matches_sites(self, builder):
        grid = builder.uniform(n_sites=4, cpus_per_site=8)
        assert [grid.free_at(n) for n in grid.site_names] == [8, 8, 8, 8]

    def test_site_lookup(self, builder):
        grid = builder.uniform(n_sites=2, cpus_per_site=4, name="u")
        assert grid.site("u-site000").total_cpus == 4
        with pytest.raises(KeyError):
            grid.site("nope")

    def test_snapshot_covers_all_sites(self, builder):
        grid = builder.uniform(n_sites=3, cpus_per_site=4)
        snap = grid.snapshot()
        assert set(snap) == set(grid.site_names)
