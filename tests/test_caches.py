"""The per-process memo layer: functools.lru_cache builders, emptied by
groebner.clear_memo, reduction.clear_memo and symfun.clear_caches, and
the packed specialized basis that cr, ls and dims share."""

import importlib
import pkgutil

import pytest

import musym
from musym import _packed, groebner, linsys, reduction, symfun
from musym.gists import compute_gist
from musym.symfun import Partition, dplus


def _memos():
    """Every memoized function in the package, keyed by module and name."""
    out = {}
    for info in pkgutil.iter_modules(musym.__path__):
        module = importlib.import_module(f"musym.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info"):
                out[f"{info.name}.{name}"] = obj
    return out


def test_warm_canonical_system_skips_canonize(monkeypatch):
    # the default basis kind and an explicit "e" share one memo entry
    mu = Partition.of(2, 2, 1)
    reduction.clear_memo()
    reduction.canonical_system(mu, 10)
    calls = []
    real = reduction._canonize_packed

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(reduction, "_canonize_packed", counting)
    assert reduction.crgist(dplus(mu), mu).symmetric
    assert calls == []
    reduction.clear_memo()


def test_clear_functions_empty_every_memo():
    mu = Partition.of(2, 1)
    for algo in ("groebner", "cr", "ls"):
        compute_gist(dplus(mu), mu, "e", algo)
    compute_gist(dplus(mu), mu, "m", "cr")
    symfun.subdiscriminant(3, 1)
    # the x-variable families fill the packed memos at mu = 1^n
    symfun.generator("e", 2, 3)
    symfun.monomial_generator((2, 1, 0), 3)
    memos = _memos()
    assert [name for name, fn in memos.items() if not fn.cache_info().currsize] == []
    groebner.clear_memo()
    reduction.clear_memo()
    symfun.clear_caches()
    assert [name for name, fn in memos.items() if fn.cache_info().currsize] == []


def test_shared_spec_basis_is_never_mutated():
    mu = Partition.of(2, 2, 1)
    symfun.clear_caches()
    reduction.clear_memo()
    _, basis = symfun.spec_basis("e", 10, mu)
    before = [dict(d) for d in basis]
    reduction.canonical_system(mu, 10)
    linsys.build_system(dplus(mu), mu)
    symfun.sym_dimensions(mu, 10)
    _, again = symfun.spec_basis("e", 10, mu)
    assert all(a is b for a, b in zip(again, basis))  # the memoized dicts themselves
    assert basis == before
    reduction.clear_memo()


def test_warm_monomial_basis_is_memoized(monkeypatch):
    mu = Partition.of(2, 2, 1)
    symfun.clear_caches()
    _, cold = symfun.spec_basis("m", 10, mu)
    calls = []
    with monkeypatch.context() as patch:
        for name in ("specialize", "monomial_generator"):
            patch.setattr(symfun, name, lambda *a, name=name: calls.append(name))
        _, warm = symfun.spec_basis("m", 10, mu)
    assert calls == []
    assert all(a is b for a, b in zip(warm, cold))
    symfun.clear_caches()


@pytest.mark.parametrize("algo", ["groebner", "cr", "ls"])
def test_warm_gist_and_dims_never_unpack(monkeypatch, algo):
    mu = Partition.of(2, 2, 1)
    F = dplus(mu)
    symfun.clear_caches()
    reduction.clear_memo()
    compute_gist(F, mu, "e", algo)  # warm

    def unpack(self, d):
        raise AssertionError("the packed basis was unpacked")

    def repack(self, p):  # symfun.root_parts packs F in its own walk
        raise AssertionError("F was packed again")

    monkeypatch.setattr(_packed.Ring, "undensify", unpack)
    monkeypatch.setattr(_packed.Ring, "densify", repack)
    assert compute_gist(F, mu, "e", algo).symmetric
    assert symfun.sym_dimensions(mu, 9) == (23, 21)
    reduction.clear_memo()


def test_spec_basis_builds_each_product_once(monkeypatch):
    # one multiplication per product with two or more factors: every
    # capped index of degree 1..10 but the five single generators
    mu = Partition.of(2, 2, 1)
    symfun.clear_caches()
    products = []
    real = _packed.mul

    def counting(d1, d2):
        products.append(real(d1, d2))
        return products[-1]

    generators = []
    real_generator = symfun._spec_generator_packed

    def generator_counting(kind, i, mu):
        generators.append(i)
        return real_generator(kind, i, mu)

    monkeypatch.setattr(_packed, "mul", counting)
    monkeypatch.setattr(symfun, "_spec_generator_packed", generator_counting)
    indices = sum(len(symfun.spec_basis("e", delta, mu)[0]) for delta in range(1, 11))
    assert len(products) == indices - 5 and sorted(generators) == [1, 2, 3, 4, 5]
    stored = symfun._spec_products("e", mu).values()
    assert all(any(p is q for q in stored) for p in products)
    for delta in range(1, 11):
        symfun.spec_basis("e", delta, mu)
    assert len(products) == indices - 5 and len(generators) == 5
    symfun.clear_caches()


def test_three_deciders_share_one_member_memo(monkeypatch):
    # the Groebner seeds read the generators from the memo that cr and
    # ls fill, so a cold groebner, cr, ls pass builds each one once
    mu = Partition.of(2, 2, 1)
    symfun.clear_caches()
    reduction.clear_memo()
    groebner.clear_memo()
    generators = []
    real_generator = symfun._spec_generator_packed

    def generator_counting(kind, i, mu):
        generators.append(i)
        return real_generator(kind, i, mu)

    monkeypatch.setattr(symfun, "_spec_generator_packed", generator_counting)
    for algo in ("groebner", "cr", "ls"):
        assert compute_gist(dplus(mu), mu, "e", algo).symmetric
    assert sorted(generators) == [1, 2, 3, 4, 5]
    assert sorted(name for name in _memos() if name.startswith("symfun.")) == ["symfun._root_ring", "symfun._spec_products"]
    groebner.clear_memo()
    reduction.clear_memo()


def test_spec_basis_threads_share_equal_members():
    import threading

    mu = Partition.of(2, 2, 1)
    symfun.clear_caches()
    barrier = threading.Barrier(4)
    results = []

    def worker():
        barrier.wait()
        results.append(symfun.spec_basis("e", 8, mu))

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    symfun.clear_caches()
    _, reference = symfun.spec_basis("e", 8, mu)
    assert len(results) == 4
    assert all(r[1] == reference and r[0] == results[0][0] for r in results)
    symfun.clear_caches()


def test_clear_functions_drop_the_orbit_tables(monkeypatch):
    # at (1,1,1,1,1) and delta >= 5 the canonical systems are built over
    # orbit representatives; either clear function drops the members and
    # the representative tables, and the next call builds them again
    mu = Partition.of(1, 1, 1, 1, 1)
    gathers = []
    real = symfun._Orbits.gather

    def counting(self, *args):
        gathers.append(args)
        return real(self, *args)

    monkeypatch.setattr(symfun._Orbits, "gather", counting)
    for clear, rebuild in (
        (reduction.clear_memo, lambda: symfun.sym_dimensions(mu, 6)),
        (symfun.clear_caches, lambda: symfun.orbit_basis("e", 6, mu)),
    ):
        symfun.clear_caches()
        reduction.clear_memo()
        assert symfun.sym_dimensions(mu, 6) == (10, 10) and symfun.orbit_rule("e", 6, mu)
        tables = symfun._orbit_tables[mu]
        members = dict(tables.members["e"])
        assert members and tables.reps[6] and tables.rep_of and tables.gathers
        clear()
        assert symfun._orbit_tables == {}
        gathers.clear()
        rebuild()
        again = symfun._orbit_tables[mu]
        assert again is not tables and gathers and again.reps[6] == tables.reps[6]
        assert all(again.members["e"][key] is not member for key, member in members.items() if key in again.members["e"])
    symfun.clear_caches()
    reduction.clear_memo()
