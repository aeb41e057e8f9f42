"""The per-process memo layer: functools.lru_cache builders, emptied by
groebner.clear_memo, reduction.clear_memo and symfun.clear_caches."""

import importlib
import pkgutil

import musym
from musym import groebner, reduction, symfun
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
    real = reduction.canonize

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(reduction, "canonize", counting)
    assert reduction.crgist(dplus(mu), mu).symmetric
    assert calls == []
    reduction.clear_memo()


def test_clear_functions_empty_every_memo():
    mu = Partition.of(2, 1)
    for algo in ("groebner", "cr", "ls"):
        compute_gist(dplus(mu), mu, "e", algo)
    compute_gist(dplus(mu), mu, "m", "cr")
    symfun.subdiscriminant(3, 1)
    memos = _memos()
    assert [name for name, fn in memos.items() if not fn.cache_info().currsize] == []
    groebner.clear_memo()
    reduction.clear_memo()
    symfun.clear_caches()
    assert [name for name, fn in memos.items() if fn.cache_info().currsize] == []
