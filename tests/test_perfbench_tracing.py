"""The benchmark's tracer must find every function it names in ``lra``.

``perfbench/tracing.py`` patches functions by module and name: the timed
spans in ``SPANS`` and the counted generator ``CANDIDATES``.  A renamed or
moved function would crash the traced benchmark run, so this guard loads the
tracer by path and checks that every one of them is patched and restored.
"""

import importlib
import importlib.util
import pathlib
import pkgutil
import sys

import lra

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("lra_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _holder(module, owner):
    holder = sys.modules[module]
    return holder if owner is None else getattr(holder, owner)


def _import_lra():
    for info in pkgutil.iter_modules(lra.__path__):
        if info.name != "__main__":
            importlib.import_module("lra." + info.name)


def test_every_traced_name_is_patched():
    _import_lra()
    tracing = _load_tracing()
    names = tracing.SPANS + [tracing.CANDIDATES]
    targets = [(_holder(module, owner), attr) for _, module, owner, attr in names]
    originals = [vars(holder)[attr] for holder, attr in targets]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = [vars(holder)[attr] is not original for (holder, attr), original in zip(targets, originals)]
    finally:
        tracer.uninstall()
    missing = [name[0] for name, ok in zip(names, patched) if not ok]
    assert not missing
    assert [vars(holder)[attr] for holder, attr in targets] == originals


def test_traced_methods_are_patched_on_their_owner_only():
    """Every binding of a traced function is patched, so a method that lived
    in a base class shared by two classes would count both under one span."""
    _import_lra()
    tracing = _load_tracing()
    owners = {
        vars(_holder(module, owner))[attr]: _holder(module, owner)
        for _, module, owner, attr in tracing.SPANS + [tracing.CANDIDATES]
        if owner is not None
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = [(holder, original) for holder, _, original in tracer._patches if isinstance(holder, type)]
    finally:
        tracer.uninstall()
    assert all(holder is owners.get(original) for holder, original in patched)
    assert {holder.__name__ for holder, _ in patched} == {"MPoly", "AlgebraPres", "Derivation"}
