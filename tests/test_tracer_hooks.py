"""The benchmark's span tracer patches library names from outside: each must
still exist where the tracer looks for it, and ``uninstall`` must put every
original back."""

import pathlib

import modfault.analyzer
import modfault.cli
import modfault.executor
import modfault.rewriter

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"

HOOKS = (
    (modfault.analyzer, "inline"),
    (modfault.rewriter, "strip_protection"),
    (modfault.executor, "strip_protection"),
    (modfault.rewriter.Rewriter, "decide_check"),
    (modfault.cli, "render"),
)


def test_tracer_patches_and_restores_its_hooks(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    originals = [getattr(owner, attr) for owner, attr in HOOKS]
    tracer = Tracer()
    tracer.install()
    try:
        for (owner, attr), original in zip(HOOKS, originals):
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    for (owner, attr), original in zip(HOOKS, originals):
        assert getattr(owner, attr) is original, attr
