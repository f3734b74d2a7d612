"""Compile generated kernel functions on first call.

The accelerator's codegen kernels (:mod:`repro.accel.codegen`), the
only user of this module, emit one Python function per message type
reachable from a root.  A message usually reaches only
some of those types, so compiling the whole graph up front spends most
of its time on code that never runs.  :func:`install` compiles only the
functions callers hold references to; every other function starts as a
:class:`Stub` that compiles its own source into the shared namespace on
its first call, replacing itself there.  The generated functions call
each other by global name, so once a type has been reached its calls
no longer pass through the stub.

The source compiled is the source generated, whenever it is compiled,
so laziness changes host time only.
"""

from __future__ import annotations

from typing import Iterable


class Stub:
    """Stand-in for a generated function whose source is not compiled
    yet.  The first call compiles the source into ``namespace`` (which
    rebinds ``name`` to the real function) and forwards the call."""

    __slots__ = ("name", "source", "namespace", "filename")

    def __init__(self, name: str, source: str, namespace: dict,
                 filename: str):
        self.name = name
        self.source = source
        self.namespace = namespace
        self.filename = filename

    def __call__(self, *args):
        exec(compile(self.source, self.filename, "exec"), self.namespace)
        return self.namespace[self.name](*args)


def install(chunks: Iterable[tuple[str, str]], namespace: dict,
            filename: str, eager: Iterable[str]) -> dict:
    """Install generated functions into ``namespace``.

    ``chunks`` is ``(name, source)`` per function, each source defining
    exactly ``name``.  Functions named in ``eager`` are compiled now;
    each other one becomes a :class:`Stub`.  Returns ``namespace``.
    """
    eager = frozenset(eager)
    for name, source in chunks:
        if name in eager:
            exec(compile(source, filename, "exec"), namespace)
        else:
            namespace[name] = Stub(name, source, namespace, filename)
    return namespace
