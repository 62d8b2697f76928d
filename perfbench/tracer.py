"""Span recorder for the traced run.

The tracer wraps each layer's public entry points from outside the package,
at every module (or class) that binds them, so that nothing in `src/`
changes.  A span is (name, start, end, parent); parent is the index of the
enclosing span or -1.  The benchmark runs every op as a root span named
`op`, so the spans of one op share that root as their identifier.  Spans
stay in memory until `summary()` reduces them.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

# (span name, defining module, attribute path) for each layer's entry points.
# An entry point missing from the code under test is skipped; its metrics
# then read 0.
ENTRY_POINTS = (
    ("ring.parse", "pin2k.ring", "parse"),
    ("ring.mul", "pin2k.ring", "RingElem.__mul__"),
    ("lattice.add", "pin2k.lattice", "IntLattice.add"),
    ("ideals.complete", "pin2k.ideals", "ideal_from_generators"),
    ("ideals.contains", "pin2k.ideals", "IdealForm.contains"),
    ("ideals.zw_exponent", "pin2k.ideals", "IdealForm.zw_exponent"),
    ("ideals.nilpotence_exponent", "pin2k.ideals", "IdealForm.nilpotence_exponent"),
    ("ideals.k_invariant", "pin2k.ideals", "IdealForm.k_invariant"),
    ("ideals.is_kg_split", "pin2k.ideals", "IdealForm.is_kg_split"),
    ("spectra.brieskorn_class", "pin2k.spectra", "brieskorn_class"),
    ("spectra.dual", "pin2k.spectra", "SpectrumClass.dual"),
    ("spectra.ideal_of", "pin2k.spectra", "ideal_of"),
    ("bounds.xi_bounds", "pin2k.bounds", "xi_bounds"),
    ("bounds.emit_xi_table", "pin2k.bounds", "emit_xi_table"),
    ("bounds.bauer_chain_check", "pin2k.bounds", "bauer_chain_check"),
    ("cli.main", "pin2k.cli", "main"),
)


class Tracer:
    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._undo = []

    def wrap(self, name, fn):
        """fn, recording one span named `name` per call."""
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return traced

    def install(self):
        """Replace every binding of each entry point in the loaded pin2k modules."""
        modules = [m for n, m in list(sys.modules.items()) if n == "pin2k" or n.startswith("pin2k.")]
        for name, module_name, path in ENTRY_POINTS:
            owner = sys.modules.get(module_name)
            owner_path, _, attr = path.rpartition(".")
            for part in owner_path.split(".") if owner_path else ():
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            traced = self.wrap(name, original)
            for target in [owner] if owner_path else modules:
                for key, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, key, traced)
                        self._undo.append((target, key, original))

    def uninstall(self):
        while self._undo:
            target, key, original = self._undo.pop()
            setattr(target, key, original)

    def summary(self):
        """name -> [calls, self seconds] over all recorded spans."""
        n = len(self.start)
        durations = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += durations[i]
        stats = {}
        for i in range(n):
            entry = stats.setdefault(self.names[self.name_id[i]], [0, 0.0])
            entry[0] += 1
            entry[1] += durations[i] - child[i]
        return stats
