"""Pass-through timing spans around the library's public functions.

``Tracer.install`` replaces each listed function, in every loaded module
namespace that binds it, by a wrapper that records one span per call:
(function, start, end, parent span, item).  Spans stay in memory until
``uninstall``; ``layer_metrics`` then reports per function the call count
and the self time, i.e. the span's duration minus its child spans.
Nothing under ``src/`` is modified: the wrappers live here and are
installed only for the traced pass.
"""

import functools
import sys
import time

# module -> public functions timed in the traced run
TRACED = {
    "polyhedron": ("dihedral_angles", "face_planes", "planarity_residuals",
                   "convexity_margins", "validate_embedding"),
    "lorentz": ("plane_through", "sl2c_lift"),
    "rigidity": ("constraint_jacobian", "angle_jacobian", "tangent_space",
                 "isometry_directions", "rigidity_report"),
    "deform": ("realize_angles", "gauge_fix"),
    "repvar": ("meridian_holonomy", "link_representation", "irreducibility_check",
               "surface_group_fixture", "cocycle_space", "coboundary_space",
               "cohomology_basis", "cocycle_extend", "trace_rank"),
    "formats": ("load_polyhedron", "to_json"),
    "cli": ("main",),
}


class Tracer:
    def __init__(self):
        self.names = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
        self.spans = []        # (name index, start, end, parent index or -1, item)
        self.item = None       # label of the item being run, set by the caller
        self._stack = []
        self._swapped = []     # (namespace, attribute, original, wrapper)

    def _wrap(self, name_index, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_index, start, end, parent, self.item)

        return timed

    def install(self):
        """Wrap every listed function wherever a module binds it."""
        wrappers = {}
        for k, name in enumerate(self.names):
            mod, fn = name.split(".")
            original = getattr(sys.modules["stokerlab." + mod], fn)
            wrappers[id(original)] = self._wrap(k, original)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    namespace[attr] = wrapper
                    self._swapped.append((namespace, attr, value, wrapper))

    def uninstall(self):
        for namespace, attr, original, wrapper in self._swapped:
            if namespace.get(attr) is wrapper:
                namespace[attr] = original
        self._swapped.clear()

    def layer_metrics(self):
        """``<module>.<function>.calls`` and ``.self_s`` for every listed name."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for name_index, start, end, parent, _ in self.spans:
            calls[name_index] += 1
            self_s[name_index] += end - start
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        metrics = {}
        for k, name in enumerate(self.names):
            metrics[f"{name}.calls"] = (calls[k], "count")
            metrics[f"{name}.self_s"] = (self_s[k], "s")
        return metrics
