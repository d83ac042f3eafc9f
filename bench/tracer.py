"""Per-layer tracing of crepant from outside the package.

The tracer wraps public functions and methods of ``crepant``'s modules in
spans.  A span records its name, its duration and the span that was open
when it started (its parent).  Spans are folded into per-name totals as they
close, because hot spans such as cyclotomic multiplication close millions of
times per pass and keeping each one would cost more memory than the run.

A span's self time is its duration minus the durations of its direct
children; children cover disjoint parts of the parent's interval because
there is one thread.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter, defaultdict

# (span name, module, attribute path) for every name the tracer wraps.  A
# function is also patched in every crepant module that bound it by name
# (``groups`` imports ``cyclo_div_exact``, ``toric`` imports
# ``smith_normal_form``), so calls through those bindings are traced too.
TARGETS = (
    ("exactmath.cycloint_mul", "exactmath", "CycloInt.__mul__"),
    ("exactmath.cycloint_mul", "exactmath", "CycloInt.__rmul__"),
    ("exactmath.cyclo_div_exact", "exactmath", "cyclo_div_exact"),
    ("exactmath.smith_normal_form", "exactmath", "smith_normal_form"),
    ("exactmath.intmat_det", "exactmath", "IntMat.det"),
    ("exactmath.lattice_index", "exactmath", "lattice_index"),
    ("groups.close_group", "groups", "close_group"),
    ("groups.element_mul", "groups", "GroupElement.mul"),
    ("groups.conjugacy_classes", "groups", "conjugacy_classes"),
    ("groups.centralizer", "groups", "centralizer"),
    ("groups.outer_action", "groups", "outer_action"),
    ("groups.compatible_class_filter", "groups", "compatible_class_filter"),
    ("toric.build_lattice_pair", "toric", "build_lattice_pair"),
    ("toric.base_points", "toric", "LatticePair.base_points"),
    ("toric.adjusted_triangulation", "toric", "adjusted_triangulation"),
    ("toric.verify_crepant", "toric", "verify_crepant"),
    ("toric.toric_lefschetz", "toric", "toric_lefschetz"),
    ("toric.orbit_records", "toric", "orbit_records"),
    ("toric.verify_adjusted", "toric", "verify_adjusted"),
    ("toric.fixed_counts", "toric", "count_fixed_elements"),
    ("toric.fixed_counts", "toric", "fixed_sublattice_index"),
    ("toric.symmetry_report", "toric", "symmetry_report"),
    ("toric.document", "toric", "triangulation_to_document"),
    ("toric.document", "toric", "triangulation_from_document"),
    ("orbifold.sheet_build", "orbifold", "quintic_sheet"),
    ("orbifold.sheet_build", "orbifold", "complete_intersection_sheet"),
    ("orbifold.sheet_build", "orbifold", "point_sheet"),
    ("orbifold.twisted_fixed_euler", "orbifold", "twisted_fixed_euler"),
    ("orbifold.evaluate", "orbifold", "orbifold_euler"),
    ("orbifold.evaluate", "orbifold", "equivariant_lefschetz"),
    ("orbifold.evaluate", "orbifold", "chain_check"),
    ("orbifold.evaluate", "orbifold", "identity_action_variant"),
    ("cli.main", "cli", "main"),
    ("cli.parse", "cli", "build_parser"),
    ("cli.parse", "cli", "parse_matrix"),
    ("cli.parse", "cli", "parse_permutation"),
    ("cli.parse", "cli", "parse_h_generator"),
    ("cli.emit_report", "cli", "emit_report"),
)

MODULES = ("exactmath", "groups", "toric", "orbifold", "fixtures", "cli")
LAYERS = ("exactmath", "groups", "toric", "orbifold", "cli")


# Spans that report a work size when they close; each call keeps one
# (tag, size, duration) sample and counts a truthy result by parent.
_SIZE_OF = {
    "groups.close_group": lambda result: result.order,
    "toric.verify_crepant": lambda result: result.simplex_count,
    "toric.orbit_records": len,
}


class Tracer:
    """Folds nested spans into per-name counts, self times and sizes.

    ``clock`` is injectable so that tests can drive the arithmetic with
    synthetic times.  ``tag`` names the benchmark item being run.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.tag = None
        self._stack: list[list] = []  # [name, start, child time]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.edges: Counter = Counter()  # (parent name, name) -> calls
        self.truthy_edges: Counter = Counter()  # same, sized spans with a truthy result
        self.sizes: Counter = Counter()
        self.samples: defaultdict = defaultdict(list)  # name -> [(tag, size, seconds)]

    def enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else None
        self.calls[name] += 1
        self.edges[(parent, name)] += 1
        self._stack.append([name, self.clock(), 0.0])

    def exit(self, result=None) -> None:
        name, start, child = self._stack.pop()
        duration = self.clock() - start
        self.self_s[name] += duration - child
        parent = None
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][0]
        size_of = _SIZE_OF.get(name)
        if size_of is not None and result is not None:
            if result:
                self.truthy_edges[(parent, name)] += 1
            size = size_of(result)
            self.sizes[name] += size
            self.samples[name].append((self.tag, size, duration))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.exit(result)

        return traced


_MISSING = object()


class Patches:
    """Installs a tracer's wrappers on crepant and removes them again.

    A target that the installed crepant does not define is recorded in
    ``absent`` and skipped, so the tracer keeps working when a later change
    removes or renames a public name.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> Patches:
        wrappers: dict[int, object] = {}
        for name, module_name, path in TARGETS:
            module = sys.modules.get(f"crepant.{module_name}")
            owner, attr = module, path
            if "." in path:
                cls_name, attr = path.split(".", 1)
                owner = getattr(module, cls_name, None)
            original = getattr(owner, attr, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapper = wrappers.setdefault(id(original), self.tracer.wrap(name, original))
            self._set(owner, attr, wrapper)
            if owner is module:
                for other, other_attr in self._bindings(original):
                    self._set(other, other_attr, wrapper)
        return self

    def _bindings(self, original):
        """(module, attribute) pairs of crepant modules bound to ``original``."""
        for mod_name in ["crepant"] + [f"crepant.{m}" for m in MODULES]:
            mod = sys.modules.get(mod_name)
            if mod is not None:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        yield mod, attr

    def _set(self, owner, attr, value) -> None:
        # Read the class __dict__, not getattr, so that an inherited method is
        # restored by deleting the override rather than by copying it down.
        previous = vars(owner).get(attr, _MISSING)
        self._undo.append((owner, attr, previous))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        for owner, attr, previous in reversed(self._undo):
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)
        self._undo.clear()

    def absent_spans(self) -> set[str]:
        """Span names none of whose targets could be installed."""
        installed = {name for name, m, p in TARGETS if f"{m}.{p}" not in self.absent}
        return {name for name, _, _ in TARGETS} - installed


def _slope(points) -> float | None:
    """Least-squares slope of log(seconds) on log(size), one point per size.

    Calls of equal size are reduced to their median first.  None when fewer
    than two distinct positive sizes were seen.
    """
    by_size = defaultdict(list)
    for size, seconds in points:
        if size > 0 and seconds > 0:
            by_size[size].append(seconds)
    if len(by_size) < 2:
        return None
    xs, ys = [], []
    for size, secs in by_size.items():
        secs.sort()
        xs.append(math.log(size))
        ys.append(math.log(secs[len(secs) // 2]))
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def _ratio(num, den) -> float | None:
    return num / den if den else None


# Spans whose call count and whose self time are reported as they are.
COUNTED = (
    "exactmath.cycloint_mul",
    "exactmath.cyclo_div_exact",
    "exactmath.smith_normal_form",
    "exactmath.intmat_det",
    "exactmath.lattice_index",
    "groups.close_group",
    "groups.element_mul",
    "groups.centralizer",
    "toric.adjusted_triangulation",
    "toric.verify_crepant",
    "orbifold.sheet_build",
    "orbifold.twisted_fixed_euler",
    "cli.main",
)
TIMED = tuple(s for s in COUNTED if s != "groups.element_mul") + (
    "groups.conjugacy_classes",
    "groups.outer_action",
    "groups.compatible_class_filter",
    "toric.build_lattice_pair",
    "toric.base_points",
    "toric.toric_lefschetz",
    "toric.verify_adjusted",
    "toric.fixed_counts",
    "toric.document",
    "orbifold.evaluate",
    "cli.parse",
    "cli.emit_report",
)
# Derived metrics and the spans they are computed from.
DERIVED = {
    "groups.close_group.elements": ("groups.close_group",),
    "groups.close_group.table_entries": ("groups.close_group",),
    "groups.close_group.new_per_product": ("groups.close_group", "groups.element_mul"),
    "groups.close_group.size_exponent": ("groups.close_group",),
    "toric.verify_crepant.simplices": ("toric.verify_crepant",),
    "toric.rotation.candidates": ("toric.adjusted_triangulation", "toric.verify_crepant"),
    "toric.rotation.accept_ratio": ("toric.adjusted_triangulation", "toric.verify_crepant"),
    "toric.invariant_faces": ("toric.orbit_records",),
    "toric.verify_crepant.size_exponent": ("toric.verify_crepant",),
}


def layer_metrics(tracer: Tracer, families: dict, traced_wall: float, untraced_wall: float,
                  absent_spans=frozenset()):
    """Per-layer metrics of one traced pass.

    ``families`` maps item tags to the size family they belong to:
    ``cyclic`` for the cyclic group sweep, ``zm2`` for the full Zm^2 family.
    Returns (metrics, absent): metrics maps each name to (value, unit).
    ``absent`` lists the metrics that have no value on this pass, because
    their spans could not be installed or a ratio or slope has no data;
    those read 0.
    """
    t = tracer
    rotation = ("toric.adjusted_triangulation", "toric.verify_crepant")

    def family_points(name, family):
        return [(s, d) for tag, s, d in t.samples[name] if families.get(tag) == family]

    values: dict = {}
    for span in COUNTED:
        values[f"{span}.calls"] = (t.calls[span], "count")
    for span in TIMED:
        values[f"{span}.self_s"] = (t.self_s[span], "s")
    values.update(
        {
            "groups.close_group.elements": (t.sizes["groups.close_group"], "count"),
            "groups.close_group.table_entries": (
                sum(s * s for _, s, _ in t.samples["groups.close_group"]),
                "count",
            ),
            "groups.close_group.new_per_product": (
                _ratio(t.sizes["groups.close_group"],
                       t.edges[("groups.close_group", "groups.element_mul")]),
                "ratio",
            ),
            "groups.close_group.size_exponent": (
                _slope(family_points("groups.close_group", "cyclic")),
                "1",
            ),
            "toric.verify_crepant.simplices": (t.sizes["toric.verify_crepant"], "count"),
            "toric.rotation.candidates": (t.edges[rotation], "count"),
            "toric.rotation.accept_ratio": (_ratio(t.truthy_edges[rotation], t.edges[rotation]), "ratio"),
            "toric.invariant_faces": (t.sizes["toric.orbit_records"], "count"),
            "toric.verify_crepant.size_exponent": (
                _slope(family_points("toric.verify_crepant", "zm2")),
                "1",
            ),
            "trace.overhead_ratio": (_ratio(traced_wall, untraced_wall), "ratio"),
        }
    )
    for layer in LAYERS:
        own = sum(v for k, v in t.self_s.items() if k.split(".", 1)[0] == layer)
        values[f"share.{layer}"] = (_ratio(own, traced_wall), "ratio")

    absent = set()
    for name, (value, _) in values.items():
        spans = DERIVED.get(name, (name.rsplit(".", 1)[0],))
        if value is None or absent_spans.intersection(spans):
            absent.add(name)
    metrics = {
        k: (0 if k in absent else v, unit) for k, (v, unit) in values.items()
    }
    return metrics, sorted(absent)
