"""Per-layer spans and counters, installed by the benchmark from outside.

``Tracer.install`` replaces each listed library callable with a wrapper
that records a span (name, start, end, parent span, op id) while the tracer
is active.  A callable is replaced in every ``simposets`` namespace that
holds it, because modules bind each other's functions with
``from ... import`` (``random_model`` holds ``theta_glue``, ``cli`` holds
``run_batch`` and the ideal functions); methods are replaced on their
class.  ``Tracer.uninstall`` puts the originals back.

Spans stay in memory until ``write``.  A span's self time is its duration
minus the durations of its direct children; calls nest, so children never
overlap each other.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# span name -> (targets as "module:attr" or "module:Class.attr",
#               workloads on which the span must fire)
SPANS = {
    "cli.run": (("cli:run",), ("batch",)),
    "random_model.run_batch": (("random_model:run_batch",), ("batch",)),
    "random_model.rand_simplicial_poset": (("random_model:rand_simplicial_poset",), ("batch", "dense")),
    "random_model.erdos_renyi_graph": (("random_model:erdos_renyi_graph",), ("batch", "dense")),
    "complexes.clique_complex": (("complexes:clique_complex",), ("batch", "dense")),
    "complexes.make_complex": (("complexes:make_complex",), ("batch", "dense", "ideal", "roundtrip")),
    "complexes.face_poset": (("complexes:SimplicialComplex.face_poset",), ("batch", "dense", "roundtrip")),
    "complexes.minimal_nonfaces": (("complexes:SimplicialComplex.minimal_nonfaces",), ("ideal",)),
    "gluing.theta_glue": (("gluing:theta_glue",), ("batch", "dense", "roundtrip")),
    "gluing.separation": (("gluing:separation",), ("batch", "dense", "roundtrip")),
    "gluing.fiber_relation": (("gluing:fiber_relation",), ("roundtrip",)),
    "gluing.validate_gluing": (("gluing:validate_gluing",), ("batch", "dense", "roundtrip")),
    "gluing.quotient_by_gluing": (("gluing:quotient_by_gluing",), ("batch", "dense", "roundtrip")),
    "gluing.reconstruct_theta_pair": (("gluing:reconstruct_theta_pair",), ("roundtrip",)),
    "gluing.meet_poset": (("gluing:meet_poset",), ("roundtrip",)),
    "gluing.atom_family": (("gluing:atom_family",), ("roundtrip",)),
    "poset.from_json": (("poset:Poset.from_json",), ("ideal", "roundtrip")),
    "poset.is_simplicial": (("poset:Poset.is_simplicial",), ("batch", "dense", "ideal", "roundtrip")),
    "poset.is_face_poset": (("poset:Poset.is_face_poset",), ("batch", "dense", "ideal", "roundtrip")),
    "poset.quotient": (("poset:Poset.quotient",), ("batch", "dense", "roundtrip")),
    "poset.restrict": (("poset:Poset.restrict",), ("roundtrip",)),
    "poset.meet": (("poset:Poset.meet",), ("ideal",)),
    "poset.minimal_upper_bounds": (("poset:Poset.minimal_upper_bounds",), ("ideal",)),
    "poset.find_isomorphism": (("poset:find_isomorphism",), ("roundtrip",)),
    "ideal.stanley_poset_ideal": (("ideal:stanley_poset_ideal",), ("ideal",)),
    "ideal.reduce_face_poset_ideal": (("ideal:reduce_face_poset_ideal",), ("ideal",)),
    "ideal.stanley_reisner_ideal": (("ideal:stanley_reisner_ideal",), ("ideal",)),
    "ideal.render_lines": (
        ("ideal:IdealPresentation.render_lines", "ideal:MonomialIdeal.render_lines"),
        ("ideal",),
    ),
}

# Counters: name -> unit.  Ratios are hits over calls of the named span.
COUNTERS = {
    "labels.constructed": "count",
    "gluing.validate_gluing.violations": "count",
    "gluing.validate_gluing.ok_ratio": "ratio",
    "gluing.quotient_by_gluing.classes": "count",
    "poset.quotient.elements_in": "count",
    "poset.quotient.elements_out": "count",
    "poset.is_face_poset.true_ratio": "ratio",
    "poset.find_isomorphism.found_ratio": "ratio",
    "ideal.stanley_poset_ideal.generators": "count",
}


def _count_validate_gluing(c, args, out):
    c["gluing.validate_gluing.violations"] += len(out.violations)
    c["gluing.validate_gluing.ok"] += out.ok


def _count_quotient_by_gluing(c, args, out):
    c["gluing.quotient_by_gluing.classes"] += len(args[0].classes)


def _count_quotient(c, args, out):
    c["poset.quotient.elements_in"] += len(args[0])
    c["poset.quotient.elements_out"] += len(out)


def _count_is_face_poset(c, args, out):
    c["poset.is_face_poset.true"] += out


def _count_find_isomorphism(c, args, out):
    c["poset.find_isomorphism.found"] += out is not None


def _count_stanley_poset_ideal(c, args, out):
    c["ideal.stanley_poset_ideal.generators"] += len(out.generators)


_COUNT_HOOKS = {
    "gluing.validate_gluing": _count_validate_gluing,
    "gluing.quotient_by_gluing": _count_quotient_by_gluing,
    "poset.quotient": _count_quotient,
    "poset.is_face_poset": _count_is_face_poset,
    "poset.find_isomorphism": _count_find_isomorphism,
    "ideal.stanley_poset_ideal": _count_stanley_poset_ideal,
}

_RATIOS = {
    "gluing.validate_gluing.ok_ratio": ("gluing.validate_gluing.ok", "gluing.validate_gluing"),
    "poset.is_face_poset.true_ratio": ("poset.is_face_poset.true", "poset.is_face_poset"),
    "poset.find_isomorphism.found_ratio": ("poset.find_isomorphism.found", "poset.find_isomorphism"),
}


def per_layer_names():
    """Every per-layer metric the traced run reports, with its unit."""
    names = {}
    for span in SPANS:
        names[f"{span}.calls"] = "count"
        names[f"{span}.self_s"] = "s"
    names.update(COUNTERS)
    return names


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1
        self.spans = []  # [name, start, end, parent index, op id]
        self._stack = []
        self._counts = dict.fromkeys([*COUNTERS, *SPANS, *(hits for hits, _ in _RATIOS.values())], 0)
        self._patched = []  # (owner, attribute, original)

    # ----- installing ----------------------------------------------------

    def install(self):
        modules = [m for name, m in list(sys.modules.items()) if name == "simposets" or name.startswith("simposets.")]
        for span, (targets, _) in SPANS.items():
            for target in targets:
                module_name, attr = target.split(":")
                module = sys.modules[f"simposets.{module_name}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    self._patch_method(getattr(module, cls_name), meth, span)
                else:
                    original = getattr(module, attr)
                    wrapped = self._wrap(span, original)
                    for m in modules:
                        for key, value in list(vars(m).items()):
                            if value is original:
                                self._set(m, key, wrapped)
        labels = sys.modules["simposets.labels"].Label
        self._patch_label_init(labels)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_method(self, cls, meth, span):
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            self._set(cls, meth, classmethod(self._wrap(span, raw.__func__)))
        else:
            self._set(cls, meth, self._wrap(span, raw))

    def _patch_label_init(self, label_cls):
        original = label_cls.__init__
        counts = self._counts
        tracer = self

        @functools.wraps(original)
        def counted_init(obj, *args):
            if tracer.active:
                counts["labels.constructed"] += 1
            original(obj, *args)

        self._set(label_cls, "__init__", counted_init)

    def _wrap(self, span, fn):
        spans, stack, counts = self.spans, self._stack, self._counts
        hook = _COUNT_HOOKS.get(span)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([span, perf_counter(), 0.0, stack[-1] if stack else -1, tracer.op])
            stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter()
            counts[span] += 1
            if hook is not None:
                hook(counts, args, out)
            return out

        return traced

    # ----- reading out ---------------------------------------------------

    def metrics(self, factors):
        """Per-layer metric values: span calls and self time, counters.
        Self times are rescaled by ``factors[op]``, the machine-speed factor
        of the span's op."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = dict.fromkeys(SPANS, 0.0)
        for (name, start, end, _, op), covered in zip(self.spans, child):
            self_s[name] += (end - start - covered) * factors[op]
        out = {}
        for span in SPANS:
            out[f"{span}.calls"] = self._counts[span]
            out[f"{span}.self_s"] = self_s[span]
        for name in COUNTERS:
            if name in _RATIOS:
                hits, calls = _RATIOS[name]
                out[name] = self._counts[hits] / self._counts[calls] if self._counts[calls] else 0.0
            else:
                out[name] = self._counts[name]
        return out

    def write(self, path):
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")
