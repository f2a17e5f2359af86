"""Spans around the public functions of each stratakit layer.

The tracer wraps every public module-level function of the layers below and
patches the wrapper in under every name that holds the original, so a
function imported by name elsewhere (`build_algebra` in `parser` and
`tilting`, `hom_basis` in `homology`, `strat` and `tilting`) is traced on
both paths.  Nothing in the program changes; `remove` puts the originals
back.  `fields` has no span: scalar cost shows up as self time of its
callers.
"""

import functools
import importlib
import sys
import time
import types
from collections import Counter

LAYERS = ("quiver", "linalg", "reps", "homology", "strat", "tilting", "borel",
          "parser", "cli")


def _rref(tr, args, result, outer):
    m = args[0]
    tr.counts["linalg.rref.cells"] += m.rows * m.cols


def _hom_basis(tr, args, result, outer):
    m, n = args[0], args[1]
    tr.counts["reps.hom_basis.unknowns"] += sum(
        a * b for a, b in zip(m.dims, n.dims))


def _build_algebra(tr, args, result, outer):
    tr.counts["quiver.basis_dim"] += result.dim


def _decompose(tr, args, result, outer):
    if outer:           # recursive calls return parts of the outer answer
        tr.counts["reps.summands"] += len(result)


def _find_isomorphism(tr, args, result, outer):
    tr.counts["reps.iso_found"] += result is not None


def _filtration_certificate(tr, args, result, outer):
    tr.counts["strat.certificates_found"] += result is not None


def _min_proj_resolution(tr, args, result, outer):
    # resolutions are memoized and grown in place; count terms once per op
    tr.resolutions[id(result)] = result


HOOKS = {"linalg.rref": _rref, "reps.hom_basis": _hom_basis,
         "quiver.build_algebra": _build_algebra,
         "reps.decompose_with_inclusions": _decompose,
         "reps.find_isomorphism": _find_isomorphism,
         "strat.filtration_certificate": _filtration_certificate,
         "homology.min_proj_resolution": _min_proj_resolution}


class Tracer:
    """Records (name, start, end, parent span, op id) for each traced call."""

    def __init__(self):
        self.names = []              # span name by name id
        self.spans = []              # (name id, start, end, parent, op, nested)
        self.counts = Counter()      # work counted from arguments and results
        self.resolutions = {}
        self.op = 0                  # index of the running operation
        self._stack = [-1]
        self._open = Counter()       # open spans per name id
        self._patches = []

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        spans, stack, open_ = self.spans, self._stack, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            idx = len(spans)
            # zero length until the call returns, so an interrupted call
            # still leaves a well-formed span
            head = (nid, start, start, stack[-1], self.op, open_[nid] > 0)
            spans.append(head)
            stack.append(idx)
            open_[nid] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = head[:2] + (clock(),) + head[3:]
                stack.pop()
                open_[nid] -= 1
            if hook is not None:
                hook(self, args, result, not head[5])
            return result
        return traced

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module("stratakit." + layer)
            for attr, fn in vars(mod).items():
                if (isinstance(fn, types.FunctionType) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "stratakit" and not modname.startswith("stratakit."):
                continue
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def remove(self):
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    def end_op(self):
        self.counts["homology.resolution_terms"] += sum(
            len(r.terms) for r in self.resolutions.values())
        self.resolutions.clear()
        # a time-limit exception can leave a span half closed
        del self._stack[1:]
        self._open.clear()

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self.resolutions.clear()

    def summary(self, speed):
        """Per-layer metrics of the spans recorded since the last reset.

        speed[op] scales the durations of operation op's spans to the
        reference host speed, as the worker scales operation times.
        """
        n = len(self.names)
        calls, incl = [0] * n, [0.0] * n
        dur = [(end - start) * speed[op] for _, start, end, _, op, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, (nid, _, _, parent, _, nested) in enumerate(self.spans):
            calls[nid] += 1
            if not nested:          # recursion: count the outermost call only
                incl[nid] += dur[i]
            if parent >= 0:
                child[parent] += dur[i]
        layer_of = [name.split(".", 1)[0] for name in self.names]
        self_s = dict.fromkeys(LAYERS, 0.0)
        for i, (nid, _, _, _, _, _) in enumerate(self.spans):
            self_s[layer_of[nid]] += dur[i] - child[i]
        out = {}
        for nid, name in enumerate(self.names):
            out[name + ".calls"] = calls[nid]
            out[name + ".s"] = incl[nid]
        for layer, s in self_s.items():
            out[layer + ".self_s"] = s
        c = self.counts
        for key in ("linalg.rref.cells", "reps.hom_basis.unknowns",
                    "quiver.basis_dim", "homology.resolution_terms"):
            out[key] = c[key]
        out["reps.summands_per_minpoly"] = _ratio(
            c["reps.summands"], out["reps.minimal_polynomial.calls"])
        out["reps.iso_found_ratio"] = _ratio(
            c["reps.iso_found"], out["reps.find_isomorphism.calls"])
        out["strat.certificate_found_ratio"] = _ratio(
            c["strat.certificates_found"], out["strat.filtration_certificate.calls"])
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for nid, start, end, parent, op, _ in self.spans:
                fh.write(f"{self.names[nid]}\t{start:.6f}\t{end:.6f}\t{parent}\t{op}\n")


def _ratio(num, den):
    return num / den if den else 0.0
