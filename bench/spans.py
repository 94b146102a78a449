"""Span tracing from outside the package.

Each traced function is wrapped, and the wrapper is bound in place of the
original under every name a boxgamma module looks it up by, so calls between
modules and within a module both pass through it while the package sources
stay untouched.  Spans are kept in memory; a layer's self time is its span's
duration minus the durations of its direct child spans.
"""

import functools
import sys
from collections import Counter
from time import perf_counter

# (module, function) pairs; the layer names are the package's module names
TARGETS = (
    ("fan", "validate"),
    ("fan", "triangulate_from_heights"),
    ("box", "box_of_fan"),
    ("box", "stabilize"),
    ("box", "correspondence_at"),
    ("box", "collisions"),
    ("quotient", "build_quotient"),
    ("quotient", "graded_piece"),
    ("kring", "spectrum"),
    ("kring", "wall_report"),
    ("gkz", "build_gkz"),
    ("gkz", "enumerate_L"),
    ("gkz", "verify_term_shift"),
    ("gkz", "reciprocal_gamma_jet"),
    ("gkz", "gamma_series"),
    ("gkz", "gamma_series_derivative"),
    ("gkz", "solution_system"),
    ("gkz", "verify_euler"),
    ("linalg", "smith_normal_form"),
    ("linalg", "solve_simplicial_coords"),
    ("linalg", "mat_inverse"),
    ("linalg", "integer_kernel_basis"),
    ("linalg", "solve_integer"),
    ("linalg", "singular_values"),
    ("cli", "emit_json"),
)

OP = "op"


class Tracer:
    """Records spans while installed; one root span per op."""

    def __init__(self):
        self.spans = []  # (id, parent, op, name, start, end) for kept ops
        self.keep = False
        self.calls = Counter()
        self.self_s = Counter()
        self.extra = Counter()  # vectors, dim_sum, distinct_keys
        self._stack = []
        self._next_id = 0
        self._op = 0
        self._op_self = 0.0
        self._jet_keys = set()
        self._bindings = []
        packages = [m for n, m in sys.modules.items() if n == "boxgamma" or n.startswith("boxgamma.")]
        for mod_name, fn_name in TARGETS:
            orig = getattr(sys.modules.get(f"boxgamma.{mod_name}"), fn_name, None)
            if orig is None:
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
            for mod in packages:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._bindings.append((mod, attr, orig, wrapper))

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            tracer._count(name, args, kwargs, result)
            return result

        return wrapper

    def _open(self, name):
        parent = self._stack[-1][1] if self._stack else None
        frame = [name, self._next_id, parent, perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame):
        end = perf_counter()
        self._stack.pop()
        name, span_id, parent, start, child = frame
        dur = end - start
        if self._stack:
            self._stack[-1][4] += dur
        self.calls[name] += 1
        self.self_s[name] += dur - child
        self._op_self += dur - child
        if self.keep:
            self.spans.append((span_id, parent, self._op, name, start, end))
        return dur

    def _count(self, name, args, kwargs, result):
        if name == "gkz.enumerate_L":
            self.extra["gkz.enumerate_L.vectors"] += len(result)
        elif name == "quotient.build_quotient":
            self.extra["quotient.build_quotient.dim_sum"] += result.dim
        elif name == "gkz.reciprocal_gamma_jet":
            self._jet_keys.add(repr((args, sorted(kwargs.items()))))

    def run_op(self, fn, *args):
        """Run fn(*args) as one traced op; returns (seconds, self-time sum, result).

        Installs the wrappers for the op only, so nothing else is traced.
        """
        self._op += 1
        self._op_self = 0.0
        self._jet_keys = set()
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)
        frame = self._open(OP)
        try:
            result = fn(*args)
        finally:
            dur = self._close(frame)
            for mod, attr, orig, _ in self._bindings:
                setattr(mod, attr, orig)
            self.extra["gkz.reciprocal_gamma_jet.distinct_keys"] += len(self._jet_keys)
        return dur, self._op_self, result

    def snapshot(self):
        """Copies of the running totals, to difference per cycle."""
        return Counter(self.calls), Counter(self.self_s), Counter(self.extra)
