"""Per-layer spans recorded around the public functions of each module.

`Tracer.install()` replaces every binding of a traced function in every
loaded ``sectormeans`` module with a wrapper, so calls between modules
(``from .linalg import inverse``) are seen too, and `uninstall()` puts the
originals back. Each thread keeps its own span stack: the runner evaluates
trials on a thread pool, and a span's self time is its duration minus the
time of the spans it opened on the same thread.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict

# (module, public function, whether its call count is reported); the self
# time of each is reported
TRACED = (
    ("norms", "numerical_radius", True),
    ("norms", "ui_norm", True),
    ("means", "principal_power_quad", True),
    ("means", "principal_power_eigen", True),
    ("means", "geometric_mean", True),
    ("means", "geometric_mean_integral", True),
    ("means", "harmonic_mean", True),
    ("quadrature", "quadrature_rule", True),
    ("runner", "sample_instance", True),
    ("runner", "run_check", False),
    ("sectors", "is_accretive", True),
    ("sectors", "in_sector", True),
    ("sectors", "sector_angle", True),
    ("linalg", "as_matrix", True),
    ("linalg", "inverse", True),
    ("maps", "random_map", False),
    ("maps", "apply_map", False),
    ("matrixio", "parse_matrix", False),
    ("matrixio", "dumps_matrix", False),
    ("cli", "main", False),
)


class Tracer:
    def __init__(self, refine_nodes: int):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict] = []
        self._patched: list[tuple[object, str, object]] = []
        self.refine_nodes = refine_nodes

    # -- recording ---------------------------------------------------------

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            table = defaultdict(lambda: [0, 0.0, 0.0])  # calls, self_s, total_s
            st = self._local.st = ([], table)
            with self._lock:
                self._tables.append(table)
        return st

    def span(self, name: str, fn):
        def traced(*args, **kwargs):
            stack, table = self._state()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                row = table[name]
                row[0] += 1
                row[1] += elapsed - children
                row[2] += elapsed

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str) -> None:
        self._state()[1][name][0] += 1

    def totals(self) -> dict[str, list]:
        merged: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        with self._lock:
            for table in self._tables:
                for name, row in table.items():
                    acc = merged[name]
                    for i, v in enumerate(row):
                        acc[i] += v
        return merged

    # -- patching ----------------------------------------------------------

    def install(self, checks) -> None:
        originals = {}
        for mod_name, fn_name, _ in TRACED:
            fn = getattr(sys.modules[f"sectormeans.{mod_name}"], fn_name)
            originals[id(fn)] = (fn, f"{mod_name}.{fn_name}")
        wrappers = {key: self.span(name, fn) for key, (fn, name) in originals.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "sectormeans" or mod_name.startswith("sectormeans.")):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and value is originals[id(value)][0]:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])
        for check in checks:
            self._patched.append((check, "evaluate", check.evaluate))
            object.__setattr__(check, "evaluate", self._evaluate_span(check))

    def _evaluate_span(self, check):
        inner = self.span(f"checks.{check.id}", check.evaluate)

        def evaluate(inst, ctx, flip):
            if ctx.nodes == self.refine_nodes:
                self.count("runner.refine")
            return inner(inst, ctx, flip)

        return evaluate

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            if attr == "evaluate":
                object.__setattr__(owner, attr, value)
            else:
                setattr(owner, attr, value)
        self._patched.clear()
