"""In-memory spans around calls into percmoments' public functions.

The tracer wraps functions from the benchmark's side only: it replaces the
module attributes that refer to a public function with a timing wrapper and
puts the originals back on exit.  No package file is touched.  Every
percmoments module that bound the function (``from .x import f``) is
patched too, so calls between modules are seen as well as the benchmark's
own calls.  Functions are discovered from each module's ``__all__`` at the
commit under test; a layer metric whose function is missing is reported as
absent rather than failing the run.

Work that a public function hands to pool threads runs outside any public
span, so the worker bodies listed in ``_WORKER_BODIES`` are wrapped too,
when they exist: a pool thread running untraced kernel code is then inside
a span of its own, under the call that started the pool, instead of
leaving its time to whatever span the other thread has open.

A span's self time is the wall time during which it is a leaf: open, with
no open child.  When several leaves are open at once (worker threads), each
instant is split equally between them.  On one thread this is the span's
duration minus the time its children cover, and on any number of threads
the self times of all spans under a root add up to the root's duration.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import pkgutil
import sys
import threading
import time
from dataclasses import dataclass

PACKAGE = "percmoments"

# Public methods to wrap besides module-level functions: (module, class, method).
_METHODS = (
    ("stats", "RunningMoments", "merge"),
    ("oracle", "MomentPolynomial", "evaluate"),
)

# Private functions that pool threads run: (module, function).  Wrapped only
# in their own module, where the pool looks them up.
_WORKER_BODIES = (("montecarlo", "_block_stats"),)


def _rng_draws(args: inspect.BoundArguments) -> int:
    a = args.arguments
    if "n_streams" in a:
        return int(a["n_streams"]) * int(a["n_draws"])
    return int(a.get("count", 0))


def _oracle_configs(args: inspect.BoundArguments) -> int:
    graph = args.arguments.get("graph")
    return 1 << graph.n_edges if graph is not None else 0


# Work counted per call (uniforms drawn, configurations enumerated), keyed by
# span name; computed from the arguments, not measured.
_COUNTERS = {
    "rng.uniform_matrix": _rng_draws,
    "rng.stream_uniforms": _rng_draws,
    "oracle.moment_polynomial": _oracle_configs,
    "oracle.exact_moments": _oracle_configs,
    "oracle.connectivity_moments": _oracle_configs,
    "oracle.pair_connectivity": _oracle_configs,
    "oracle.vertex_isolation_counts": _oracle_configs,
}


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for a root
    start: float
    end: float = 0.0
    count: int = 0


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.wrapped: set[str] = set()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, count: int = 0) -> tuple[list[int], int]:
        stack = self._stack()
        with self._lock:
            if stack:
                parent = stack[-1]
            else:
                # A pool thread inherits the main thread's open span, which
                # is the call that started the pool.
                parent = self._main_stack[-1] if self._main_stack else -1
            index = len(self.spans)
            self.spans.append(Span(name, parent, time.perf_counter(), count=count))
            stack.append(index)
        return stack, index

    def _close(self, stack: list[int], index: int) -> None:
        with self._lock:
            self.spans[index].end = time.perf_counter()
            stack.pop()

    @contextlib.contextmanager
    def root(self, name: str):
        """Root span around a block of benchmark code; yields its index."""
        stack, index = self._open(name)
        try:
            yield index
        finally:
            self._close(stack, index)

    # -- installing --------------------------------------------------------

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count = counter(signature.bind(*args, **kwargs)) if counter else 0
            stack, index = tracer._open(name, count)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(stack, index)

        return wrapper

    def _modules(self) -> list:
        pkg = importlib.import_module(PACKAGE)
        names = [f"{PACKAGE}.{m.name}" for m in pkgutil.iter_modules(pkg.__path__)
                 if not m.name.startswith("_")]  # never import a __main__
        return [pkg] + [importlib.import_module(n) for n in sorted(names)]

    def __enter__(self) -> "Tracer":
        modules = self._modules()
        prefix = PACKAGE + "."
        replacements: dict[int, object] = {}
        for mod in modules[1:]:
            short = mod.__name__[len(prefix):]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    name = f"{short}.{attr}"
                    replacements[id(fn)] = self._wrap(name, fn)
                    self.wrapped.add(name)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        for short, cls_name, method in _METHODS:
            cls = getattr(sys.modules.get(prefix + short), cls_name, None)
            fn = vars(cls).get(method) if cls is not None else None
            if inspect.isfunction(fn):
                name = f"{short}.{cls_name}.{method}"
                self._patches.append((cls, method, fn))
                setattr(cls, method, self._wrap(name, fn))
                self.wrapped.add(name)
        for short, fn_name in _WORKER_BODIES:
            mod = sys.modules.get(prefix + short)
            fn = getattr(mod, fn_name, None)
            if inspect.isfunction(fn):
                name = f"{short}.{fn_name}"
                self._patches.append((mod, fn_name, fn))
                setattr(mod, fn_name, self._wrap(name, fn))
                self.wrapped.add(name)
        return self

    def __exit__(self, *exc) -> bool:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span, by a sweep over span boundaries."""
        spans = self.spans
        events = []
        for i, s in enumerate(spans):
            events.append((s.start, 1, i))
            events.append((s.end, 0, -i))  # at a tie, inner spans close first
        events.sort()
        open_children = [0] * len(spans)
        leaves: set[int] = set()
        self_t = [0.0] * len(spans)
        prev = None
        for t, is_start, key in events:
            if leaves and prev is not None and t > prev:
                share = (t - prev) / len(leaves)
                for j in leaves:
                    self_t[j] += share
            prev = t
            i = key if is_start else -key
            parent = spans[i].parent
            if is_start:
                leaves.add(i)
                if parent >= 0:
                    open_children[parent] += 1
                    leaves.discard(parent)
            else:
                leaves.discard(i)
                if parent >= 0:
                    open_children[parent] -= 1
                    if open_children[parent] == 0:
                        leaves.add(parent)
        return self_t

    def under(self, root: int) -> list[int]:
        """Indices of the spans below ``root`` (spans are recorded in start order)."""
        inside = {root}
        out = []
        for i in range(root + 1, len(self.spans)):
            if self.spans[i].parent in inside:
                inside.add(i)
                out.append(i)
        return out
