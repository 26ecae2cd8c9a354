"""Span tracer for the traced benchmark run.

The tracer wraps the public entry points of each qauthlab layer from outside
the package. A function is re-exported by ``from .x import y`` into several
modules (``run_qa_kg`` is bound in ``protocols``, ``ucharness`` and ``cli``),
so every ``qauthlab.*`` module attribute that holds the wrapped object is
rebound, and ``HybridState`` / ``FinalState`` methods are patched on the class.
``uninstall`` puts every original back, so untraced passes run unpatched code.

Spans (name, parent, job, start, end) are kept in flat arrays in memory and
summarised or written out when the run ends. A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

# (module, function) pairs wrapped at each layer boundary. Entries missing from
# the program are skipped, so their metrics read 0.
LAYER_FUNCTIONS = {
    "protocols": ("run_qa_kg", "run_tqa_kg", "ebit_ptc", "ebit_ptp"),
    "ucharness": (
        "qa_kg_advantage",
        "run_qa_kg_ideal",
        "ebit_advantage",
        "overlap_chain_checks",
        "ptp_soundness_exact",
    ),
    "qmath": ("trace_norm",),
    "codes": ("encoding_unitary", "verify_ptc"),
    "adversary": ("build_attack",),
    "approx_psqa": ("sample_cipher", "run_psqa_kg", "psqa_ideal", "psqa_advantage"),
    "classical_wc": ("poly_hash_family", "verify_asu2", "wc_kg_advantage"),
    "cli": ("main",),
}

# protocol runs whose (protocol, arguments) key is tracked for the
# useful-run ratio
PROTOCOL_RUNS = frozenset(f"protocols.{name}" for name in LAYER_FUNCTIONS["protocols"])

SETUP_JOB = -1


def _copy(buf: array) -> np.ndarray:
    # a copy, so the array is not left exporting its buffer (which blocks append)
    return np.frombuffer(buf, dtype=np.dtype(buf.typecode)).copy()


def _arg_key(arg) -> object:
    amps = getattr(arg, "amplitudes", None)
    if isinstance(amps, np.ndarray):
        return amps.tobytes()
    if isinstance(arg, np.ndarray):
        return arg.tobytes()
    return repr(arg)


class Tracer:
    """Records spans and counters; one instance per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_job = array("l")
        self.span_outer = array("b")  # 1 when no span of the same name is open
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._active: list[int] = []
        self.job = SETUP_JOB
        # counters keyed by (job, name); job SETUP_JOB is the set-up phase
        self.counts: dict[tuple[int, str], float] = {}
        self.maxima: dict[tuple[int, str], float] = {}
        self.run_keys: dict[int, set] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return nid

    def count(self, name: str, amount: float = 1) -> None:
        key = (self.job, name)
        self.counts[key] = self.counts.get(key, 0) + amount

    def peak(self, name: str, value: float) -> None:
        key = (self.job, name)
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def wrap(self, name: str, fn, hook=None):
        """A wrapper that records one span per call of ``fn``."""
        nid = self._name_id(name)
        stack, active = self._stack, self._active
        s_name, s_parent, s_job = self.span_name, self.span_parent, self.span_job
        s_outer, s_start, s_end = self.span_outer, self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            idx = len(s_start)
            s_name.append(nid)
            s_parent.append(stack[-1] if stack else -1)
            s_job.append(self.job)
            s_outer.append(0 if active[nid] else 1)
            s_end.append(0.0)
            active[nid] += 1
            stack.append(idx)
            s_start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                s_end[idx] = perf_counter()
                stack.pop()
                active[nid] -= 1

        return traced

    # -- patching ------------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "qauthlab" or modname.startswith("qauthlab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _patch_class(self, cls, attr: str, replacement) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self) -> None:
        """Wrap every layer entry point until :meth:`uninstall`.

        Every layer module is imported first, so that no module can bind a
        wrapper by importing it from a patched module while tracing is on.
        """
        for layer in (*LAYER_FUNCTIONS, "hybrid"):
            try:
                importlib.import_module(f"qauthlab.{layer}")
            except ModuleNotFoundError:
                pass
        for layer, functions in LAYER_FUNCTIONS.items():
            mod = sys.modules.get(f"qauthlab.{layer}")
            for fname in functions:
                fn = getattr(mod, fname, None)
                if not inspect.isfunction(fn):
                    continue
                name = f"{layer}.{fname}"
                self._rebind(fn, self.wrap(name, fn, self._hook_for(name, fn)))
        hybrid = sys.modules.get("qauthlab.hybrid")
        state_cls = getattr(hybrid, "HybridState", None)
        if state_cls is not None:
            self._patch_hybrid_state(state_cls)
        final_cls = getattr(hybrid, "FinalState", None)
        if final_cls is not None and inspect.isfunction(final_cls.__dict__.get("distance")):
            self._patch_class(
                final_cls, "distance", self.wrap("hybrid.distance", final_cls.__dict__["distance"])
            )

    def uninstall(self) -> None:
        """Put back every original binding, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _hook_for(self, name: str, fn):
        if name == "codes.verify_ptc":
            def paulis(args, kwargs):
                codes = list(args[0] if args else kwargs["codes"])
                if codes:
                    self.count("codes.paulis_checked", (4 ** codes[0].n - 1) * len(codes))
            return paulis
        if name in PROTOCOL_RUNS:
            signature = inspect.signature(fn)

            def run_key(args, kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                key = (name, tuple((k, _arg_key(v)) for k, v in bound.arguments.items()))
                self.run_keys.setdefault(self.job, set()).add(key)
            return run_key
        return None

    def _patch_hybrid_state(self, cls) -> None:
        init = cls.__dict__.get("__init__")
        if inspect.isfunction(init):

            @functools.wraps(init)
            def counted_init(obj, *args, **kwargs):
                init(obj, *args, **kwargs)
                self.count("hybrid.HybridState.calls")
                dim = 1
                for _, d in getattr(obj, "registers", ()):
                    dim *= d
                self.peak("hybrid.max_vector_dim", dim)

            self._patch_class(cls, "__init__", counted_init)
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if attr == "finalize" and inspect.isfunction(value):
                self._patch_class(cls, attr, self.wrap("hybrid.finalize", value, self._count_finalized))
            elif isinstance(value, classmethod):
                self._patch_class(cls, attr, classmethod(self.wrap(f"hybrid.ops.{attr}", value.__func__)))
            elif inspect.isfunction(value):
                self._patch_class(cls, attr, self.wrap(f"hybrid.ops.{attr}", value))

    def _count_finalized(self, args, kwargs) -> None:
        self.count("hybrid.branches_finalized", len(getattr(args[0], "branches", ())))

    # -- summaries -----------------------------------------------------------

    def span_table(self, jobs) -> dict[str, dict[str, float]]:
        """Per span name over the given job ids: calls, inclusive seconds of
        outermost spans, and self seconds."""
        n = len(self.span_start)
        if n == 0:
            return {}
        start, end = _copy(self.span_start), _copy(self.span_end)
        parent, name, job = _copy(self.span_parent), _copy(self.span_name), _copy(self.span_job)
        outer = _copy(self.span_outer).astype(bool)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_s = dur - child
        chosen = np.isin(job, np.asarray(sorted(jobs), dtype=np.int64))
        k = len(self.names)
        calls = np.bincount(name[chosen], minlength=k)
        incl = np.bincount(name[chosen & outer], weights=dur[chosen & outer], minlength=k)
        selfs = np.bincount(name[chosen], weights=self_s[chosen], minlength=k)
        return {
            nm: {"calls": float(calls[i]), "s": float(incl[i]), "self_s": float(selfs[i])}
            for i, nm in enumerate(self.names)
        }

    def counter(self, name: str, jobs) -> float:
        return float(sum(self.counts.get((j, name), 0) for j in jobs))

    def maximum(self, name: str, jobs) -> float:
        return float(max((self.maxima.get((j, name), 0) for j in jobs), default=0))

    def useful_runs(self, jobs) -> int:
        return sum(len(self.run_keys.get(j, ())) for j in jobs)

    def save(self, path) -> None:
        """Write every span to a compressed ``.npz`` file."""
        np.savez_compressed(
            path,
            names=np.asarray(self.names, dtype=str),
            name=_copy(self.span_name),
            parent=_copy(self.span_parent),
            job=_copy(self.span_job),
            start=_copy(self.span_start),
            end=_copy(self.span_end),
        )
