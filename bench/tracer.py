"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions of privfed's layers. A module
function is replaced under every name a privfed module bound it to (``from
.tasks import local_train`` binds a second name in ``federation``); a method
is replaced on its class. Each wrapped call records a span (name, parent
span, start, end) in memory, and a few wrappers also add to counters read off
the call's arguments or result. A target that a later version of privfed no
longer has is listed in ``Tracer.absent`` and reports zero, not an error.

A span's self time is its duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``attr`` is ``name`` or ``Class.name`` in ``module``."""

    metric: str
    module: str
    attr: str


SPAN_TARGETS = (
    Target("secure_agg.derive_pairwise_masks", "privfed.secure_agg", "derive_pairwise_masks"),
    Target("secure_agg.mask_update", "privfed.secure_agg", "mask_update"),
    Target("secure_agg.aggregate_masked", "privfed.secure_agg", "aggregate_masked"),
    Target("compliance.prove", "privfed.compliance", "prove_compliance"),
    Target("compliance.prove", "privfed.compliance", "prove_budget_compliance"),
    Target("compliance.verify_proof", "privfed.compliance", "verify_proof"),
    Target("compliance.parse", "privfed.compliance", "AuditChain.parse_lines"),
    Target("compliance.parse", "privfed.compliance", "ComplianceProof.parse_lines"),
    Target("compliance.chain_verify", "privfed.compliance", "AuditChain.verify"),
    Target("compliance.append", "privfed.compliance", "AuditChain.append"),
    Target("tasks.local_train", "privfed.tasks", "local_train"),
    Target("tasks.evaluate", "privfed.tasks", "evaluate"),
    Target("tasks.generate_task", "privfed.tasks", "generate_task"),
    Target("seeding.rng_for", "privfed.seeding", "rng_for"),
    Target("dp.gaussian_mechanism", "privfed.dp", "gaussian_mechanism"),
    Target("dp.privatize", "privfed.dp", "UpdatePrivatizer.privatize"),
    Target("dp.charge", "privfed.dp", "AccountantLedger.charge"),
    Target("attacks.train_shadow_models", "privfed.attacks", "train_shadow_models"),
    Target("attacks.fit_shadow_threshold", "privfed.attacks", "fit_shadow_threshold"),
    Target("attacks.run_membership_inference", "privfed.attacks", "run_membership_inference"),
    Target("governance.step", "privfed.governance", "GovernanceEnv.step"),
    Target("governance.reset", "privfed.governance", "GovernanceEnv.reset"),
    Target("governance.train_controller", "privfed.governance", "train_controller"),
    Target("federation.run_round", "privfed.federation", "Federation.run_round"),
    Target("federation.weighted_average", "privfed.federation", "weighted_average"),
    Target("experiment.run_experiment", "privfed.experiment", "run_experiment"),
)

# Callables that are counted, not timed: they are called so often (or so
# deep inside other spans) that a span would only add overhead.
COUNT_TARGETS = (
    Target("seeding.derive_seed.calls", "privfed.seeding", "derive_seed"),
    Target("secure_agg.pairs", "privfed.secure_agg", "pair_seed"),
)

SPAN_NAMES = tuple(dict.fromkeys(t.metric for t in SPAN_TARGETS))
COUNTER_NAMES = (
    "seeding.derive_seed.calls",
    "secure_agg.pairs",
    "compliance.parse.lines",
    "compliance.proof_headers",
    "compliance.opened_records",
    "tasks.local_train.sample_epochs",
    "dp.charge.denied",
)


def _param(fn, name: str):
    """(positional index, name) of parameter ``name`` of ``fn``, or None."""
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    if name not in params:
        return None
    return params.index(name), name


def _arg(args, kwargs, where):
    index, name = where
    return args[index] if index < len(args) else kwargs[name]


def _resolve(target: Target):
    """(owner, attribute name, original callable, raw class attribute) or None."""
    try:
        module = importlib.import_module(target.module)
    except ImportError:
        return None
    owner = module
    *classes, name = target.attr.split(".")
    for cls_name in classes:
        owner = getattr(owner, cls_name, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        raw = owner.__dict__.get(name)
        if raw is None:
            return None
        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
    else:
        raw = fn = getattr(owner, name, None)
    if not callable(fn):
        return None
    return owner, name, fn, raw


class Tracer:
    """In-memory spans and counters for one traced pipeline run and audit."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[str, int, float, float]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []

    def span(self, name: str, fn, before=None, after=None, on_error=None):
        """``fn`` wrapped so that each call records a span named ``name``.

        ``before(args, kwargs)`` runs before the call, ``after(result)``
        after it returns and ``on_error(exc)`` when it raises.
        """
        clock = self.clock
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            index = len(spans)
            spans.append((name, stack[-1] if stack else -1, 0.0, 0.0))
            stack.append(index)
            if before is not None:
                before(args, kwargs)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, spans[index][1], start, end)
            if after is not None:
                after(result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        """``fn`` wrapped so that each call adds one to counter ``name``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def enclosing(self) -> str | None:
        """Name of the innermost open span, or None at top level."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    @contextlib.contextmanager
    def root(self, name: str):
        """Record the enclosed block as one span, e.g. the whole ``run``."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, parent, 0.0, 0.0))
        self._stack.append(index)
        start = self.clock()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index] = (name, parent, start, self.clock())

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; names privfed no longer has go to ``absent``."""
        self.absent = []
        for target in SPAN_TARGETS:
            self._patch(target, lambda fn, t=target: self.span(t.metric, fn, *self._hooks(t, fn)))
        for target in COUNT_TARGETS:
            self._patch(target, lambda fn, t=target: self.counter(t.metric, fn))

    def uninstall(self) -> None:
        """Put back every original callable, leaving privfed as it was."""
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore = []

    def _patch(self, target: Target, make) -> None:
        found = _resolve(target)
        if found is None:
            self.absent.append(f"{target.module}:{target.attr}")
            return
        owner, name, fn, raw = found
        wrapped = make(fn)
        if isinstance(owner, type):
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            self._restore.append((owner, name, raw))
            setattr(owner, name, wrapped)
            return
        # every privfed module that bound this function, under any name
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "privfed"
                                      or module_name.startswith("privfed.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._restore.append((module, attr, fn))
                    setattr(module, attr, wrapped)

    def _hooks(self, target: Target, fn):
        """(before, after, on_error) hooks of ``target`` that feed the counters."""
        if target.metric == "compliance.parse":
            lines = _param(fn, "lines")
            if lines is not None:
                def before(args, kwargs):
                    self.counts["compliance.parse.lines"] += len(_arg(args, kwargs, lines))
                return before, None, None
        if target.metric == "tasks.local_train":
            data, epochs = _param(fn, "data"), _param(fn, "epochs")
            if data is not None and epochs is not None:
                def before(args, kwargs):
                    n = getattr(_arg(args, kwargs, data), "n", 0)
                    self.counts["tasks.local_train.sample_epochs"] += n * _arg(args, kwargs, epochs)
                return before, None, None
        if target.metric == "compliance.prove":
            def after(proof):
                # one prover may call the other: count each proof once, at
                # the outermost prove span
                if self.enclosing() != "compliance.prove":
                    self.counts["compliance.proof_headers"] += len(getattr(proof, "headers", ()))
                    self.counts["compliance.opened_records"] += len(getattr(proof, "opened", ()))
            return None, after, None
        if target.metric == "dp.charge":
            def on_error(exc):
                if type(exc).__name__ == "BudgetExhausted":
                    self.counts["dp.charge.denied"] += 1
            return None, None, on_error
        return None, None, None


# -- arithmetic ---------------------------------------------------------------


def covered_length(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals``, each clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> list[float]:
    """Self time of each span in ``spans``, a list of (name, parent, start, end)
    where ``parent`` is the index of the enclosing span or -1."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [(end - start) - covered_length(children[i], start, end)
            for i, (_, _, start, end) in enumerate(spans)]


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, summed self time and summed duration."""
    table: dict[str, dict[str, float]] = {}
    for (name, _, start, end), own in zip(spans, self_times(spans)):
        row = table.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own
        row["total_s"] += end - start
    return table
