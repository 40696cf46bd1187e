"""Outside-in layer timing for the traced benchmark run.

The program has no per-stage spans yet, so the traced run times each layer
from the benchmark's side: :class:`Tracer` swaps a function or method for a
timing wrapper, keeps per-op totals in memory and restores the original on
:meth:`Tracer.restore`.  Nothing here is installed during an untraced run,
so end-to-end numbers never pass through a wrapper.

:func:`timed_job` is the one piece that runs inside cluster workers.  Jobs
reach a worker by import path, so this module must stay importable there
(the executor hands workers the submitter's ``sys.path``).
"""

from __future__ import annotations

import collections
import os
import time
from typing import Any, Callable, Dict, List, Optional

import numpy as np

#: Result keys :func:`timed_job` adds to a shard result; stripped again on
#: the submitter side before the engine caches or merges anything.
COMPUTE_KEY = "_bench_compute_s"
PID_KEY = "_bench_pid"


def timed_job(fn: Callable[..., Dict[str, Any]], *args: Any, **kwargs: Any) -> Dict[str, Any]:
    """Run one dict-returning job and attach its worker-side compute time."""
    started = time.perf_counter()
    result = dict(fn(*args, **kwargs))
    result[COMPUTE_KEY] = np.array(time.perf_counter() - started)
    result[PID_KEY] = np.array(os.getpid())
    return result


class Tracer:
    """Per-op seconds and call counts, keyed by layer name.

    ``wrap(owner, "attr", "layer")`` times every call of ``owner.attr``;
    ``on_result`` (optional) sees ``(args, result)`` after each call and may
    return extra ``{counter: amount}`` increments, e.g. bytes read.
    """

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = collections.defaultdict(float)
        self.counts: Dict[str, float] = collections.defaultdict(float)
        self._patches: List[tuple] = []

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        on_result: Optional[Callable[[tuple, Any], Dict[str, float]]] = None,
    ) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def timed(*args: Any, **kwargs: Any) -> Any:
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.seconds[layer] += time.perf_counter() - started
                tracer.counts[layer] += 1
            if on_result is not None:
                for name, amount in on_result(args, result).items():
                    tracer.counts[name] += amount
            return result

        setattr(owner, attr, timed)
        self._patches.append((owner, attr, original))

    def replace(self, owner: Any, attr: str, replacement: Callable[..., Any]) -> Callable[..., Any]:
        """Install a hand-written wrapper; returns the original for it to call."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))
        return original

    def take(self) -> Dict[str, Dict[str, float]]:
        """The totals since the last ``take`` (one op), then reset."""
        snapshot = {"seconds": dict(self.seconds), "counts": dict(self.counts)}
        self.seconds.clear()
        self.counts.clear()
        return snapshot

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
