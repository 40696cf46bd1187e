"""Client side of the sweep service protocol.

:class:`ServiceClient` is the asyncio client (one TCP connection, one
request at a time, progress callbacks as events arrive); :func:`run_sweep`
is the synchronous one-call convenience for scripts and examples::

    from repro.service import run_sweep

    result = run_sweep("127.0.0.1", 7463, "dse", {"fast": True},
                       on_progress=lambda done, total, label: ...)
    print(result.payload["selected"])

Async use::

    async with ServiceClient("127.0.0.1", 7463) as client:
        result = await client.submit("dse", {"fast": True})

Server-side failures surface as **typed exceptions** keyed by the stable
``code`` field of the terminal ``error`` event (see ``docs/protocol.md``),
so callers can distinguish a transport problem (``ConnectionError``) from

* :class:`ServiceBusyError` — per-client backpressure rejected the
  request (``retry_after`` hints how long to back off);
* :class:`ServiceCancelledError` — the request (or its underlying
  single-flighted sweep) was cancelled;
* :class:`ServiceBadRequestError` — the request itself was invalid;
* :class:`ServiceError` — the workload failed (and the base class of all
  of the above).

A submit in flight can be aborted from a concurrent task with
:meth:`ServiceClient.cancel`; the awaiting ``submit`` then raises
:class:`ServiceCancelledError`.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
from typing import Any, Callable, Dict, Optional, Type

from repro.control import ControlClient
from repro.runtime.executors import ProgressCallback
from repro.service import protocol


class ServiceError(RuntimeError):
    """The server answered a request with a terminal ``error`` event.

    Attributes
    ----------
    code:
        The stable error class from the wire (``failed`` for workload
        failures; subclasses carry their own).
    retry_after:
        Backoff hint in seconds (rate-limit rejections only), else None.
    """

    code = "failed"

    def __init__(self, message: str, retry_after: Optional[float] = None):
        super().__init__(message)
        self.retry_after = retry_after


class ServiceBusyError(ServiceError):
    """Per-client backpressure rejected the request (``code="busy"``)."""

    code = "busy"


class ServiceCancelledError(ServiceError):
    """The request or its sweep was cancelled (``code="cancelled"``)."""

    code = "cancelled"


class ServiceBadRequestError(ServiceError):
    """The request itself was invalid (``code="bad-request"``)."""

    code = "bad-request"


_ERROR_TYPES: Dict[str, Type[ServiceError]] = {
    cls.code: cls
    for cls in (ServiceError, ServiceBusyError, ServiceCancelledError, ServiceBadRequestError)
}


def error_from_event(message: Dict[str, Any]) -> ServiceError:
    """Build the typed exception for one terminal ``error`` event."""
    code = str(message.get("code", "failed"))
    retry_after = message.get("retry_after_seconds")
    exc_type = _ERROR_TYPES.get(code, ServiceError)
    return exc_type(
        str(message.get("error")),
        retry_after=float(retry_after) if retry_after is not None else None,
    )


@dataclasses.dataclass
class SweepResult:
    """Outcome of one submit: payload plus how the request was served."""

    payload: Any
    key: str
    deduplicated: bool
    elapsed_seconds: float
    progress_events: int
    #: Server-minted observability id of the sweep (protocol v3); every
    #: metric sample and ``watch`` event of the run carries it, across the
    #: service, engine, coordinator and worker tiers (see :mod:`repro.obs`).
    trace: str = ""


class ServiceClient(ControlClient):
    """One connection to a :class:`~repro.service.server.SweepService`.

    Adds :meth:`submit` to :class:`repro.control.ControlClient`.  The
    client is deliberately sequential: one outstanding request per
    connection (open several clients for concurrency — connections are
    cheap, and the server single-flights identical sweeps anyway).

    Parameters
    ----------
    host, port:
        Service endpoint (the ``serve`` banner prints the bound port).

    Raises
    ------
    ServiceError (or a subclass, by error ``code``)
        When the server reports a terminal error for a request.
    ConnectionError / OSError
        For transport-level failures (server gone, connection refused).
    RuntimeError
        For client-side misuse: requests before :meth:`connect`, or a
        second concurrent :meth:`submit` on one connection.
    """

    _error = staticmethod(error_from_event)

    async def submit(
        self,
        workload: str,
        params: Optional[Dict[str, Any]] = None,
        on_progress: Optional[ProgressCallback] = None,
        trace: Optional[str] = None,
        on_accepted: Optional[Callable[[str, bool, str], None]] = None,
        sched: Optional[Any] = None,
    ) -> SweepResult:
        """Run ``workload`` on the server, streaming progress along the way.

        Parameters
        ----------
        workload:
            Registered workload name (``status()["workloads"]`` lists them).
        params:
            JSON-serialisable workload parameters; together with the name
            they form the single-flight fingerprint.
        on_progress:
            Receives ``(done, total, label)`` for every progress event.
        trace:
            Optional client-proposed observability id.  The id actually in
            force — this one, or the first submitter's when the request
            deduplicates onto an in-flight sweep — comes back on
            :attr:`SweepResult.trace`.
        on_accepted:
            Receives ``(key, deduplicated, trace)`` as soon as the server
            acknowledges the submit — i.e. the *served* trace id, before
            the result.  The gateway uses this to start bridging ``watch``
            events for a sweep while it is still running; plain callers
            can ignore it and read :attr:`SweepResult.trace` at the end.
        sched:
            Optional scheduling tag (protocol v4) — a job-class name
            (``"interactive"`` / ``"batch"``) or a ``{"class": ...,
            "priority": ...}`` object; see :mod:`repro.sched`.  A
            deduplicated submit keeps the first submitter's policy.

        Raises
        ------
        ServiceBusyError
            The server's per-client backpressure rejected the submit
            (check :attr:`~ServiceError.retry_after`).
        ServiceCancelledError
            The request was cancelled — via :meth:`cancel`, or because the
            single-flighted sweep was cancelled server-side.
        ServiceBadRequestError
            Unknown workload or malformed request.
        ServiceError
            The workload raised on the server.
        """
        request_id = self._begin()
        try:
            reader = await self._send(
                protocol.submit_request(request_id, workload, params, trace=trace, sched=sched)
            )
            key = ""
            deduplicated = False
            served_trace = ""
            progress_events = 0
            while True:
                message = await protocol.read_message(reader)
                if message is None:
                    raise ConnectionError("server closed the connection mid-request")
                if message.get("id") != request_id:
                    continue  # stale event from an aborted earlier request
                event = message.get("event")
                if event == "accepted":
                    key = str(message.get("key", ""))
                    deduplicated = bool(message.get("deduplicated", False))
                    served_trace = str(message.get("trace", ""))
                    if on_accepted is not None:
                        on_accepted(key, deduplicated, served_trace)
                elif event == "progress":
                    progress_events += 1
                    if on_progress is not None:
                        on_progress(
                            int(message.get("done", 0)),
                            int(message.get("total", 0)),
                            str(message.get("label", "")),
                        )
                elif event == "result":
                    payload = message.get("payload")
                    attached = message.get(protocol.PAYLOAD_KEY)
                    if attached is not None:
                        # Protocol v5 binary result: the JSON-encoded
                        # payload followed the header line as raw bytes.
                        payload = json.loads(bytes(attached).decode("utf-8"))
                    return SweepResult(
                        payload=payload,
                        key=key,
                        deduplicated=deduplicated,
                        elapsed_seconds=float(message.get("elapsed_seconds", 0.0)),
                        progress_events=progress_events,
                        trace=served_trace,
                    )
                elif event == "error":
                    raise error_from_event(message)
        finally:
            self._end()


def run_sweep(
    host: str,
    port: int,
    workload: str,
    params: Optional[Dict[str, Any]] = None,
    on_progress: Optional[ProgressCallback] = None,
    timeout: Optional[float] = None,
    connect_timeout: Optional[float] = None,
    trace: Optional[str] = None,
    sched: Optional[Any] = None,
) -> SweepResult:
    """Synchronous one-shot submit for scripts: connect, run, disconnect.

    Parameters
    ----------
    host, port:
        Service endpoint.
    workload, params, on_progress:
        As for :meth:`ServiceClient.submit`.
    timeout:
        Bound on the whole call (``asyncio.TimeoutError`` on expiry).
    connect_timeout:
        Additionally enables retry-with-backoff while the server is still
        binding (see :meth:`ServiceClient.connect`).

    Raises
    ------
    ServiceError (or its typed subclasses)
        As for :meth:`ServiceClient.submit`.

    Example
    -------
    ::

        result = run_sweep("127.0.0.1", 7463, "montecarlo",
                           {"samples": 1000, "shards": 4},
                           timeout=600, connect_timeout=10)
        print(result.payload["sigma_v_blb"])
    """

    async def _run() -> SweepResult:
        client = ServiceClient(host, port)
        await client.connect(timeout=connect_timeout)
        try:
            return await client.submit(
                workload, params, on_progress=on_progress, trace=trace, sched=sched
            )
        finally:
            await client.aclose()

    coro: Any = _run()
    if timeout is not None:
        coro = asyncio.wait_for(coro, timeout)
    return asyncio.run(coro)
