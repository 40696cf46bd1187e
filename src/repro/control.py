"""The control ops both TCP servers answer: ``ping``, ``status``, ``watch``, ``cancel``.

The sweep service and the cluster coordinator share this one definition
(``docs/protocol.md``): the control frames, the server side
(:class:`ControlPlane`; each server supplies its own ``status`` document)
and the client core :class:`ControlClient`, which
:class:`repro.service.ServiceClient` extends with ``submit`` and
:mod:`repro.cluster.control` uses as is.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Any, AsyncIterator, Awaitable, Callable, Dict, Optional, Set

from repro import obs, wire


class ControlError(RuntimeError):
    """A server answered a control request with an ``error`` frame."""


# Frames (shared by servers and clients so field names cannot drift).
def watch_request(request_id: str) -> Dict[str, Any]:
    """Subscribe to the server's live observability event stream."""
    return {"op": "watch", "id": request_id}


def cancel_request(request_id: str) -> Dict[str, Any]:
    """End the pending request (submit or watch) with this ``id``."""
    return {"op": "cancel", "id": request_id}


def obs_event(request_id: str, data: Dict[str, Any]) -> Dict[str, Any]:
    """One streamed observability event (see :data:`repro.obs.EVENT_TYPES`)."""
    return {"event": "obs", "id": request_id, "data": data}


def error_event(
    request_id: Optional[str], message: str, code: str = "failed"
) -> Dict[str, Any]:
    """Terminal failure for one request (``code`` from the service's ``ERROR_CODES``)."""
    return {"event": "error", "id": request_id, "error": message, "code": code}


def claim(pending: Dict[str, Any], request_id: Any, op: str) -> Optional[Dict[str, Any]]:
    """The ``bad-request`` answer when ``request_id`` cannot name a new
    pending request of its connection (not a string, or already in
    flight), else ``None``."""
    if not isinstance(request_id, str):
        return error_event(None, f"{op} requires a string id", code="bad-request")
    if request_id in pending:
        return error_event(
            request_id,
            f"request id {request_id!r} is already in flight on this connection",
            code="bad-request",
        )
    return None


class ControlPlane:
    """One server's control ops.  ``status`` builds its status document for
    a request id; ``dropped`` counts watch frames lost to slow watchers.
    ``pending`` (per connection) maps request ids to cancellable requests.
    """

    def __init__(
        self, status: Callable[[Any], Awaitable[Dict[str, Any]]], dropped: obs.Counter
    ):
        #: Live watch subscriptions (what :meth:`stop` ends).
        self.watches: Set[obs.Subscription] = set()
        self._status = status
        self._dropped = dropped

    async def answer(
        self, writer: wire.FrameWriter, pending: Dict[str, Any], message: Dict[str, Any]
    ) -> None:
        """Answer one request; an op that is not a control op is a ``bad-request``."""
        op, request_id = message.get("op"), message.get("id")
        if op == "ping":
            await writer.send({"event": "pong", "id": request_id})
        elif op == "status":
            await writer.send(await self._status(request_id))
        elif op == "watch":
            await self._watch(writer, pending, request_id)
        elif op == "cancel":
            entry = pending.get(request_id) if isinstance(request_id, str) else None
            if entry is not None:
                entry.cancel()  # the request itself answers `cancelled`
                return
            # Nothing in flight under this id (never was, or its terminal
            # event already went out — a cancel can lose that race).  The
            # client skips frames for ids it is no longer waiting on.
            await writer.send(
                error_event(
                    request_id,
                    f"no in-flight request with id {request_id!r} to cancel",
                    code="bad-request",
                )
            )
        else:
            await writer.send(
                error_event(request_id, f"unknown op {op!r}", code="bad-request")
            )

    async def _watch(
        self, writer: wire.FrameWriter, pending: Dict[str, Any], request_id: Any
    ) -> None:
        """Stream :mod:`repro.obs` events to one watcher until it is cancelled.

        A watch is a pending request like a submit: it sits in ``pending``
        under its id (a duplicate id is a ``bad-request``), so a ``cancel``
        with that id ends it with ``code="cancelled"``; so do a disconnect
        and :meth:`stop`, which cancel its subscription.
        """
        rejection = claim(pending, request_id, "watch")
        if rejection is not None:
            await writer.send(rejection)
            return
        subscription = pending[request_id] = obs.Subscription(self._dropped)
        self.watches.add(subscription)
        try:
            if not await writer.send({"event": "watching", "id": request_id}):
                return
            while True:
                event = await subscription.get()
                if event is None:
                    await writer.send(
                        error_event(request_id, "watch cancelled", code="cancelled")
                    )
                    return
                if not await writer.send(obs_event(request_id, event)):
                    return  # peer gone mid-stream
        finally:
            subscription.close()
            self.watches.discard(subscription)
            del pending[request_id]

    def stop(self) -> None:
        """End every live watch; each answers ``cancelled``."""
        for subscription in list(self.watches):
            subscription.cancel()


class ControlClient:
    """One sequential connection to a ``serve`` or coordinator endpoint.

    An ``error`` reply raises :meth:`_error`'s exception
    (:class:`ControlError`; :class:`repro.service.ServiceClient` maps the
    ``code`` to its typed errors).  Transport failures raise
    ``ConnectionError`` / ``OSError``; requests before :meth:`connect`, or
    a second concurrent streaming request, raise ``RuntimeError``.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._request_ids = itertools.count(1)
        self._busy = False
        self._active_request: Optional[str] = None

    async def connect(self, timeout: Optional[float] = None) -> "ControlClient":
        """Open the connection; already-connected clients return immediately.

        ``timeout`` enables bounded retry-with-backoff on connection
        failures (see :func:`repro.wire.open_connection`): a server that is
        still binding its socket — the usual race when client and server
        start together, e.g. against a subprocess ``python -m repro serve``
        — is retried until the deadline instead of failing instantly.
        ``timeout=None`` keeps the historical single-attempt behaviour.
        """
        if self._writer is None:
            self._reader, self._writer = await wire.open_connection(
                self.host, self.port, timeout=timeout
            )
        return self

    async def aclose(self) -> None:
        """Close the connection (the server cancels any pending request)."""
        if self._writer is not None:
            writer, self._writer, self._reader = self._writer, None, None
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def __aenter__(self) -> "ControlClient":
        return await self.connect()

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.aclose()

    @staticmethod
    def _error(reply: Dict[str, Any]) -> Exception:
        return ControlError(str(reply.get("error")))

    async def _roundtrip(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Send one non-streaming request and return its matching reply.

        Frames for other request ids — e.g. the terminal event of an
        earlier request that raced a :meth:`cancel` — are skipped; only a
        connection-level error (``id`` null) or this request's own reply
        terminates the wait.
        """
        request_id = message.get("id")
        reader = await self._send(message)
        while True:
            reply = await wire.read_message(reader)
            if reply is None:
                raise ConnectionError("server closed the connection")
            if reply.get("id") != request_id and reply.get("id") is not None:
                continue  # stale event from an earlier, already-settled request
            if reply.get("event") == "error":
                raise self._error(reply)
            return reply

    async def ping(self) -> bool:
        """Liveness probe; ``True`` when the server answers ``pong``."""
        reply = await self._roundtrip({"op": "ping", "id": self._next_id()})
        return reply.get("event") == "pong"

    async def status(self) -> Dict[str, Any]:
        """The server's status document."""
        return await self._roundtrip({"op": "status", "id": self._next_id()})

    async def cancel(self) -> bool:
        """Abort the submit or watch currently in flight on this connection.

        Safe to call from a task running concurrently with it (the whole
        point: the request loop owns the reader, ``cancel`` only writes).
        An awaiting ``submit`` raises its cancelled error once the server
        confirms; a watch simply ends.  Returns ``False`` when nothing is
        in flight.
        """
        request_id = self._active_request
        if request_id is None:
            return False
        await self._send(cancel_request(request_id))
        return True

    def _begin(self) -> str:
        """Claim the connection for one streaming request; returns its id
        (:meth:`_end` releases the claim)."""
        if self._busy:
            raise RuntimeError("one request at a time per client connection")
        self._busy = True
        self._active_request = self._next_id()
        return self._active_request

    def _end(self) -> None:
        self._busy = False
        self._active_request = None

    async def watch(self) -> AsyncIterator[Dict[str, Any]]:
        """Follow the server's live observability event stream.

        Async generator yielding one event dict per :mod:`repro.obs` event
        the server emits (``seq`` / ``ts`` / ``type`` / optional ``trace``
        plus type-specific fields) until the stream is cancelled — via
        :meth:`cancel` from a concurrent task (the generator then simply
        ends), the generator being closed, or the server stopping.  A
        watch owns the connection while it runs.
        """
        request_id = self._begin()
        try:
            reader = await self._send(watch_request(request_id))
            while True:
                message = await wire.read_message(reader)
                if message is None:
                    return  # server stopped: the stream is over
                if message.get("id") != request_id:
                    continue
                event = message.get("event")
                if event == "obs":
                    yield dict(message.get("data") or {})
                elif event == "error":
                    if message.get("code") == "cancelled":
                        return  # cancelled by this client or the server's stop
                    raise self._error(message)
        finally:
            self._end()

    def _next_id(self) -> str:
        return f"req-{next(self._request_ids)}"

    async def _send(self, message: Dict[str, Any]) -> asyncio.StreamReader:
        """Write one request; returns the reader its replies arrive on."""
        if self._reader is None or self._writer is None:
            raise RuntimeError("client is not connected; call connect() first")
        self._writer.write(wire.encode_message(message))
        await self._writer.drain()
        return self._reader
