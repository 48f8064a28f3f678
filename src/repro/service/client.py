"""Blocking HTTP client for the simulation service.

Thin ``urllib`` wrapper matching the server's routes one-for-one, for
scripts, tests, and the ``repro-serve`` CLI.  Validation failures come
back as :class:`ServiceError` carrying the server's field-addressed
error list, so a misspelled config override reads the same whether the
request was made in-process or over the wire.

Transport failures (connection refused, reset mid-response, DNS) are
normalized to :class:`ServiceError` too — callers handle one exception
type for "the service said no" and "the service wasn't there".

Backpressure is handled where the paper-sized sweeps are submitted:
:meth:`ServiceClient.submit` retries a ``429``/``503`` a bounded number
of times, sleeping the server's ``Retry-After`` hint jittered by the
runner's deterministic keyed backoff
(:func:`repro.runner.runner.backoff_delay`, keyed by the payload
fingerprint) — a thousand clients hitting one saturated service spread
out instead of thundering back in lockstep.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import time
import urllib.error
import urllib.request
from typing import Dict, Iterator, List, Optional

from repro.runner.runner import backoff_delay

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """A non-2xx response — or no response at all — from the service.

    ``status`` is the HTTP status, or 0 for transport-level failures;
    ``retry_after`` carries the server's ``Retry-After`` hint (seconds)
    when one was sent.
    """

    def __init__(
        self,
        status: int,
        payload: Dict[str, object],
        retry_after: Optional[float] = None,
    ) -> None:
        self.status = status
        self.payload = payload
        self.retry_after = retry_after
        detail = payload.get("error", "error")
        message = payload.get("message")
        if isinstance(message, str) and message:
            detail = f"{detail} — {message}"
        errors = payload.get("errors")
        if isinstance(errors, list) and errors:
            lines = "; ".join(
                f"{e.get('field')}: {e.get('message')}" for e in errors
            )
            detail = f"{detail} — {lines}"
        prefix = f"HTTP {status}" if status else "connection failed"
        super().__init__(f"{prefix}: {detail}")


def _retry_after_seconds(exc: urllib.error.HTTPError) -> Optional[float]:
    value = exc.headers.get("Retry-After") if exc.headers else None
    try:
        return float(value) if value is not None else None
    except ValueError:
        return None


class ServiceClient:
    """Talk to one service instance at ``base_url``."""

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        max_submit_retries: int = 4,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        #: bounded retries for over-capacity (429/503) submissions.
        self.max_submit_retries = max_submit_retries

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        data = json.dumps(body).encode("utf-8") if body is not None else None
        request = urllib.request.Request(
            f"{self.base_url}{path}",
            data=data,
            method=method,
            headers={"Content-Type": "application/json"} if data else {},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                return json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            try:
                payload = json.loads(exc.read())
            except ValueError:
                payload = {"error": exc.reason}
            raise ServiceError(
                exc.code, payload, retry_after=_retry_after_seconds(exc)
            ) from exc
        except urllib.error.URLError as exc:
            # connection refused/reset, DNS failure, dropped mid-request:
            # surface as ServiceError so callers handle one type.
            raise ServiceError(
                0, {"error": "unreachable", "message": str(exc.reason)}
            ) from exc
        except (http.client.HTTPException, OSError) as exc:
            # urllib wraps connect-phase errors in URLError but lets a
            # connection dropped mid-response escape raw (e.g.
            # RemoteDisconnected); normalize those too.
            raise ServiceError(
                0, {"error": "unreachable", "message": str(exc)}
            ) from exc

    # -- routes ------------------------------------------------------------

    def healthy(self) -> bool:
        try:
            return bool(self._request("GET", "/healthz").get("ok"))
        except (ServiceError, OSError):
            return False

    def contract(self) -> Dict[str, object]:
        return self._request("GET", "/v1/contract")

    def stats(self) -> Dict[str, object]:
        return self._request("GET", "/v1/stats")

    def metrics(self) -> str:
        """Raw Prometheus text exposition from ``GET /metrics``."""
        request = urllib.request.Request(f"{self.base_url}/metrics")
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                return resp.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            raise ServiceError(exc.code, {"error": exc.reason}) from exc
        except urllib.error.URLError as exc:
            raise ServiceError(
                0, {"error": "unreachable", "message": str(exc.reason)}
            ) from exc
        except (http.client.HTTPException, OSError) as exc:
            raise ServiceError(
                0, {"error": "unreachable", "message": str(exc)}
            ) from exc

    def submit(self, payload: Dict[str, object]) -> Dict[str, object]:
        """POST a sweep; returns the job summary.

        A ``429``/``503`` (admission control, draining) is retried up
        to ``max_submit_retries`` times: each wait is the server's
        ``Retry-After`` hint scaled by the deterministic keyed backoff
        schedule, so concurrent rejected clients decorrelate without
        any RNG.  Validation errors (400) raise immediately.
        """
        key = hashlib.sha256(
            json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()[:16]
        attempt = 0
        while True:
            try:
                return self._request("POST", "/v1/sweeps", payload)
            except ServiceError as exc:
                if exc.status not in (429, 503) or attempt >= self.max_submit_retries:
                    raise
                attempt += 1
                hint = exc.retry_after if exc.retry_after is not None else 0.5
                # backoff_delay supplies the keyed jitter and growth; the
                # server's hint sets the floor so we never come back early.
                time.sleep(max(hint, backoff_delay(key, attempt, base=0.1)))

    def jobs(self) -> List[Dict[str, object]]:
        """Job summaries: every live job, then the newest finished ones,
        up to 1,000 in all.  ``/v1/jobs`` also answers ``held``, the
        count of jobs the service holds, so a client can tell what was
        left out; ``/v1/stats`` counts them by state."""
        return list(self._request("GET", "/v1/jobs")["jobs"])

    def job(self, job_id: str) -> Dict[str, object]:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def cancel(self, job_id: str) -> Dict[str, object]:
        return self._request("DELETE", f"/v1/jobs/{job_id}")

    def wait(
        self, job_id: str, timeout: float = 300.0, poll: float = 0.2
    ) -> Dict[str, object]:
        """Poll until the job is terminal; returns the final status."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.job(job_id)
            if status["state"] in ("completed", "failed", "cancelled"):
                return status
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['state']} "
                    f"({status['completed']}/{status['points']} points) "
                    f"after {timeout:.0f}s"
                )
            time.sleep(poll)

    def stream(self, job_id: str) -> Iterator[Dict[str, object]]:
        """Yield Server-Sent progress events until the job is terminal."""
        request = urllib.request.Request(
            f"{self.base_url}/v1/jobs/{job_id}/stream"
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                for raw in resp:
                    line = raw.decode("utf-8").strip()
                    if line.startswith("data: "):
                        yield json.loads(line[len("data: "):])
        except urllib.error.HTTPError as exc:
            try:
                payload = json.loads(exc.read())
            except ValueError:
                payload = {"error": exc.reason}
            raise ServiceError(exc.code, payload) from exc
        except urllib.error.URLError as exc:
            raise ServiceError(
                0, {"error": "unreachable", "message": str(exc.reason)}
            ) from exc
