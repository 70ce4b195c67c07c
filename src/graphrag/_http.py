"""Tiny shared HTTP helper: JSON POST with bounded retries.

Transport faults (connection errors, timeouts, 5xx, malformed HTTP) back off
exponentially and retry; anything else fails immediately. Client errors never
retry since the request itself is bad.

The transport is the standard library's ``urllib.request``, imported on the
first call, so a stub-mode process never loads an HTTP module.
"""

from __future__ import annotations

import json
import logging
import time

from .errors import ClientError

log = logging.getLogger(__name__)


def post_json(
    url: str,
    payload: dict,
    *,
    api_key: str | None = None,
    timeout: float = 30.0,
    max_attempts: int = 3,
    backoff: float = 0.5,
) -> dict:
    import http.client
    import urllib.error
    import urllib.request

    data = json.dumps(payload, allow_nan=False).encode("utf-8")
    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    last: Exception | None = None
    for attempt in range(max_attempts):
        try:
            request = urllib.request.Request(url, data=data, headers=headers, method="POST")
            with urllib.request.urlopen(request, timeout=timeout) as resp:
                raw = resp.read()
        except urllib.error.HTTPError as exc:  # an OSError, so caught before OSError
            with exc:
                if exc.code < 500:  # a 4xx, or a 307/308 that urllib does not follow
                    text = exc.read().decode("utf-8", "replace")
                    raise ClientError(f"{url} rejected request: {exc.code} {text[:200]}") from exc
            last = exc
        except (OSError, http.client.HTTPException) as exc:
            last = exc
        except ValueError as exc:  # a malformed URL or header
            raise ClientError(f"cannot send a request to {url}: {exc}") from exc
        else:
            try:
                body = json.loads(raw)
            except ValueError as exc:  # includes a body that is not UTF-8
                raise ClientError(f"{url} returned a non-JSON body: {exc}") from exc
            if not isinstance(body, dict):
                raise ClientError(f"{url} returned JSON that is not an object: {type(body).__name__}")
            return body
        if attempt + 1 < max_attempts:
            delay = backoff * (2 ** attempt)
            log.warning("transport error on %s (attempt %d/%d): %s; retrying in %.1fs",
                        url, attempt + 1, max_attempts, last, delay)
            time.sleep(delay)
    raise ClientError(f"{url} failed after {max_attempts} attempts: {last}")
