"""The HTTP wire protocol: the http model backend and the http embedding provider.

This module is the one owner of the OpenAI-compatible endpoints, spoken as
HTTP/1.1 through the standard library's http.client. Only
pipeline.build_backend, pipeline.build_provider and config.validate_config
import it, and only for a run that makes HTTP calls, so a mock or replay
review never loads it, nor http.client, ssl or urllib.request.
check_base_url is the one base-URL rule, for validate_config and for
HttpClient alike, and proxy_route the one reading of the proxy settings.
HttpBackend and HttpEmbeddingProvider each hold one HttpClient, so both
fail with the same errors, which gateway.attempt_call retries the same way.
"""

from __future__ import annotations

import base64
import http.client
import json
import math
import operator
import ssl
import threading
import urllib.request
from typing import Optional
from urllib.parse import unquote, urlsplit

from .backends import BaseBackend
from .errors import BackendTimeout, ConfigError, MalformedWireResponse, RequestRejected, WireError
from .gateway import ModelRequest


def check_base_url(user: str, base_url: str) -> None:
    """Refuse, naming its user, a base_url that is not http or https, has no
    host, or has a port that is not a number in 1..65535."""
    parts = urlsplit(base_url)
    try:
        valid = parts.scheme in ("http", "https") and bool(parts.hostname) and parts.port != 0
    except ValueError:  # a port that is not a number in 0..65535
        valid = False
    if not valid:
        raise ConfigError(
            f"{user} requires an http or https base URL with a host; got {base_url!r}"
        )


def proxy_route(url: str) -> Optional[tuple[str, int, dict[str, str]]]:
    """The proxy that reaches url: its host, its port and the headers it
    needs; None when url is reached directly.

    HTTP(S)_PROXY and NO_PROXY are read as urllib reads them. A user (and
    password) in the proxy URL, percent-decoded, becomes a
    Proxy-Authorization: Basic header. A port that is not a number in
    0..65535 raises ConfigError, whose message shows the proxy URL without
    the user and password.
    """
    parts = urlsplit(url)
    if urllib.request.proxy_bypass(parts.netloc):
        return None
    proxy = urllib.request.getproxies().get(parts.scheme)
    if not proxy:
        return None
    proxied = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
    try:
        host, port = proxied.hostname, proxied.port or 80
    except ValueError as exc:  # a port that is not a number in 0..65535
        shown = proxied._replace(netloc=proxied.netloc.rpartition("@")[2]).geturl()
        raise ConfigError(f"proxy {shown!r} for {url}: {exc}") from exc
    headers: dict[str, str] = {}
    if proxied.username:
        credentials = f"{unquote(proxied.username)}:{unquote(proxied.password or '')}"
        token = base64.b64encode(credentials.encode("utf-8")).decode("ascii")
        headers["Proxy-Authorization"] = f"Basic {token}"
    return host, port, headers


def http_connection(
    url: str, timeout: float
) -> tuple[http.client.HTTPConnection, str, dict[str, str]]:
    """An unopened connection that reaches url, the request target to send on
    it, and the headers the proxy needs on each request.

    Through a proxy (proxy_route), an https url goes through a CONNECT
    tunnel, whose CONNECT carries the proxy's headers, and an http url is
    sent to the proxy whole, as an absolute-form target with the proxy's
    headers on each request; the endpoint itself never sees them. TLS
    trusts the system's CA roots, or SSL_CERT_FILE.
    """
    parts = urlsplit(url)
    target = url[len(f"{parts.scheme}://{parts.netloc}") :]
    proxy = proxy_route(url)
    host, port, proxy_headers = proxy or (parts.hostname, parts.port, {})
    if parts.scheme == "http":
        connection = http.client.HTTPConnection(host, port, timeout=timeout)
        return connection, url if proxy else target, proxy_headers
    context = ssl.create_default_context()
    connection = http.client.HTTPSConnection(host, port, timeout=timeout, context=context)
    if proxy:
        connection.set_tunnel(parts.hostname, parts.port, headers=proxy_headers)
    return connection, target, {}


class HttpClient:
    """One OpenAI-style endpoint: kept-alive connections, one POST per call.

    It is built only for a base URL that check_base_url accepts. Idle
    connections wait in a last-in first-out list; list.append and list.pop
    are atomic, so it needs no lock, and a client holds at most as many
    connections as it has calls in flight, which the run scope caps at
    MAX_INFLIGHT. http_connection opens each one. An idle connection the
    server has closed fails before any reply; it is reopened once, inside
    the one POST.

    post classifies every failure, for the chat and the embedding endpoint
    alike: a timeout raises BackendTimeout; any other transport error, a
    5xx, 408 or 429 raises WireError; a 3xx (redirects are not followed)
    or any other 4xx, which would be refused again if resent, raises
    RequestRejected; a 200 whose body is not JSON raises
    MalformedWireResponse. Messages name the URL, and a status error also
    the status and the reply's first 200 characters.
    """

    def __init__(
        self, user: str, base_url: str, path: str, api_key: Optional[str], timeout: float
    ) -> None:
        check_base_url(user, base_url)
        self._url = base_url.rstrip("/") + path
        self._headers = {"Content-Type": "application/json"}
        if api_key:
            self._headers["Authorization"] = f"Bearer {api_key}"
        self._timeout = timeout
        # Each idle connection with its request target and headers.
        self._idle: list[tuple[http.client.HTTPConnection, str, dict[str, str]]] = []

    def close(self) -> None:
        """Close the idle connections."""
        while self._idle:
            self._idle.pop()[0].close()

    def _connect(self) -> tuple[http.client.HTTPConnection, str, dict[str, str]]:
        connection, target, proxy_headers = http_connection(self._url, self._timeout)
        return connection, target, {**self._headers, **proxy_headers}

    def post(self, body: dict) -> object:
        """POST body as JSON to the endpoint; the decoded JSON reply."""
        url = self._url
        data = json.dumps(body).encode("utf-8")
        try:
            connection, target, headers = self._idle.pop()
            kept_alive = True
        except IndexError:
            connection, target, headers = self._connect()
            kept_alive = False
        try:
            try:
                connection.request("POST", target, data, headers)
                reply = connection.getresponse()
            except ConnectionError:
                if not kept_alive:
                    raise
                # The server closed the idle connection: reopen it once.
                connection.close()
                connection, target, headers = self._connect()
                connection.request("POST", target, data, headers)
                reply = connection.getresponse()
            raw = reply.read()
        except TimeoutError as exc:
            connection.close()
            raise BackendTimeout(f"{url}: {exc}") from exc
        except (OSError, http.client.HTTPException) as exc:
            connection.close()
            raise WireError(f"{url}: {exc}") from exc
        if reply.will_close:
            connection.close()
        else:
            self._idle.append((connection, target, headers))
        status = reply.status
        if status != 200:
            rejected = 300 <= status < 500 and status not in (408, 429)
            raise (RequestRejected if rejected else WireError)(
                f"{url}: status {status}: {raw.decode('utf-8', 'replace')[:200]}"
            )
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise MalformedWireResponse(f"{url}: response body is not JSON: {exc}") from exc


class HttpBackend(BaseBackend):
    """OpenAI-style chat completions endpoint: one chat body per call."""

    def __init__(
        self, base_url: str, model: str, api_key: Optional[str] = None, timeout: float = 60.0
    ) -> None:
        super().__init__()
        self.model = model
        path = "/v1/chat/completions"
        self._client = HttpClient("backend 'http'", base_url, path, api_key, timeout)

    def close(self) -> None:
        self._client.close()

    def _complete(self, request: ModelRequest) -> str:
        payload = self._client.post(
            {
                "model": self.model,
                "messages": [{"role": "user", "content": request.prompt}],
                "temperature": request.temperature,
                "seed": request.seed,
                "max_tokens": request.max_output_tokens,
            }
        )
        try:
            text = payload["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise MalformedWireResponse(f"missing choices[0].message.content: {exc}") from exc
        if not isinstance(text, str):
            raise MalformedWireResponse("choices[0].message.content is not a string")
        return text


class HttpEmbeddingProvider:
    """OpenAI-style /v1/embeddings endpoint: one POST per text.

    The first reply fixes the dimension. A reply that is not a non-empty
    list of finite numbers of that length, with a norm that
    retrieval.normalize can divide by, raises MalformedWireResponse.
    """

    provider_id = "http"

    def __init__(
        self, base_url: str, model: str, api_key: Optional[str] = None, timeout: float = 60.0
    ) -> None:
        self.model = model
        self.dimension = 0
        self._lock = threading.Lock()
        self._client = HttpClient("http embedding", base_url, "/v1/embeddings", api_key, timeout)

    def close(self) -> None:
        self._client.close()

    def embed(self, text: str) -> list[float]:
        payload = self._client.post({"model": self.model, "input": text})
        try:
            values = payload["data"][0]["embedding"]
        except (KeyError, IndexError, TypeError) as exc:
            raise MalformedWireResponse(f"bad embedding response: {exc}") from exc
        if not isinstance(values, list) or not values:
            raise MalformedWireResponse("embedding is not a non-empty list")
        # JSON numbers parse to int or float; this also refuses true/false.
        if not all(type(value) in (int, float) for value in values):
            raise MalformedWireResponse("embedding holds an element that is not a number")
        try:
            floats = [float(value) for value in values]
        except OverflowError as exc:
            raise MalformedWireResponse(f"embedding element out of range: {exc}") from exc
        if not all(map(math.isfinite, floats)):
            raise MalformedWireResponse("embedding holds NaN or an infinity")
        # The sum normalize takes the root of: zero or an overflow would leave
        # a vector with no direction.
        if not 0.0 < sum(map(operator.mul, floats, floats)) < math.inf:
            raise MalformedWireResponse("embedding is all zeros, or too small or large to normalize")
        with self._lock:
            if self.dimension == 0:
                self.dimension = len(floats)
            dimension = self.dimension
        if len(floats) != dimension:
            raise MalformedWireResponse(
                f"embedding has {len(floats)} values, the first reply had {dimension}"
            )
        return floats
