"""The chat client's HTTP transport: kept-alive `http.client` connections.

`qagen.ChatClient` loads this module with its first request, so commands
and replays that send none never load it or the standard library's HTTP
modules.
"""

from __future__ import annotations

import base64
import functools
import http.client
import json
import select
import ssl
import threading
import urllib.request
from urllib.parse import unquote, urlsplit

from . import __version__
from .errors import UsageError

# some gateways reject the default Python-urllib/* agent
USER_AGENT = f"docstudy/{__version__}"


def _decode_body(raw: bytes):
    """A response body as JSON; one that is not JSON keeps its first 200
    characters under "raw", so the caller still acts on the status."""
    if not raw:
        return {}
    try:
        return json.loads(raw)
    except ValueError:
        return {"raw": raw.decode("utf-8", "replace")[:200]}


class HttpPool:
    """The default transport, `(url, headers, payload, timeout) -> (status,
    body)`: kept-alive HTTP(S) connections to one chat endpoint.

    A request takes an idle connection, or opens one, and puts it back
    unless the reply closes it, so no more connections are open than
    requests are in flight. An idle connection the server has closed is
    dropped before use. The first request resolves the route as urllib
    does: HTTP(S)_PROXY and NO_PROXY, an absolute URI through an http proxy,
    a CONNECT tunnel for https, `Proxy-Authorization` from the proxy URL's
    credentials, and HTTPS verified by one default TLS context.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._idle = []
        self._connect = None  # with the three below, set by the first request
        self._selector = self._host = ""
        self._proxy_headers = {}

    def __call__(self, url: str, headers: dict, payload: dict, timeout: float):
        try:
            body = json.dumps(payload, allow_nan=False).encode("utf-8")
            conn = self._checkout(url, timeout)
            # urllib's headers in urllib's order, less its `Connection: close`
            headers = {"Content-Length": str(len(body)), "Host": self._host, "User-Agent": USER_AGENT, **headers,
                       **self._proxy_headers}
            try:
                conn.request("POST", self._selector, body, headers)
                response = conn.getresponse()
                data = response.read()
            except BaseException:
                conn.close()
                raise
        except ssl.SSLCertVerificationError:
            raise  # no retry can make the certificate trusted
        # timeouts and other TLS failures are OSErrors; IncompleteRead and BadStatusLine are not
        except (OSError, http.client.HTTPException) as exc:
            raise ConnectionError(str(exc)) from exc
        except ValueError as exc:  # a NaN in the payload, a newline in a header
            raise UsageError(f"cannot send a request to {url}: {exc}") from exc
        if not response.will_close:  # an HTTP/1.0 or `Connection: close` reply has closed it
            with self._lock:
                self._idle.append(conn)
        return response.status, _decode_body(data)

    def _checkout(self, url: str, timeout: float):
        """An idle connection that is still open, or a new one."""
        with self._lock:
            if self._connect is None:
                self._connect, self._selector, self._host, self._proxy_headers = _resolve_route(url)
            while self._idle:
                conn = self._idle.pop()
                poller = select.poll()
                poller.register(conn.sock, select.POLLIN)
                if not poller.poll(0):  # an idle socket turns readable when the server closes it
                    return conn
                conn.close()
        return self._connect(timeout=timeout)

    def close(self) -> None:
        """Close the idle connections; call it once no request is in flight."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()


def _resolve_route(url: str):
    """(connect(timeout), request target, Host, proxy headers) for POSTs to
    `url`, through the proxy urllib would pick for it."""
    parts = urlsplit(url)
    host, tls = parts.netloc, parts.scheme == "https"
    selector = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    target, tunnel, proxy_headers = host, None, {}
    proxy = urllib.request.getproxies().get(parts.scheme)
    if proxy and not urllib.request.proxy_bypass(host):
        # urllib's own parser, so a proxy URL means what it meant under urlopen
        scheme, user, password, hostport = urllib.request._parse_proxy(proxy)
        target, auth = unquote(hostport), {}
        if user and password:
            token = base64.b64encode(f"{unquote(user)}:{unquote(password)}".encode()).decode("ascii")
            auth["Proxy-Authorization"] = f"Basic {token}"
        if tls:
            tunnel = {"host": host, "headers": auth}
        elif scheme in (None, "http", "https"):
            selector, tls, proxy_headers = url, scheme == "https", auth
        else:
            raise ValueError(f"proxy {proxy!r} is not an http(s) URL")
    if not tls:
        return functools.partial(http.client.HTTPConnection, target), selector, host, proxy_headers
    # one CA load per client, not one per connection
    context = ssl.create_default_context()
    context.set_alpn_protocols(["http/1.1"])  # as http.client's own context does

    def connect(timeout: float):
        conn = http.client.HTTPSConnection(target, timeout=timeout, context=context)
        if tunnel:
            conn.set_tunnel(**tunnel)
        return conn

    return connect, selector, host, proxy_headers
