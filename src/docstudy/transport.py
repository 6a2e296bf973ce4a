"""The chat client's HTTP transport: kept-alive HTTP/1.1 on plain sockets.

`qagen.ChatClient` loads this module with its first request, so commands
and replays that send none never load it. It speaks the part of HTTP/1.1
(RFC 9112) a chat request needs: a POST with a `Content-Length` body, and a
reply framed by `Content-Length`, by `chunked` or by the server closing.
`ssl` loads only for https, `urllib.request` only where it could pick a proxy.
"""

from __future__ import annotations

import io
import json
import os
import re
import select
import socket
import sys
import time
from urllib.parse import unquote, urlsplit

from . import __version__
from .errors import UsageError

# some gateways reject the default Python-urllib/* agent
USER_AGENT = f"docstudy/{__version__}"
# the standard library's bounds on a reply head: bytes per line, header lines
MAX_LINE = 65536
MAX_HEADERS = 100
_READ_STEP = 1 << 20  # a body is read in steps, so a false Content-Length costs no memory
_BAD_FIELD = re.compile(r"[\0\r\n]").search
_CHUNK_LINE = re.compile(rb"([0-9A-Fa-f]{1,16})[ \t]*(;.*)?\r?\n").fullmatch  # size, extension


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
    """The default transport: kept-alive HTTP(S) connections to one chat
    endpoint, for one thread. A request is `encode`d, then `send` puts it
    on a connection and returns the socket; `wait` tells which sockets'
    replies have begun, and `read` takes one reply. So a caller may build a
    request before a connection is free and keep a request in flight on
    each of several connections while it does other work.

    A request takes an idle connection, or opens one, and puts it back
    unless the reply closes it, so no more connections are open than
    requests are in flight. An idle connection the server has closed is
    dropped before use. The first request resolves the route as urllib
    does: HTTP(S)_PROXY and NO_PROXY, an absolute URI through an http proxy,
    a CONNECT tunnel for https, `Proxy-Authorization` from the proxy URL's
    credentials, and HTTPS verified by one default TLS context.
    """

    def __init__(self):
        self._idle = []
        self._busy = set()  # sent, reply unread: `close` closes these too
        self._begun = {}  # socket -> the first bytes of its reply, or the OSError that ended it
        self._route = None  # (connect(timeout), request target, Host, proxy headers), set by the first request

    def encode(self, url: str, headers: dict, payload: dict) -> bytes:
        """The bytes of one POST of `payload` as JSON to `url`."""
        try:
            if self._route is None:
                self._route = _resolve_route(url)
            _, selector, host, proxy_headers = self._route
            body = json.dumps(payload, allow_nan=False).encode("utf-8")
            # urllib's headers in urllib's order, less its `Connection: close`
            fields = {"Content-Length": str(len(body)), "Host": host, "User-Agent": USER_AGENT, **headers,
                      **proxy_headers}
            return _request_head(selector, fields) + body
        except ValueError as exc:  # a NaN in the payload, a newline in a header
            raise UsageError(f"cannot send a request to {url}: {exc}") from exc

    def send(self, message: bytes, timeout: float):
        """Send an encoded request: the socket whose reply `read` takes."""
        try:
            sock = self._checkout(self._route[0], timeout)
            try:
                sock.sendall(message)
            except BaseException:
                sock.close()
                raise
        except OSError as exc:  # timeouts and TLS failures too
            ssl = sys.modules.get("ssl")  # loaded only by an https route
            if ssl is not None and isinstance(exc, ssl.SSLCertVerificationError):
                raise  # no retry can make the certificate trusted
            raise ConnectionError(str(exc)) from exc
        self._busy.add(sock)
        return sock

    def wait(self, socks: list, timeout: float) -> list:
        """Those of `socks` whose reply has begun, once one has or `timeout`
        seconds have passed (at once if it is not positive). A TLS record
        that brings no reply bytes, such as a session ticket, does not count."""
        begun = [sock for sock in socks if sock in self._begun]
        if begun:
            return begun
        poller = select.poll()
        for sock in socks:
            poller.register(sock, select.POLLIN)
        by_fd = {sock.fileno(): sock for sock in socks}
        end = time.monotonic() + timeout
        while True:
            for fd, _ in poller.poll(max(end - time.monotonic(), 0) * 1000):
                head = _probe(by_fd[fd])
                if head is not None:
                    self._begun[by_fd[fd]] = head
                    begun.append(by_fd[fd])
            if begun or time.monotonic() >= end:
                return begun

    def read(self, sock):
        """(status, body) of the reply on `sock`. A reply that `wait` has
        not found begun is a timeout; it, and any framing or I/O failure,
        is a connection error."""
        self._busy.discard(sock)
        try:
            try:
                if sock not in self._begun and not self.wait([sock], 0):
                    raise TimeoutError("timed out")
                head = self._begun.pop(sock)
                if isinstance(head, OSError):
                    raise head
                with io.BufferedReader(_Resumed(sock, head)) as rfile:
                    status, data, keep = _read_reply(rfile)
            except BaseException:
                sock.close()
                raise
        except OSError as exc:
            raise ConnectionError(str(exc)) from exc
        if keep:
            self._idle.append(sock)
        else:
            sock.close()
        return status, _decode_body(data)

    def _checkout(self, connect, timeout: float):
        """An idle connection that is still open, or a new one."""
        while self._idle:
            sock = self._idle.pop()
            if not self.wait([sock], 0):  # an idle socket's "reply" begins when the server closes it
                return sock
            del self._begun[sock]
            sock.close()
        return connect(timeout)

    def close(self) -> None:
        """Close every connection, a request's still in flight included."""
        for sock in (*self._idle, *self._busy):
            sock.close()
        self._idle, self._busy, self._begun = [], set(), {}


def _probe(sock):
    """The first bytes of the reply on `sock`, which `poll` found readable,
    or the OSError that ends it; None if there were none after all, as when
    TLS took in only a session ticket."""
    timeout = sock.gettimeout()
    sock.settimeout(0)
    try:
        return sock.recv(MAX_LINE)
    except OSError as exc:
        ssl = sys.modules.get("ssl")  # loaded only by an https route
        if isinstance(exc, BlockingIOError) or ssl is not None and isinstance(exc, ssl.SSLWantReadError):
            return None
        return exc
    finally:
        sock.settimeout(timeout)


class _Resumed(io.RawIOBase):
    """The reply on a socket, as a stream that begins with the bytes `_probe` took."""

    def __init__(self, sock, head: bytes):
        self._sock, self._head = sock, memoryview(head)

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        if not self._head:
            return self._sock.recv_into(buffer)
        size = min(len(buffer), len(self._head))
        buffer[:size] = self._head[:size]
        self._head = self._head[size:]
        return size


def _request_head(selector: str, fields: dict) -> bytes:
    """The request line and headers of a POST, `Accept-Encoding: identity` first, as urllib sends them."""
    lines = [f"POST {selector} HTTP/1.1", "Accept-Encoding: identity"]
    for name, value in fields.items():
        if _BAD_FIELD(name) or _BAD_FIELD(value):  # the value is not shown: it may be a credential
            raise ValueError(f"header {name!r} holds a line break or NUL")
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def _read_reply(rfile):
    """(status, body, keep-alive) of the next final reply on `rfile`."""
    version, status, _, fields = _read_head(rfile)
    while status < 200:  # an interim 1xx reply has no body
        version, status, _, fields = _read_head(rfile)
    connection = fields.get(b"connection", b"").lower()
    if version == b"HTTP/1.0":
        keep = (b"keep-alive" in connection or b"keep-alive" in fields
                or b"keep-alive" in fields.get(b"proxy-connection", b"").lower())
    else:
        keep = b"close" not in connection
    if fields.get(b"transfer-encoding", b"").lower() == b"chunked":
        return status, _read_chunked(rfile), keep
    try:
        size = 0 if status in (204, 304) else int(fields[b"content-length"])
    except (KeyError, ValueError):
        size = -1
    if size < 0:  # no usable length: the body ends where the server closes
        return status, rfile.read(), False
    return status, _read_exact(rfile, size), keep


def _read_head(rfile):
    """(version, status, reason, fields) of a reply head, the fields as
    {lower-case name: value} in bytes; the first of a repeated name wins."""
    line = rfile.readline(MAX_LINE + 1)
    parts = line.split(None, 2)
    if (not line.endswith(b"\n") or len(parts) < 2 or not parts[0].startswith(b"HTTP/1.")
            or len(parts[1]) != 3 or not parts[1].isdigit() or parts[1] < b"100"):
        raise ConnectionError(f"bad status line {line[:80]!r}" if line else "the server closed without a reply")
    fields = {}
    for _ in range(MAX_HEADERS + 1):
        line = rfile.readline(MAX_LINE + 1)
        if line in (b"\r\n", b"\n"):
            return parts[0], int(parts[1]), parts[2].strip().decode("latin-1") if len(parts) > 2 else "", fields
        if not line.endswith(b"\n"):
            raise ConnectionError(f"a header line is longer than {MAX_LINE} bytes" if len(line) > MAX_LINE
                                  else "the reply head was cut short")
        name, _, value = line.partition(b":")
        fields.setdefault(name.lower(), value.strip())
    raise ConnectionError(f"more than {MAX_HEADERS} header lines")


def _read_chunked(rfile) -> bytes:
    """A chunked body; chunk extensions and the trailer are dropped."""
    chunks = []
    while True:
        line = rfile.readline(MAX_LINE + 1)
        match = _CHUNK_LINE(line)
        if not match:
            raise ConnectionError(f"bad chunk size line {line[:80]!r}")
        size = int(match[1], 16)
        if not size:  # the trailer ends at a blank line, or where a server closes in its place
            while rfile.readline(MAX_LINE + 1) not in (b"\r\n", b"\n", b""):
                pass
            return b"".join(chunks)
        chunks.append(_read_exact(rfile, size))
        _read_exact(rfile, 2)  # the CRLF that ends the chunk


def _read_exact(rfile, size: int) -> bytes:
    parts = []
    while size:
        part = rfile.read(min(size, _READ_STEP))
        if not part:
            raise ConnectionError(f"incomplete read: {size} more bytes expected")
        parts.append(part)
        size -= len(part)
    return b"".join(parts)


def _connect(address, timeout: float, tunnel=None, context=None, server_name=None):
    """A socket connected to `address`, through a CONNECT tunnel and TLS if given."""
    sock = socket.create_connection(address, timeout)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)  # no Nagle delay on a request's last segment
        if tunnel:
            sock.sendall(tunnel)
            with sock.makefile("rb") as rfile:
                _, status, reason, _ = _read_head(rfile)
            if status != 200:
                raise ConnectionError(f"Tunnel connection failed: {status} {reason}")
        return context.wrap_socket(sock, server_hostname=server_name) if context else sock
    except BaseException:
        sock.close()
        raise


def _address(hostport: str, default_port: int):
    """(host, port) of `host[:port]`; an IPv6 literal loses its brackets."""
    parts = urlsplit(f"//{hostport}")
    return parts.hostname, parts.port or default_port


def _proxy(scheme: str, host: str):
    """The proxy URL urllib would pick for `host`, or None. Off macOS and
    Windows urllib reads proxies only from the environment, so a route with
    no non-empty `<scheme>_proxy` variable needs no urllib."""
    if sys.platform != "darwin" and os.name != "nt":
        name = f"{scheme}_proxy"
        if not any(value and key.lower() == name for key, value in os.environ.items()):
            return None
    import urllib.request

    proxy = urllib.request.getproxies().get(scheme)
    return proxy if proxy and not urllib.request.proxy_bypass(host) else None


def _resolve_route(url: str):
    """(connect(timeout), request target, Host, proxy headers) for POSTs to
    `url`, through the proxy urllib would pick for it."""
    parts = urlsplit(url)
    host, tls = parts.netloc, parts.scheme == "https"
    selector = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    address = _address(host, 443 if tls else 80)
    server_name, tunnel, proxy_headers = address[0], None, {}
    proxy = _proxy(parts.scheme, host)
    if proxy:
        # urllib's own parser, so a proxy URL means what it meant under urlopen
        from urllib.request import _parse_proxy

        scheme, user, password, hostport = _parse_proxy(proxy)
        auth = {}
        if user and password:
            import base64

            token = base64.b64encode(f"{unquote(user)}:{unquote(password)}".encode()).decode("ascii")
            auth["Proxy-Authorization"] = f"Basic {token}"
        if tls:  # with a Host line, as Python 3.12+ writes it
            authority = f"[{server_name}]:{address[1]}" if ":" in server_name else f"{server_name}:{address[1]}"
            fields = "".join(f"{name}: {value}\r\n" for name, value in {**auth, "Host": authority}.items())
            tunnel = f"CONNECT {authority} HTTP/1.1\r\n{fields}\r\n".encode("ascii")
        elif scheme in (None, "http", "https"):
            selector, tls, proxy_headers = url, scheme == "https", auth
        else:
            raise ValueError(f"proxy {proxy!r} is not an http(s) URL")
        address = _address(unquote(hostport), 443 if tls else 80)
        if not tunnel:  # TLS, if any, is then to the proxy
            server_name = address[0]
    if not tls:
        return lambda timeout: _connect(address, timeout), selector, host, proxy_headers
    import ssl

    # one CA load per client, not one per connection
    context = ssl.create_default_context()
    context.set_alpn_protocols(["http/1.1"])  # the one protocol spoken here
    return lambda timeout: _connect(address, timeout, tunnel, context, server_name), selector, host, proxy_headers
