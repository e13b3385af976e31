"""Repository discovery and cloning.

Discovery talks to the GitHub search API through a small transport
abstraction so runs can be replayed byte-for-byte from recorded responses.
Every discovered repository is pinned to the head commit of its default
branch; all later stages work strictly against that pin.

The API token is read from the CAM_TOKEN environment variable and is used
only inside request headers; it is never logged and never stored in any
output file.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import time
import urllib.parse
from abc import ABC, abstractmethod
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

SEARCH_PAGE_SIZE = 100
SEARCH_PAGE_LIMIT = 10

_SHA_RE = re.compile(r"[0-9a-f]{40}")
_TIME_FORMAT = "%Y-%m-%dT%H:%M:%SZ"
# An IMF-fixdate (RFC 9110, section 5.6.7), the form servers send a Date in.
_IMF_FIXDATE = re.compile(
    r"(?:Mon|Tue|Wed|Thu|Fri|Sat|Sun), ([0-9]{2}) "
    r"(Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec) ([0-9]{4}) "
    r"([0-9]{2}):([0-9]{2}):([0-9]{2}) GMT"
)
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


# Named tuples and plain classes rather than dataclasses: importing
# `dataclasses` (with `inspect`) took a quarter of a `cam discover` process.
class _Criteria(NamedTuple):
    language: str = "java"
    min_stars: int = 1000
    max_stars: int = 10000
    min_size_kb: int = 200
    max_repos: int = 1000


class DiscoveryCriteria(_Criteria):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "DiscoveryCriteria":
        self = super().__new__(cls, *args, **kwargs)
        if not self.language:
            raise ValueError("language must be non-empty")
        if self.min_stars < 0 or self.max_stars < 0 or self.min_size_kb < 0:
            raise ValueError("star and size bounds must be non-negative")
        if self.min_stars > self.max_stars:
            raise ValueError("min_stars exceeds max_stars")
        if self.max_repos < 1:
            raise ValueError("max_repos must be at least 1")
        return self

    def to_dict(self) -> dict:
        return self._asdict()


class _Spec(NamedTuple):
    full_name: str
    stars: int
    size_kb: int
    default_branch: str
    head_commit: str
    discovered_at: str


class RepoSpec(_Spec):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "RepoSpec":
        self = super().__new__(cls, *args, **kwargs)
        if "/" not in self.full_name:
            raise ValueError(f"full_name must be owner/name: {self.full_name!r}")
        if not _SHA_RE.fullmatch(self.head_commit):
            raise ValueError(f"head_commit must be 40 lowercase hex digits: {self.head_commit!r}")
        return self

    @property
    def key(self) -> str:
        return self.full_name.replace("/", "__")

    def to_dict(self) -> dict:
        return self._asdict()

    @classmethod
    def from_dict(cls, data: dict) -> "RepoSpec":
        """The spec from its fields in *data*; other keys are ignored."""
        return cls(**{name: data[name] for name in cls._fields})


class Response:
    def __init__(self, status: int, headers: dict[str, str], body: bytes):
        self.status = status
        self.headers = {key.lower(): value for key, value in headers.items()}  # names lowercased
        self.body = body

    def json(self):
        return json.loads(self.body.decode("utf-8"))

    def header(self, name: str) -> str | None:
        return self.headers.get(name.lower())


class TransportError(Exception):
    pass


class Transport(ABC):
    """Fetches API responses for server-relative URLs like /search/..."""

    @abstractmethod
    def get(self, url: str) -> Response: ...


class LiveTransport(Transport):
    """Real HTTP transport with bounded retries.

    Retries server errors and rate limits up to max_tries with exponential
    backoff (base 1s, factor 2), honoring Retry-After when present. The
    sleep function is injectable for tests.
    """

    def __init__(
        self,
        base_url: str = "https://api.github.com",
        token: str | None = None,
        max_tries: int = 5,
        sleep=time.sleep,
        session=None,
    ):
        import requests

        self.base_url = base_url.rstrip("/")
        self._token = token if token is not None else os.environ.get("CAM_TOKEN")
        self.max_tries = max_tries
        self._sleep = sleep
        self._session = session if session is not None else requests.Session()

    def _headers(self) -> dict[str, str]:
        headers = {
            "Accept": "application/vnd.github+json",
            "User-Agent": "cam-dataset-builder",
        }
        if self._token:
            headers["Authorization"] = f"Bearer {self._token}"
        return headers

    def get(self, url: str) -> Response:
        delay = 1.0
        last_error = "no attempt made"
        for attempt in range(self.max_tries):
            if attempt > 0:
                self._sleep(delay)
                delay *= 2.0
            try:
                raw = self._session.get(self.base_url + url, headers=self._headers(), timeout=30)
            except Exception as exc:  # connection-level failure, retry
                last_error = f"connection error: {type(exc).__name__}"
                continue
            resp = Response(raw.status_code, dict(raw.headers), raw.content)
            if resp.status in (403, 429) and _is_rate_limit(resp):
                retry_after = _retry_after_seconds(resp)
                if retry_after is not None:
                    self._sleep(retry_after)
                last_error = f"rate limited (status {resp.status})"
                continue
            if resp.status >= 500:
                last_error = f"server error {resp.status}"
                continue
            if resp.status >= 400:
                raise TransportError(f"GET {url} failed with status {resp.status}")
            return resp
        raise TransportError(f"GET {url} gave up after {self.max_tries} tries: {last_error}")


def _is_rate_limit(resp: Response) -> bool:
    if resp.status == 429:
        return True
    remaining = resp.header("x-ratelimit-remaining")
    if remaining is not None:
        return remaining.strip() == "0"
    return resp.header("retry-after") is not None


def _retry_after_seconds(resp: Response) -> float | None:
    """The delay a Retry-After header asks for, when it is delay-seconds
    (RFC 9110: 1*DIGIT); a date, 'nan', 'inf' or anything else is no delay."""
    value = (resp.header("retry-after") or "").strip()
    return float(value) if value.isascii() and value.isdigit() else None


class ReplayTransport(Transport):
    """Serves responses recorded under a directory.

    The directory holds index.json, a list of entries with url, file,
    status, and headers; bodies live in the named files next to it.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        index = json.loads((self.directory / "index.json").read_text(encoding="utf-8"))
        self._by_url = {entry["url"]: entry for entry in index}

    def get(self, url: str) -> Response:
        entry = self._by_url.get(url)
        if entry is None:
            raise TransportError(f"no recorded response for {url}")
        body = (self.directory / entry["file"]).read_bytes()
        return Response(entry.get("status", 200), dict(entry.get("headers", {})), body)


def search_url(criteria: DiscoveryCriteria, page: int) -> str:
    query = (
        f"language:{criteria.language} "
        f"stars:{criteria.min_stars}..{criteria.max_stars} "
        f"size:>={criteria.min_size_kb}"
    )
    params = {
        "q": query,
        "sort": "stars",
        "order": "desc",
        "per_page": str(SEARCH_PAGE_SIZE),
        "page": str(page),
    }
    return "/search/repositories?" + urllib.parse.urlencode(params)


def branch_url(full_name: str, branch: str) -> str:
    return f"/repos/{full_name}/branches/{urllib.parse.quote(branch, safe='')}"


class DiscoveryResult:
    def __init__(self, specs: list[RepoSpec], cap_exceeded: bool, total_available: int):
        self.specs = specs
        self.cap_exceeded = cap_exceeded
        self.total_available = total_available

    def to_dict(self, criteria: DiscoveryCriteria) -> dict:
        return {
            "criteria": criteria.to_dict(),
            "cap_exceeded": self.cap_exceeded,
            "total_available": self.total_available,
            "repos": [spec.to_dict() for spec in self.specs],
        }


def _response_time(resp: Response) -> str:
    """The response's Date in UTC, or the clock's time when it has none
    that `email.utils.parsedate_to_datetime` can read."""
    stamp = resp.header("Date")
    if stamp:
        try:
            return _parse_date(stamp).astimezone(timezone.utc).strftime(_TIME_FORMAT)
        except (ValueError, TypeError):
            pass
    return datetime.now(timezone.utc).strftime(_TIME_FORMAT)


def _parse_date(stamp: str) -> datetime:
    """`email.utils.parsedate_to_datetime(stamp)`, without importing
    `email` for an IMF-fixdate of a four-digit year."""
    match = _IMF_FIXDATE.fullmatch(stamp)
    # email reads a year below 100 as two digits, 0099 as 1999.
    if match is None or match[3] < "0100":
        from email.utils import parsedate_to_datetime

        return parsedate_to_datetime(stamp)
    day, month, year, hour, minute, second = match.groups()
    return datetime(int(year), _MONTHS.index(month) + 1, int(day), int(hour), int(minute), int(second), tzinfo=timezone.utc)


def discover(transport: Transport, criteria: DiscoveryCriteria) -> DiscoveryResult:
    """Run the search, dedupe, rank, and pin every selected repository."""
    raw: list[dict] = []
    total_available = 0
    pages_done = 0
    for page in range(1, SEARCH_PAGE_LIMIT + 1):
        resp = transport.get(search_url(criteria, page))
        payload = resp.json()
        total_available = int(payload.get("total_count", 0))
        items = payload.get("items", [])
        raw.extend(items)
        pages_done = page
        if len(items) < SEARCH_PAGE_SIZE:
            break

    # The first item of each name, by stars and then name.
    firsts: dict[str, dict] = {}
    for item in raw:
        firsts.setdefault(item["full_name"], item)
    candidates = sorted(firsts.values(), key=lambda it: (-int(it["stargazers_count"]), it["full_name"]))
    cap_exceeded = pages_done == SEARCH_PAGE_LIMIT and total_available > len(raw)
    if len(candidates) > criteria.max_repos:
        candidates = candidates[: criteria.max_repos]
        cap_exceeded = True

    specs: list[RepoSpec] = []
    for item in candidates:
        branch = item["default_branch"]
        resp = transport.get(branch_url(item["full_name"], branch))
        sha = str(resp.json()["commit"]["sha"]).lower()
        specs.append(
            RepoSpec(
                full_name=item["full_name"],
                stars=int(item["stargazers_count"]),
                size_kb=int(item["size"]),
                default_branch=branch,
                head_commit=sha,
                discovered_at=_response_time(resp),
            )
        )
    return DiscoveryResult(specs, cap_exceeded, total_available)


class CloneFailed(Exception):
    def __init__(self, reason: str, detail: str = ""):
        super().__init__(reason if not detail else f"{reason}: {detail}")
        self.reason = reason


def clone_repo(spec: RepoSpec, dest: str | Path, url: str | None = None) -> None:
    """Clone a repository bare and check that it holds its pinned commit.

    dest must not already contain anything; the pin must name a commit in
    the cloned objects or the clone is reported as pin-unreachable. A clone
    that fails leaves no directory at dest, so no later stage can mistake
    it for a clone of the pin.
    """
    dest = Path(dest)
    if dest.exists() and any(dest.iterdir()):
        raise CloneFailed("dest-not-empty", str(dest))
    dest.parent.mkdir(parents=True, exist_ok=True)
    if url is None:
        url = f"https://github.com/{spec.full_name}.git"
    try:
        _clone_at_pin(spec, dest, url)
    except CloneFailed:
        shutil.rmtree(dest, ignore_errors=True)
        raise


def _clone_at_pin(spec: RepoSpec, dest: Path, url: str) -> None:
    try:
        run_git("clone", "--bare", "--quiet", url, str(dest))
    except GitCommandError as exc:
        raise CloneFailed("clone-error", str(exc).split("\n")[-1]) from exc
    try:
        # Without ^{commit}, any 40-hex name verifies, whether or not the object exists.
        pinned = run_git("-C", str(dest), "rev-parse", "--quiet", "--verify", spec.head_commit + "^{commit}")
    except GitCommandError:
        pinned = ""
    if pinned.strip() != spec.head_commit:
        raise CloneFailed("pin-unreachable", spec.head_commit)


def git_env() -> dict[str, str]:
    """The environment of every git child. git fails where it would ask for
    credentials (a deleted or private repository over HTTPS), so no run
    waits on a prompt that nobody answers: no terminal prompt, and an empty
    GIT_ASKPASS, which makes git skip `core.askPass` and SSH_ASKPASS too."""
    return {**os.environ, "GIT_TERMINAL_PROMPT": "0", "GIT_ASKPASS": ""}


class GitCommandError(Exception):
    pass


def run_git(*args: str) -> str:
    """Run `git <args>` to its end on no input (stdin is the null device).

    Returns stdout decoded with `os.fsdecode`, so odd bytes in a path
    survive; a nonzero exit raises GitCommandError with git's stderr.
    """
    import subprocess

    proc = subprocess.run(["git", *args], stdin=subprocess.DEVNULL, capture_output=True, env=git_env())
    if proc.returncode != 0:
        raise GitCommandError(proc.stderr.decode("utf-8", "replace").strip() or f"git {' '.join(args)} failed")
    return os.fsdecode(proc.stdout)
