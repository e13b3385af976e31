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
import subprocess
import time
import urllib.parse
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from datetime import datetime, timezone
from email.utils import parsedate_to_datetime
from pathlib import Path

SEARCH_PAGE_SIZE = 100
SEARCH_PAGE_LIMIT = 10

_SHA_RE = re.compile(r"[0-9a-f]{40}")
_TIME_FORMAT = "%Y-%m-%dT%H:%M:%SZ"


@dataclass(frozen=True)
class DiscoveryCriteria:
    language: str = "java"
    min_stars: int = 1000
    max_stars: int = 10000
    min_size_kb: int = 200
    max_repos: int = 1000

    def __post_init__(self) -> None:
        if not self.language:
            raise ValueError("language must be non-empty")
        if self.min_stars < 0 or self.max_stars < 0 or self.min_size_kb < 0:
            raise ValueError("star and size bounds must be non-negative")
        if self.min_stars > self.max_stars:
            raise ValueError("min_stars exceeds max_stars")
        if self.max_repos < 1:
            raise ValueError("max_repos must be at least 1")

    def to_dict(self) -> dict:
        return {
            "language": self.language,
            "min_stars": self.min_stars,
            "max_stars": self.max_stars,
            "min_size_kb": self.min_size_kb,
            "max_repos": self.max_repos,
        }


@dataclass(frozen=True)
class RepoSpec:
    full_name: str
    stars: int
    size_kb: int
    default_branch: str
    head_commit: str
    discovered_at: str

    def __post_init__(self) -> None:
        if "/" not in self.full_name:
            raise ValueError(f"full_name must be owner/name: {self.full_name!r}")
        if not _SHA_RE.fullmatch(self.head_commit):
            raise ValueError(f"head_commit must be 40 lowercase hex digits: {self.head_commit!r}")

    @property
    def key(self) -> str:
        return self.full_name.replace("/", "__")

    def to_dict(self) -> dict:
        return {
            "full_name": self.full_name,
            "stars": self.stars,
            "size_kb": self.size_kb,
            "default_branch": self.default_branch,
            "head_commit": self.head_commit,
            "discovered_at": self.discovered_at,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RepoSpec":
        return cls(
            full_name=data["full_name"],
            stars=data["stars"],
            size_kb=data["size_kb"],
            default_branch=data["default_branch"],
            head_commit=data["head_commit"],
            discovered_at=data["discovered_at"],
        )


@dataclass
class Response:
    status: int
    headers: dict[str, str]
    body: bytes

    def json(self):
        return json.loads(self.body.decode("utf-8"))

    def header(self, name: str) -> str | None:
        for key, value in self.headers.items():
            if key.lower() == name.lower():
                return value
        return None


class TransportError(Exception):
    pass


class RateLimited(Exception):
    def __init__(self, retry_after: float | None):
        super().__init__("rate limited")
        self.retry_after = retry_after


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
            headers = dict(raw.headers)
            if raw.status_code in (403, 429) and _is_rate_limit(raw.status_code, headers):
                retry_after = _retry_after_seconds(headers)
                if retry_after is not None:
                    self._sleep(retry_after)
                last_error = f"rate limited (status {raw.status_code})"
                continue
            if raw.status_code >= 500:
                last_error = f"server error {raw.status_code}"
                continue
            if raw.status_code >= 400:
                raise TransportError(f"GET {url} failed with status {raw.status_code}")
            return Response(raw.status_code, headers, raw.content)
        raise TransportError(f"GET {url} gave up after {self.max_tries} tries: {last_error}")


def _is_rate_limit(status: int, headers: dict[str, str]) -> bool:
    if status == 429:
        return True
    for key, value in headers.items():
        if key.lower() == "x-ratelimit-remaining":
            return value.strip() == "0"
    return "retry-after" in {k.lower() for k in headers}


def _retry_after_seconds(headers: dict[str, str]) -> float | None:
    for key, value in headers.items():
        if key.lower() == "retry-after":
            try:
                return max(float(value), 0.0)
            except ValueError:
                return None
    return None


class ReplayTransport(Transport):
    """Serves responses recorded under a directory.

    The directory holds index.json, a list of entries with url, file,
    status, and headers; bodies live in the named files next to it.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        index = json.loads((self.directory / "index.json").read_text(encoding="utf-8"))
        self._by_url: dict[str, dict] = {}
        for entry in index:
            self._by_url[entry["url"]] = entry

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


@dataclass
class DiscoveryResult:
    specs: list[RepoSpec] = field(default_factory=list)
    cap_exceeded: bool = False
    total_available: int = 0

    def to_dict(self, criteria: DiscoveryCriteria) -> dict:
        return {
            "criteria": criteria.to_dict(),
            "cap_exceeded": self.cap_exceeded,
            "total_available": self.total_available,
            "repos": [spec.to_dict() for spec in self.specs],
        }


def _response_time(resp: Response) -> str:
    stamp = resp.header("Date")
    if stamp:
        try:
            parsed = parsedate_to_datetime(stamp)
            return parsed.astimezone(timezone.utc).strftime(_TIME_FORMAT)
        except (ValueError, TypeError):
            pass
    return datetime.now(timezone.utc).strftime(_TIME_FORMAT)


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

    seen: set[str] = set()
    candidates: list[dict] = []
    for item in raw:
        name = item["full_name"]
        if name in seen:
            continue
        seen.add(name)
        candidates.append(item)
    candidates.sort(key=lambda it: (-int(it["stargazers_count"]), it["full_name"]))
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
    """Clone a repository and check out its pinned commit.

    dest must not already contain anything; the pin must resolve inside the
    cloned history or the clone is reported as pin-unreachable.
    """
    dest = Path(dest)
    if dest.exists() and any(dest.iterdir()):
        raise CloneFailed("dest-not-empty", str(dest))
    dest.parent.mkdir(parents=True, exist_ok=True)
    if url is None:
        url = f"https://github.com/{spec.full_name}.git"
    proc = subprocess.run(
        ["git", "clone", "--quiet", url, str(dest)],
        capture_output=True,
        text=True,
        errors="replace",
    )
    if proc.returncode != 0:
        raise CloneFailed("clone-error", proc.stderr.strip().split("\n")[-1] if proc.stderr else "")
    checkout = subprocess.run(
        ["git", "-C", str(dest), "checkout", "--quiet", spec.head_commit],
        capture_output=True,
        text=True,
        errors="replace",
    )
    if checkout.returncode != 0:
        raise CloneFailed("pin-unreachable", spec.head_commit)
    head = subprocess.run(
        ["git", "-C", str(dest), "rev-parse", "HEAD"],
        capture_output=True,
        text=True,
        errors="replace",
    )
    if head.returncode != 0 or head.stdout.strip().lower() != spec.head_commit:
        raise CloneFailed("pin-unreachable", spec.head_commit)
