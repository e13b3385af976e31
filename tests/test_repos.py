import json
import random
from datetime import datetime, timezone
from email.utils import format_datetime, parsedate_to_datetime

import pytest

from cam.filters import filter_tree
from cam.repos import (
    CloneFailed,
    DiscoveryCriteria,
    LiveTransport,
    RepoSpec,
    ReplayTransport,
    Response,
    SEARCH_PAGE_SIZE,
    Transport,
    TransportError,
    branch_url,
    clone_repo,
    discover,
    search_url,
)
from cam.repos import _response_time
from conftest import commit_all, git, init_repo

DATE = "Sat, 04 Jan 2020 10:00:00 GMT"
SHA_A = "a" * 40
SHA_B = "b" * 40


def make_item(full_name, stars, size=500, branch="main"):
    return {
        "full_name": full_name,
        "stargazers_count": stars,
        "size": size,
        "default_branch": branch,
    }


class FakeTransport(Transport):
    def __init__(self, criteria, pages, shas, total=None):
        self.routes = {}
        self.calls = []
        all_items = [item for page in pages for item in page]
        total_count = total if total is not None else len(all_items)
        for number, items in enumerate(pages, start=1):
            body = json.dumps({"total_count": total_count, "items": items}).encode()
            self.routes[search_url(criteria, number)] = body
        for full_name, sha in shas.items():
            body = json.dumps({"commit": {"sha": sha}}).encode()
            self.routes[branch_url(full_name, "main")] = body

    def get(self, url):
        self.calls.append(url)
        if url not in self.routes:
            raise TransportError(f"unexpected {url}")
        return Response(200, {"Date": DATE}, self.routes[url])


def test_criteria_validation():
    DiscoveryCriteria()
    with pytest.raises(ValueError):
        DiscoveryCriteria(language="")
    with pytest.raises(ValueError):
        DiscoveryCriteria(min_stars=100, max_stars=10)
    with pytest.raises(ValueError):
        DiscoveryCriteria(min_stars=-1)
    with pytest.raises(ValueError):
        DiscoveryCriteria(max_repos=0)


def test_spec_validation_and_key():
    spec = RepoSpec("o/n", 1, 2, "main", SHA_A, "2020-01-04T10:00:00Z")
    assert spec.key == "o__n"
    with pytest.raises(ValueError):
        RepoSpec("plain", 1, 2, "main", SHA_A, "")
    with pytest.raises(ValueError):
        RepoSpec("o/n", 1, 2, "main", "ABC", "")
    round_trip = RepoSpec.from_dict(spec.to_dict())
    assert round_trip == spec


def test_search_url_shape():
    crit = DiscoveryCriteria(min_stars=5, max_stars=9, min_size_kb=7)
    url = search_url(crit, 3)
    assert url.startswith("/search/repositories?")
    assert "language%3Ajava" in url
    assert "stars%3A5..9" in url
    assert "size%3A%3E%3D7" in url
    assert "per_page=100" in url
    assert "page=3" in url


def test_branch_url_quotes_branch():
    assert branch_url("o/n", "main") == "/repos/o/n/branches/main"
    assert branch_url("o/n", "feat/x") == "/repos/o/n/branches/feat%2Fx"


def test_discover_sorts_dedupes_and_pins():
    crit = DiscoveryCriteria(max_repos=10)
    pages = [[
        make_item("b/beta", 50),
        make_item("a/alpha", 90),
        make_item("a/alpha", 70),
        make_item("c/gamma", 90),
    ]]
    t = FakeTransport(crit, pages, {"a/alpha": SHA_A, "b/beta": SHA_B, "c/gamma": SHA_A})
    result = discover(t, crit)
    assert [s.full_name for s in result.specs] == ["a/alpha", "c/gamma", "b/beta"]
    assert result.specs[0].stars == 90
    assert result.specs[0].head_commit == SHA_A
    assert all(s.discovered_at == "2020-01-04T10:00:00Z" for s in result.specs)
    assert result.total_available == 4
    assert not result.cap_exceeded


def test_discover_pages_until_short_page():
    crit = DiscoveryCriteria(max_repos=1000)
    page1 = [make_item(f"o/p{i:03}", 10) for i in range(SEARCH_PAGE_SIZE)]
    page2 = [make_item("o/tail", 10)]
    shas = {item["full_name"]: SHA_A for item in page1 + page2}
    t = FakeTransport(crit, [page1, page2], shas)
    result = discover(t, crit)
    assert len(result.specs) == SEARCH_PAGE_SIZE + 1
    search_calls = [c for c in t.calls if c.startswith("/search/")]
    assert len(search_calls) == 2
    assert not result.cap_exceeded


def test_discover_cap_truncates_and_flags():
    crit = DiscoveryCriteria(max_repos=2)
    pages = [[
        make_item("a/one", 90),
        make_item("b/two", 80),
        make_item("c/three", 70),
    ]]
    t = FakeTransport(crit, pages, {"a/one": SHA_A, "b/two": SHA_B})
    result = discover(t, crit)
    assert [s.full_name for s in result.specs] == ["a/one", "b/two"]
    assert result.cap_exceeded
    # no pin fetch for the truncated candidate
    assert branch_url("c/three", "main") not in t.calls


def test_discover_lowercases_pin():
    crit = DiscoveryCriteria(max_repos=5)
    t = FakeTransport(crit, [[make_item("a/up", 10)]], {"a/up": SHA_A.upper()})
    result = discover(t, crit)
    assert result.specs[0].head_commit == SHA_A



def date_time(stamp):
    return _response_time(Response(200, {"Date": stamp}, b""))


def email_time(stamp):
    return parsedate_to_datetime(stamp).astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def test_response_time_reads_a_date_as_email_utils_does():
    rng = random.Random(25)
    first, last = datetime(1970, 1, 1, tzinfo=timezone.utc), datetime(2099, 12, 31, 23, 59, 59, tzinfo=timezone.utc)
    seconds = [rng.randint(int(first.timestamp()), int(last.timestamp())) for _ in range(2000)]
    fixdates = [format_datetime(datetime.fromtimestamp(s, timezone.utc), usegmt=True) for s in seconds]
    fixdates += [format_datetime(first, usegmt=True), format_datetime(last, usegmt=True)]
    other_forms = [
        "Sunday, 06-Nov-94 08:49:37 GMT",  # RFC 850
        "Sun Nov  6 08:49:37 1994",  # asctime
        "Sun, 06 Nov 1994 10:49:37 +0200",  # numeric offset
        "Sun, 06 Nov 0094 08:49:37 GMT",  # email reads a year below 100 as two digits
    ]
    for stamp in fixdates + other_forms:
        assert date_time(stamp) == email_time(stamp), stamp
    assert date_time("Sun, 06 Nov 1994 10:49:37 +0200") == "1994-11-06T08:49:37Z"


@pytest.mark.parametrize("stamp", ["not a date", "Mon, 31 Feb 2020 10:00:00 GMT", "Sat, 04 Jan 2020 24:00:00 GMT", ""])
def test_response_time_without_a_readable_date_is_the_clock(stamp):
    before = datetime.now(timezone.utc).replace(microsecond=0)
    stamped = datetime.strptime(date_time(stamp), "%Y-%m-%dT%H:%M:%S%z")
    assert before <= stamped <= datetime.now(timezone.utc)


class FakeRaw:
    def __init__(self, status_code, headers=None, content=b"{}"):
        self.status_code = status_code
        self.headers = headers or {}
        self.content = content


class FakeSession:
    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.requests = []

    def get(self, url, headers=None, timeout=None):
        self.requests.append((url, headers))
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def live(outcomes, sleeps, token=None):
    return LiveTransport(
        base_url="https://api.example.test",
        token=token,
        sleep=sleeps.append,
        session=FakeSession(outcomes),
    )


def test_live_transport_headers_and_token(monkeypatch):
    monkeypatch.setenv("CAM_TOKEN", "sekrit")
    sleeps = []
    t = live([FakeRaw(200)], sleeps)
    t.get("/x")
    _url, headers = t._session.requests[0]
    assert headers["Authorization"] == "Bearer sekrit"
    assert headers["Accept"] == "application/vnd.github+json"
    assert headers["User-Agent"] == "cam-dataset-builder"


def test_live_transport_no_token_header_without_token(monkeypatch):
    monkeypatch.delenv("CAM_TOKEN", raising=False)
    sleeps = []
    t = live([FakeRaw(200)], sleeps)
    t.get("/x")
    _url, headers = t._session.requests[0]
    assert "Authorization" not in headers


def test_live_transport_retries_server_errors_with_backoff():
    sleeps = []
    t = live([FakeRaw(500), FakeRaw(502), FakeRaw(200, content=b'{"ok":1}')], sleeps)
    resp = t.get("/x")
    assert resp.json() == {"ok": 1}
    assert sleeps == [1.0, 2.0]


def test_live_transport_gives_up_after_max_tries():
    sleeps = []
    t = live([FakeRaw(500)] * 5, sleeps)
    with pytest.raises(TransportError):
        t.get("/x")
    assert sleeps == [1.0, 2.0, 4.0, 8.0]


def test_live_transport_honors_retry_after_on_rate_limit():
    sleeps = []
    limited = FakeRaw(403, {"X-RateLimit-Remaining": "0", "Retry-After": "7"})
    t = live([limited, FakeRaw(200)], sleeps)
    t.get("/x")
    # the rate-limit pause plus the backoff before the second attempt
    assert sleeps == [7.0, 1.0]


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "1.5", "1e3", "²", "", "Wed, 21 Oct 2015 07:28:00 GMT"])
def test_live_transport_ignores_a_retry_after_that_is_not_delay_seconds(value):
    """RFC 9110 delay-seconds is 1*DIGIT; any other value, which `float`
    may read as nan or inf, asks for no pause."""
    sleeps = []
    limited = FakeRaw(403, {"X-RateLimit-Remaining": "0", "Retry-After": value})
    t = live([limited, FakeRaw(200)], sleeps)
    t.get("/x")
    assert sleeps == [1.0]


def test_live_transport_plain_403_is_fatal():
    sleeps = []
    t = live([FakeRaw(403, {"X-RateLimit-Remaining": "4999"})], sleeps)
    with pytest.raises(TransportError):
        t.get("/x")
    assert sleeps == []


def test_live_transport_404_fatal_without_retry():
    sleeps = []
    session_outcomes = [FakeRaw(404)]
    t = live(session_outcomes, sleeps)
    with pytest.raises(TransportError):
        t.get("/x")
    assert len(t._session.requests) == 1


def test_replay_transport_roundtrip(tmp_path):
    (tmp_path / "body.json").write_bytes(b'{"n": 1}')
    (tmp_path / "index.json").write_text(
        json.dumps([{"url": "/a", "file": "body.json", "status": 200, "headers": {"Date": DATE}}])
    )
    t = ReplayTransport(tmp_path)
    resp = t.get("/a")
    assert resp.json() == {"n": 1}
    assert resp.header("date") == DATE
    with pytest.raises(TransportError):
        t.get("/missing")


def spec_for(repo, pin):
    return RepoSpec("local/fixture", 1, 1, "main", pin, "2020-01-04T10:00:00Z")


def test_clone_repo_is_bare_at_pin(tmp_path):
    src = init_repo(tmp_path / "src")
    (src / "A.java").write_text("class A {}\n")
    pin = commit_all(src, "one")
    (src / "B.java").write_text("class B {}\n")
    commit_all(src, "two")
    dest = tmp_path / "dest"
    clone_repo(spec_for(src, pin), dest, url=str(src))
    assert git(dest, "rev-parse", "--is-bare-repository") == "true"
    assert not list(dest.rglob("A.java"))
    payload, _kept = filter_tree(str(dest), pin)
    assert payload["kept"] == ["A.java"]
    assert "B.java" not in [path for path, _reason in payload["verdicts"]]


def test_clone_repo_rejects_unreachable_pin(tmp_path):
    src = init_repo(tmp_path / "src")
    (src / "A.java").write_text("class A {}\n")
    commit_all(src, "one")
    with pytest.raises(CloneFailed) as info:
        clone_repo(spec_for(src, "0" * 40), tmp_path / "dest", url=str(src))
    assert info.value.reason == "pin-unreachable"
    # An annotated tag names its commit, but is not the commit itself.
    git(src, "tag", "-a", "-m", "release", "v1")
    with pytest.raises(CloneFailed) as info:
        clone_repo(spec_for(src, git(src, "rev-parse", "v1")), tmp_path / "dest", url=str(src))
    assert info.value.reason == "pin-unreachable"


@pytest.mark.parametrize("reason", ["pin-unreachable", "clone-error"])
def test_failed_clone_leaves_no_directory(tmp_path, reason):
    src = init_repo(tmp_path / "src")
    (src / "A.java").write_text("class A {}\n")
    pin = commit_all(src, "one")
    url = str(src) if reason == "pin-unreachable" else str(tmp_path / "nowhere")
    dest = tmp_path / "github" / "owner" / "name"
    with pytest.raises(CloneFailed) as info:
        clone_repo(spec_for(src, "0" * 40 if reason == "pin-unreachable" else pin), dest, url=url)
    assert info.value.reason == reason
    assert not dest.exists()


def test_clone_repo_rejects_dirty_dest(tmp_path):
    src = init_repo(tmp_path / "src")
    (src / "A.java").write_text("class A {}\n")
    pin = commit_all(src, "one")
    dest = tmp_path / "dest"
    dest.mkdir()
    (dest / "junk").write_text("x")
    with pytest.raises(CloneFailed) as info:
        clone_repo(spec_for(src, pin), dest, url=str(src))
    assert info.value.reason == "dest-not-empty"


def test_clone_repo_bad_url(tmp_path):
    with pytest.raises(CloneFailed) as info:
        clone_repo(spec_for(None, SHA_A), tmp_path / "dest", url=str(tmp_path / "nowhere"))
    assert info.value.reason == "clone-error"
