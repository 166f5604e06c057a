"""Deterministic synthetic web + mock HTTP resolver.

The sandbox has no network, so the crawl engine runs against a synthetic
"web" that is a pure function of the URL (seeded): fetching IS rendering.
This gives arbitrarily large, perfectly reproducible corpora without
materializing anything, and it lets politeness/throttle/retry logic be
tested deterministically (status sequences are derived from the url hash —
the fetch_plan of FIXTURES.md §4 as a function instead of a table).

Session-day ground truth (which dates answer 200 to the probe, reference
``sessiondaychecker.py:126-139``) is a seeded hash of the date: weekdays
are sessions with p≈0.42, weekends never — giving realistic gaps.
"""

from __future__ import annotations

import zlib
from datetime import date, timedelta

import numpy as np

from ..functions.extract import html_to_text
from ..functions.pdf import render_pdf_text
from ..functions.rules import RULES_BY_NAME, UrlRule

SEED = 42

# ---------------------------------------------------------------- sessions


def is_session_day(d: date, seed: int = SEED) -> bool:
    if d.weekday() >= 5:
        return False
    h = zlib.crc32(f"session:{seed}:{d.isoformat()}".encode())
    return (h % 100) < 42


def is_session_vec(dates: np.ndarray, seed: int = SEED) -> np.ndarray:
    days = np.asarray(dates, dtype="datetime64[D]")
    out = np.zeros(len(days), dtype=bool)
    for i, d in enumerate(days.tolist()):
        out[i] = is_session_day(d, seed)
    return out


# ---------------------------------------------------------------- corpus text

_WORDS = {
    "EN": (
        "the sitting opened parliament debate vote amendment council commission "
        "president member states budget agenda item procedure report session "
        "minutes proceedings question motion resolution directive regulation"
    ).split(),
    "DE": (
        "die Sitzung eröffnet Parlament Aussprache Abstimmung Änderungsantrag Rat "
        "Kommission Präsident Mitgliedstaaten Haushalt Tagesordnung Punkt Verfahren "
        "Bericht Tagung Protokoll Verhandlungen Anfrage Antrag Entschließung"
    ).split(),
    "FR": (
        "la séance ouverte parlement débat vote amendement conseil commission "
        "président états membres budget ordre jour point procédure rapport session "
        "procès-verbal travaux question motion résolution directive règlement"
    ).split(),
}


def _rng_for(url: str, seed: int = SEED) -> np.random.Generator:
    return np.random.default_rng(zlib.crc32(f"page:{seed}:{url}".encode()))


def render_html(url: str, rulename: str, day: date, lang: str, seed: int = SEED,
                scale: int = 1) -> bytes:
    """Deterministic synthetic HTML for a document url.

    Includes the markup classes the extraction contract covers: entities,
    &nbsp;, comments, script/style, relative links (rewrite_links food),
    occasional <pre> blocks and CDATA sections.
    """
    rng = _rng_for(url, seed)
    words = _WORDS.get(lang, _WORDS["EN"])
    title = f"{rulename} {day.isoformat()} {lang}"

    def sentence(n: int) -> str:
        return " ".join(rng.choice(words, size=n)) + "."

    paras = []
    for i in range(int(rng.integers(3, 12)) * scale):
        paras.append(f"<p>{sentence(int(rng.integers(6, 30)))}</p>")
        if rng.random() < 0.15:
            paras.append(f"<!-- item {i} -->")
        if rng.random() < 0.2:
            paras.append(
                f'<p>Item {i}: votes &amp; results&nbsp;&mdash; see '
                f'<a href="/doceo/document/item-{i}">annex</a>.</p>'
            )
        if rng.random() < 0.08:
            paras.append(f"<pre>  tab {i}\n  col  col</pre>")
        if rng.random() < 0.05:
            paras.append(f"<![CDATA[raw-{i}]]>")
    body = "\n".join(paras)
    html = (
        "<!DOCTYPE html>\n"
        f"<html><head><title>{title}</title>\n"
        '<style>body { font-family: serif; }</style>\n'
        f'<script src="/static/app.js"></script>\n'
        f'<script>var page = "{rulename}" /* {day} */;</script>\n'
        "</head>\n<body>\n"
        f"<h1>{title}</h1>\n{body}\n"
        "</body></html>\n"
    )
    return html.encode("utf-8")


_PDF_WORDS = (
    "session protocol agenda vote amendment rapporteur committee debate "
    "minutes council commission member state directive regulation recital "
    "article paragraph annex procedure sitting"
).split()


def render_pdf(url: str, seed: int = SEED) -> bytes:
    """Structurally valid deterministic PDF (catalog / page tree / font /
    FlateDecode'd content streams / xref / trailer) whose text derives
    from the url only — extracted downstream by the from-scratch
    ``functions.pdf.pdf_to_text`` (the reference runs pdfminer
    ``extract_text``, extraction.py:44-45). Variants exercise the
    extractor's paths: every 3rd doc uncompressed, every 4th shown as
    ``TJ`` word arrays with kerning gaps instead of literal spaces; every
    5th a PDF 1.5 xref STREAM (PNG-predicted W rows), every 10th with the
    dict objects additionally packed in a /Type/ObjStm."""
    rng = _rng_for(url, seed)
    n_words = int(rng.integers(80, 400))
    words = [_PDF_WORDS[i] for i in rng.integers(0, len(_PDF_WORDS), n_words)]
    text = f"Document {url.rsplit('/', 1)[-1]} " + " ".join(words)
    variant = int(rng.integers(0, 12))
    return render_pdf_text(
        text,
        compress=(variant % 3 != 0),
        tj_words=(variant % 4 == 0),
        xref_stream=(variant % 5 == 0),
        objstm=(variant % 10 == 0),
    )


def render_xml(url: str, rulename: str, day: date, seed: int = SEED) -> bytes:
    rng = _rng_for(url, seed)
    rows = "\n".join(
        f'  <vote id="{i}" result="{"+" if rng.random() < 0.6 else "-"}"/>'
        for i in range(int(rng.integers(5, 40)))
    )
    return f'<?xml version="1.0"?>\n<votes date="{day}">\n{rows}\n</votes>\n'.encode()


# ---------------------------------------------------------------- mock HTTP


def status_plan(url: str, seed: int = SEED) -> list[int]:
    """Deterministic per-url status sequence (attempt i → plan[min(i, -1)]).

    Covers the reference's throttle classes {429,460}, [500,599], timeout
    408 and error 460 mapping (documentdownloader.py:132-150)."""
    b = zlib.crc32(f"plan:{seed}:{url}".encode()) % 1000
    if b < 15:
        return [500, 200]
    if b < 25:
        return [429, 429, 200]
    if b < 32:
        return [408, 200]
    if b < 40:
        return [460, 200]
    if b < 45:
        return [503, 503, 200]
    return [200]


def has_redirect(url: str, seed: int = SEED) -> bool:
    return zlib.crc32(f"redir:{seed}:{url}".encode()) % 100 < 3


ROBOTS_TXT = "User-agent: *\nDisallow: /private/\nAllow: /\n"


class MockHttp:
    """URL → (status, body, redirected_url). Pure function of (url, attempt).

    Understands the europarl URL shape produced by the rule registry; any
    other url gets a deterministic generic page (Common-Crawl-style hosts
    for scale benches, see ``cc_url``).
    """

    def __init__(self, seed: int = SEED, page_scale: int = 1):
        self.seed = seed
        self.page_scale = page_scale

    def parse_doc_url(self, url: str):
        """-> (rulename_hint, date, lang, fmt) or None if not europarl-shaped."""
        try:
            tail = url.rsplit("/", 1)[1]
            stem, _, fmt = tail.rpartition(".")
            left, _, lang = stem.rpartition("_")
            parts = left.split("-")
            prefix = parts[0]
            day = date(int(parts[2]), int(parts[3]), int(parts[4]))
            infix = parts[5] if len(parts) > 5 else ""
            return prefix, infix, day, lang, "." + fmt
        except (IndexError, ValueError):
            return None

    def fetch(self, url: str, attempt: int = 0, rulename: str | None = None):
        """-> (status_code:int, body:bytes|None, redirected_url:str)."""
        if url.endswith("/robots.txt"):
            return 200, ROBOTS_TXT.encode(), url
        plan = status_plan(url, self.seed)
        status = plan[min(attempt, len(plan) - 1)]
        if status != 200:
            return status, None, url
        parsed = self.parse_doc_url(url)
        if parsed is not None:
            prefix, infix, day, lang, fmt = parsed
            if not is_session_day(day, self.seed):
                return 404, None, url
            # page identity derives from the URL ONLY — the "server" does
            # not know the crawler's rule names (rulename arg ignored).
            rn = f"{prefix}{infix}_{lang}{fmt}"
            redirected = url + "?lang=" + lang.lower() if has_redirect(url, self.seed) else url
            if fmt == ".html":
                return 200, render_html(url, rn, day, lang, self.seed, self.page_scale), redirected
            if fmt == ".pdf":
                return 200, render_pdf(url, self.seed), redirected
            return 200, render_xml(url, rn, day, self.seed), redirected
        # generic CC-style page
        rng = _rng_for(url, self.seed)
        lang = ["EN", "DE", "FR"][zlib.crc32(f"lang:{url}".encode()) % 3]
        return 200, render_html(url, "generic", date(2020, 1, 1), lang, self.seed,
                                self.page_scale), url


# ------------------------------------------------------- CC-style frontier


def cc_url(i: int, n_hosts: int, zipf_a: float = 1.3, seed: int = SEED) -> str:
    """Deterministic Common-Crawl-style url with a Zipf-skewed host
    distribution (hot-host skew food for politeness/salting tests)."""
    rng = np.random.default_rng(seed + i)
    host_id = min(int(rng.zipf(zipf_a)) - 1, n_hosts - 1)
    return f"https://host{host_id:05d}.example.org/page/{i}"


def cc_urls(n: int, n_hosts: int = 1000, zipf_a: float = 1.3, seed: int = SEED) -> np.ndarray:
    """Vectorized batch version of cc_url."""
    rng = np.random.default_rng(seed)
    host_ids = np.minimum(rng.zipf(zipf_a, size=n) - 1, n_hosts - 1)
    return np.array(
        [f"https://host{h:05d}.example.org/page/{i}" for i, h in enumerate(host_ids)],
        dtype=object,
    )


def seed_dates_range(start: date, end: date) -> np.ndarray:
    """All candidate dates in [start, end] as datetime64[D]."""
    return np.arange(
        np.datetime64(start.isoformat()), np.datetime64((end + timedelta(days=1)).isoformat()),
        dtype="datetime64[D]",
    )


def expected_text_for(url: str, seed: int = SEED) -> str | None:
    """Oracle: the byte-exact text the engine must extract for a url
    (None for non-html or non-session urls)."""
    m = MockHttp(seed)
    parsed = m.parse_doc_url(url)
    if parsed is None:
        return None
    prefix, infix, day, lang, fmt = parsed
    if fmt != ".html" or not is_session_day(day, seed):
        return None
    return html_to_text(render_html(url, f"{prefix}{infix}_{lang}{fmt}", day, lang, seed))
