"""URL-generation rules — data-driven, vectorized.

Reproduces byte-identically the URL surface of the reference's ``Rule``
class hierarchy (``/root/reference/europarl/rules/{rule,protocol,
wordprotocol,agenda,dailyAgenda,votingNamed,votingOverview}.py``) but as a
flat registry of dataclass rows + numpy-vectorized string assembly, so a
frontier unfold is one ``map_batches`` over (date × rule) combinations
instead of per-row classmethod calls.

URL shape: ``BASE_URL + PREFIX + "-" + term + "-" + YYYY-MM-DD
[+ "-" + INFIX] + "_" + LANG + FORMAT`` where ``term`` comes from
``get_term`` (reference ``rule.py:34-61`` — note the *exclusive* bounds
``term_start < day < term_end`` and first-match-wins iteration order,
which makes e.g. 1984-07-31 fall to term "2" while 1984-07-01 stays "1").
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date

import numpy as np

BASE_URL = "https://europarl.europa.eu/doceo/document/"

# (term, start, end) — exclusive on BOTH ends, checked in this order
# (reference europarl/rules/rule.py:46-61).
TERMS: list[tuple[str, date, date]] = [
    ("1", date(1979, 7, 1), date(1984, 7, 31)),
    ("2", date(1984, 7, 1), date(1989, 7, 31)),
    ("3", date(1989, 7, 1), date(1994, 7, 31)),
    ("4", date(1994, 7, 1), date(1999, 7, 31)),
    ("5", date(1999, 7, 1), date(2004, 7, 31)),
    ("6", date(2004, 7, 1), date(2009, 7, 31)),
    ("7", date(2009, 7, 1), date(2014, 7, 31)),
    ("8", date(2014, 7, 1), date(2019, 7, 31)),
    ("9", date(2019, 7, 1), date(2024, 7, 31)),
]


def get_term(day: date) -> str:
    """Scalar parliamentary-term lookup (exclusive bounds, first match)."""
    for key, lo, hi in TERMS:
        if lo < day < hi:
            return key
    return "0"


def _as_day64(dates: np.ndarray) -> np.ndarray:
    return np.asarray(dates, dtype="datetime64[D]")


def get_term_vec(dates: np.ndarray) -> np.ndarray:
    """Vectorized get_term over a datetime64[D] (or date32-convertible) array.

    Preserves the reference's first-match-wins order and exclusive bounds.
    Returns an array of single-char strings ("0".."9").
    """
    d = _as_day64(dates)
    out = np.full(d.shape, "0", dtype="<U1")
    unassigned = np.ones(d.shape, dtype=bool)
    for key, lo, hi in TERMS:
        lo64 = np.datetime64(lo, "D")
        hi64 = np.datetime64(hi, "D")
        m = unassigned & (d > lo64) & (d < hi64)
        out[m] = key
        unassigned &= ~m
    return out


@dataclass(frozen=True)
class UrlRule:
    """One URL-generation rule (reference leaf Rule classes, SURVEY §2.2 M8)."""

    name: str
    prefix: str        # PV | CRE | OJ | OJQ
    infix: str         # "" | RCV | VOT
    language: str      # EN | DE | FR
    format: str        # .html | .pdf | .xml
    active: bool = True

    def url(self, day: date) -> str:
        """Scalar url — mirrors e.g. reference protocol.py:37-47."""
        mid = "-" + self.infix if self.infix else ""
        return (
            BASE_URL
            + self.prefix
            + "-"
            + get_term(day)
            + "-"
            + day.strftime("%Y-%m-%d")
            + mid
            + "_"
            + self.language
            + self.format
        )

    def url_vec(self, dates: np.ndarray) -> np.ndarray:
        """Vectorized url generation for a date array (datetime64[D])."""
        d = _as_day64(dates)
        terms = get_term_vec(d)
        datestr = d.astype("datetime64[D]").astype(str)  # YYYY-MM-DD
        mid = "-" + self.infix if self.infix else ""
        head = BASE_URL + self.prefix + "-"
        tail = mid + "_" + self.language + self.format
        # np.char works on fixed-width unicode; all parts are short.
        return np.char.add(np.char.add(np.char.add(head, terms), np.char.add("-", datestr)), tail)


def _mk(name: str, prefix: str, infix: str, lang: str, fmt: str) -> UrlRule:
    return UrlRule(name=name, prefix=prefix, infix=infix, language=lang, format=fmt)


# The 23 registered rules, matching reference registry contents exactly
# (protocol.py:50-103, wordprotocol.py:50-92, agenda.py:46-88,
# dailyAgenda.py:50-92, votingNamed.py:52-72, votingOverview.py:52-94).
# Note two reference quirks kept verbatim: named_voting_fr_pdf has format
# ".xml" (votingNamed.py), and voting_overview_de_Html's name has a capital H.
RULES: list[UrlRule] = [
    _mk("session_day", "PV", "", "EN", ".pdf"),
    _mk("protocol_en_pdf", "PV", "", "EN", ".pdf"),
    _mk("protocol_en_html", "PV", "", "EN", ".html"),
    _mk("protocol_de_pdf", "PV", "", "DE", ".pdf"),
    _mk("protocol_de_html", "PV", "", "DE", ".html"),
    _mk("word_protocol_en_pdf", "CRE", "", "EN", ".pdf"),
    _mk("word_protocol_en_html", "CRE", "", "EN", ".html"),
    _mk("word_protocol_de_pdf", "CRE", "", "DE", ".pdf"),
    _mk("word_protocol_de_html", "CRE", "", "DE", ".html"),
    _mk("agenda_en_pdf", "OJ", "", "EN", ".pdf"),
    _mk("agenda_en_html", "OJ", "", "EN", ".html"),
    _mk("agenda_de_pdf", "OJ", "", "DE", ".pdf"),
    _mk("agenda_de_html", "OJ", "", "DE", ".html"),
    _mk("daily_agenda_en_pdf", "OJQ", "", "EN", ".pdf"),
    _mk("daily_agenda_en_html", "OJQ", "", "EN", ".html"),
    _mk("daily_agenda_de_pdf", "OJQ", "", "DE", ".pdf"),
    _mk("daily_agenda_de_html", "OJQ", "", "DE", ".html"),
    _mk("named_voting_fr_pdf", "PV", "RCV", "FR", ".xml"),
    _mk("named_voting_fr_xml", "PV", "RCV", "FR", ".xml"),
    _mk("voting_overview_en_pdf", "PV", "VOT", "EN", ".pdf"),
    _mk("voting_overview_de_pdf", "PV", "VOT", "DE", ".pdf"),
    _mk("voting_overview_en_html", "PV", "VOT", "EN", ".html"),
    _mk("voting_overview_de_Html", "PV", "VOT", "DE", ".html"),
]

RULES_BY_NAME: dict[str, UrlRule] = {r.name: r for r in RULES}

SESSION_DAY_RULE = RULES_BY_NAME["session_day"]

# Rules that generate fetchable documents once a session day is confirmed
# (everything except the probe rule itself — reference url.py:94-137 cross
# joins ALL active rules; session_day urls are created by the checker).
DOCUMENT_RULES: list[UrlRule] = [r for r in RULES if r.name != "session_day"]


def spaced_out_dates(start: date) -> list[date]:
    """Recrawl schedule (reference europarl/downloader.py:39-68).

    Days 0-13 step 1, 14-27 step 2, 28-83 step 5, 84-364 step 10 (offsets
    divisible by the step), plus -100/-200/-300. Order preserved.
    """
    import datetime as _dt

    spacing_groups = [
        (range(0, 14), 1),
        (range(14, 28), 2),
        (range(28, 84), 5),
        (range(84, 365), 10),
    ]
    dates: list[date] = []
    for rng, step in spacing_groups:
        for i in rng:
            if i % step == 0:
                dates.append(start - _dt.timedelta(days=i))
    for i in range(1, 4):
        dates.append(start - _dt.timedelta(days=i * 100))
    return dates
