"""The one-pass tokenizer against ``_TextCollector``, its fallback and oracle.

``get_text`` runs ``_fast_text`` and falls back to the html.parser-based
collector on the whole document when the tokenizer gives up. Both paths
must give the same string on every input. The crawl tests and crawlbench
derive their expected text from ``html_to_text`` itself, so only these
differential tests, the golden corpus (``test_extract.py``) and the
``html_roundtrip`` oracle can catch a tokenizer bug.
"""

import random
from datetime import date

import pytest

from europarl_crawler_ray.functions.extract import (
    _collector_text,
    _fast_text,
    get_text,
    html_to_text,
)
from europarl_crawler_ray.functions.rules import RULES
from europarl_crawler_ray.sources.synth import render_html
from tests.htmlfuzz import attr_tag, base_page, mutated_page, rand_html, tag_soup
from tests.test_extract import CASES


def _assert_same(html: str) -> None:
    want = _collector_text(html)
    fast = _fast_text(html)
    assert fast is None or fast == want, f"tokenizer divergence on: {html!r}"
    assert get_text(html) == want


# (a) the golden corpus
@pytest.mark.parametrize("html", [h for h, _ in CASES], ids=range(len(CASES)))
def test_golden_inputs_match_collector(html):
    _assert_same(html)


# (b) the synthetic web takes the fast path, at every page scale the
# crawl and the benchmark use
HTML_RULES = [r for r in RULES if r.format == ".html"]


@pytest.mark.parametrize("scale", [1, 10, 40])
@pytest.mark.parametrize("rule", HTML_RULES, ids=[r.name for r in HTML_RULES])
def test_render_html_takes_fast_path(rule, scale):
    url = f"https://www.europarl.europa.eu/doceo/document/{rule.name}-2021-03-09.html"
    html = render_html(url, rule.name, date(2021, 3, 9), rule.language, scale=scale).decode()
    fast = _fast_text(html)
    assert fast is not None, "tokenizer fell back on a synthetic page"
    assert fast == _collector_text(html)


# (c) fuzzed pages: tag soup from the generators shared with the real-bs4
# harness, plus attribute/whitespace/terminator near-misses
@pytest.mark.parametrize("chunk", range(8))
def test_rand_html_matches_collector(chunk):
    for seed in range(chunk * 250, (chunk + 1) * 250):
        _assert_same(rand_html(random.Random(seed)))


@pytest.mark.parametrize("chunk", range(4))
def test_mutated_pages_match_collector(chunk):
    base = base_page()
    for seed in range(chunk * 125, (chunk + 1) * 125):
        _assert_same(mutated_page(base, random.Random(10_000 + seed)))


@pytest.mark.parametrize("chunk", range(8))
def test_tag_soup_matches_collector(chunk):
    for seed in range(chunk * 250, (chunk + 1) * 250):
        _assert_same(tag_soup(random.Random(seed)))


@pytest.mark.parametrize("chunk", range(4))
def test_attr_tags_match_collector(chunk):
    for seed in range(chunk * 1000, (chunk + 1) * 1000):
        _assert_same(attr_tag(random.Random(seed)))


def test_fuzz_generators_reach_the_fast_path():
    """A differential test is only as good as the share of inputs the
    tokenizer accepts; keep each generator's share from collapsing."""
    rngs = [random.Random(s) for s in range(400)]
    assert sum(_fast_text(rand_html(r)) is not None for r in rngs) >= 100
    rngs = [random.Random(s) for s in range(400)]
    assert sum(_fast_text(tag_soup(r)) is not None for r in rngs) >= 60
    rngs = [random.Random(s) for s in range(400)]
    assert sum(_fast_text(attr_tag(r)) is not None for r in rngs) >= 40


# (d) boundary constructs, pinned to the collector's output; the comment
# says which side of the subset each one falls on
BOUNDARY = [
    # bare value "c/" then ">": a start tag, so <pre> is open
    ("<pre b=c/>\n \n<b>x</b>", "\n \nx"),
    ("<pre b=c />\n \n<b>x</b>", "\nx"),  # self-closing
    ("x<a b=c/>y</a>z", "xyz"),
    ("<template b=c/>hidden", ""),
    ("a<!-- a -- >b", "ab"),  # comment closes on "--\s*>": fallback
    ("a<!-- a --->b", "ab"),  # "--" inside: fallback
    ("a<!-->b-->c", "ac"),  # "<!-->" differs across versions: fallback
    ("a<![CDATA[a] ]>b", "aab"),  # "]" inside CDATA: fallback
    ("a<![CDATA[x]]>b", "axb"),
    ("a&#12a;b", "a&#12a;b"),  # ref not ended by ";": fallback
    ("a&amp", "a&amp"),  # ref open at EOF: fallback
    ("a&amp b", "a& b"),  # ref ended by a space: fallback
    ("a & b &; c", "a & b &; c"),  # bare "&"
    ("a < b <1", "a < b <1"),  # bare "<"
    ("<p>a</ p>b", "ab"),  # whitespace after "</": fallback
    ("<script>x</SCRIPT >y", "y"),
    ("<script>x</script foo>y</script>z", "z"),  # first "</script" not plain: fallback
    ("<script>x</ script>y</script>z", "yz"),  # closes in 3.11's html.parser: fallback
    ("<style>p{}</style\n>s", "s"),
    ("<script/>x", "x"),  # self-closing: no raw text
    ("a<script>b", "a"),  # unclosed script at EOF: fallback
    ("<pre>a<br/>\n  \n</pre> <p> </p>", "a\n  \n  "),
    ("<p>a</p>\r\n<p>b</p>\r\n", "a\nb\n"),
    ("<p\x0bclass=x>a</p>", "a"),  # \v continues the tag name: fallback
    ('<a b="1"c="2">a</a>', "a"),  # no space between attributes: fallback
    # "==" then whitespace: the value is href="a, and the tag ends at the
    # first ">" (found by tools/extract_diff.py): fallback
    ('<span b==\r\nhref="a>b<c" _=a=b\n>', "b"),
    ("<pre b==c> </pre>", " "),
    ("<?php echo '<b>' ?>x", "' ?>x"),  # a PI ends on the first ">"
    ("<!DOCTYPE html><P>x</P>", "x"),
]


@pytest.mark.parametrize("html,expected", BOUNDARY, ids=range(len(BOUNDARY)))
def test_boundary_constructs(html, expected):
    assert _collector_text(html) == expected
    _assert_same(html)


def test_crlf_through_html_to_text():
    raw = b"<pre>a\r\n\r\n</pre>\r\n<p>b</p>\r"
    assert html_to_text(raw) == get_text("<pre>a\n\n</pre>\n<p>b</p>\n") == "a\n\n\nb\n"
