"""Seeded HTML generators for differential tests of ``get_text``.

Pure functions of a ``random.Random``: random tag soup (``rand_html``)
and byte-level mutations of a well-formed synthetic page
(``mutated_page``). Shared by the tokenizer-vs-collector tests, the
real-bs4 harness and ``tools/extract_diff.py``.
"""

from __future__ import annotations

import random
import string
from datetime import date

TAGS = ["p", "div", "span", "b", "i", "a", "ul", "li", "table", "tr", "td",
        "h1", "br", "hr", "img", "script", "style", "title", "pre"]
ENTITIES = ["&amp;", "&lt;", "&gt;", "&quot;", "&nbsp;", "&eacute;",
            "&#65;", "&#x1F600;", "&#xg;", "&unknown;", "&", "&#", "&#x"]
SNIPPETS = ["<!-- comment -->", "<!-- unterminated", "<![CDATA[raw]]>",
            "<!DOCTYPE html>", "<?php noise ?>", "</missing>", "<>",
            "< notatag", "<p", "<p attr='unclosed"]

BASE_URL = "https://www.europarl.europa.eu/doceo/document/A-9-2021-0001_EN.html"


def rand_html(rng: random.Random, depth: int = 0) -> str:
    parts = []
    for _ in range(rng.randint(1, 6)):
        kind = rng.randint(0, 9)
        if kind <= 3:
            parts.append(
                "".join(rng.choice(string.printable[:70] + "äé€ ")
                        for _ in range(rng.randint(0, 12)))
            )
        elif kind <= 5:
            parts.append(rng.choice(ENTITIES))
        elif kind <= 7 and depth < 4:
            tag = rng.choice(TAGS)
            inner = rand_html(rng, depth + 1)
            close = rng.random() < 0.85
            parts.append(f"<{tag}>{inner}" + (f"</{tag}>" if close else ""))
        else:
            parts.append(rng.choice(SNIPPETS))
    return "".join(parts)


def base_page() -> str:
    """A well-formed synthetic page of the first rule (the mutation base)."""
    from europarl_crawler_ray.functions.rules import RULES
    from europarl_crawler_ray.sources.synth import render_html

    return render_html(BASE_URL, RULES[0].name, date(2021, 3, 9), "EN").decode("utf-8")


def mutated_page(base: str, rng: random.Random) -> str:
    """Random mutations of a well-formed page — truncation, splice, entity
    corruption — the classes real crawls hit."""
    mode = rng.randint(0, 2)
    if mode == 0:
        return base[: rng.randint(0, len(base))]
    if mode == 1:
        cut = rng.randint(0, len(base) - 1)
        return base[:cut] + rng.choice(ENTITIES + SNIPPETS) + base[cut:]
    pos = rng.randint(0, max(len(base) - 10, 1))
    return base[:pos] + base[pos:].replace("<", "&lt;", 1)


# near-miss pieces around the tokenizer's subset edges (attribute forms,
# whitespace kinds, comment/CDATA/doctype closers, ref terminators,
# raw-text end tags) — each appears both inside and just outside the subset
_SOUP_TEXT = list("ab Z9 \n\t\r\x0c\x0b\xa0 ſKé€>\"'=/-]!?;#")
_SOUP_NAMES = ["p", "DIV", "b", "pre", "Pre", "textarea", "template", "TEMPLATE",
               "title", "br", "img", "h1", "x-y", "a:b", "td", "span"]
_SOUP_SEPS = [" ", "  ", "\n", "\t", "\r\n", "\x0c", "", "/", "\xa0", "\x0b"]
_SOUP_ATTR_NAMES = ["href", "b", "data-x", "_", ":x", 'a"b', "=x", "x'", "ä", "a&b"]
_SOUP_VALUES = ['"v"', "'v'", '"a>b<c"', "'it\"s'", '""', "c", "c/", "/x/y",
                "a=b", 'x"y', "", "&amp;", "v\xa0w", '"un', "`t`"]
_SOUP_TAILS = [">", "/>", " />", " / >", " >", "\n>", "\xa0>", "", "/ >", "//>"]
_SOUP_MARKUP = [
    "<!---->", "<!-->", "<!--->", "<!-- a -->", "<!-- a -- >", "<!-- a --->",
    "<!--a-b-->", "<!-- x --!>", "<!-- open", "<!-x->", "<!>",
    "<!DOCTYPE html>", '<!doctype html PUBLIC "x">', "<!DOCTYPE>", "<!DocType [x]>",
    "<!ELEMENT x>", "<![CDATA[x]]>", "<![CDATA[a] ]>", "<![CDATA[]]>",
    "<![cdata[x]]>", "<![CDATA[ \n ]]>", "<![CDATA[ ]]>", "<![if x]>",
    "<?x?>", '<?php "<b>" ?>', "<?", "</>", "</ p>", "</p\x0b>", "</P >",
    "</p-x>", "</3>", "< ", "<1", "<=", "<<", "<", "<\xa0",
]
_SOUP_REFS = [
    "&amp;", "&amp", "&amp ", "&AMP;", "&nbsp;", "&apos;", "&a.b;", "&zz;",
    "&#65;", "&#12a;", "&#X41;", "&#x41;", "&#x;", "&#;", "&#999999999999;",
    "&#0;", "&#128;", "&#129;", "&#150;", "&", "&;", "& ", "&&", "&#",
]
_SOUP_RAW_BODIES = ["x", "a < b && c", "'</scr' + 'ipt>'", "<!-- c -->", "</style>",
                    "</script foo>", "</ script>", "</ſcript>", "<p>t</p>", "\n"]
_SOUP_RAW_ENDS = ["</script>", "</SCRIPT >", "</script\n>", "</ script>",
                  "</script\xa0>", "</Script>", "", "</script", "</style>"]


def _soup_tag(rng: random.Random) -> str:
    out = "<" + rng.choice(_SOUP_NAMES)
    for _ in range(rng.choice((0, 0, 1, 2, 3))):
        out += rng.choice(_SOUP_SEPS) + rng.choice(_SOUP_ATTR_NAMES)
        if rng.random() < 0.7:
            out += rng.choice(("=", " = ", "=\n", "==")) + rng.choice(_SOUP_VALUES)
    return out + rng.choice(_SOUP_TAILS)


def _soup_raw(rng: random.Random) -> str:
    name = rng.choice(("script", "style", "SCRIPT"))
    body = "".join(rng.choice(_SOUP_RAW_BODIES) for _ in range(rng.randint(0, 3)))
    end = rng.choice(_SOUP_RAW_ENDS)
    if name == "style":
        body, end = (x.replace("script", "style").replace("SCRIPT", "STYLE") for x in (body, end))
    attrs = rng.choice(("", " src=x", ' type="t"'))
    return f"<{name}{attrs}>{body}{end}"


def tag_soup(rng: random.Random) -> str:
    """A flat token soup: text, tags with attributes, end tags, markup,
    references and raw-text elements, each drawn near the subset's edges."""
    parts = []
    for _ in range(rng.randint(1, rng.choice((2, 6, 30)))):
        kind = rng.random()
        if kind < 0.25:
            parts.append("".join(rng.choice(_SOUP_TEXT) for _ in range(rng.randint(0, 6))))
        elif kind < 0.5:
            parts.append(_soup_tag(rng))
        elif kind < 0.65:
            sep = rng.choice(("", "", " ", "\n"))
            parts.append(f"</{rng.choice(_SOUP_NAMES)}{sep}>")
        elif kind < 0.8:
            parts.append(rng.choice(_SOUP_REFS))
        elif kind < 0.93:
            parts.append(rng.choice(_SOUP_MARKUP))
        else:
            parts.append(_soup_raw(rng))
    return "".join(parts)


_ATTR_PIECES = ["b", "href", "x-y", "=", "==", " ", "\n", "\t", "\r", "\x0c", "\x0b",
                "\xa0", '"', "'", "v", "/", ">", "<", "`", "&", ";", "c/", "a=b",
                '"a>b"', "'q'", '""']


def attr_tag(rng: random.Random) -> str:
    """One start tag whose attribute area is a random string of attribute
    pieces, in a context where a start tag and a self-closing one give
    different text (<pre> and <template> change what follows)."""
    tag = rng.choice(("pre", "PRE", "template", "script", "p"))
    attrs = "".join(rng.choice(_ATTR_PIECES) for _ in range(rng.randint(0, 10)))
    tail = rng.choice((">", "/>", " />", ""))
    return f"a<{tag} {attrs}{tail}\n \n<b>x</b></{tag}>y</script>z"
