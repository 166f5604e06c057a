"""Link rewriting (M11) — absolutize relative hrefs / script-src / img-src.

Semantics from the reference ``rewrite_links``
(``/root/reference/europarl/downloader.py:117-138``): any element's
``href`` whose value has no netloc and doesn't start with ``#`` is joined
onto base_url; ``script[src]`` and ``img[src]`` likewise.

The reference parses with ``bs4.BeautifulSoup(html, "lxml")`` and returns
``str(soup)`` — the stored blob is the *re-serialized* document, so
byte-identity of stored pages requires reproducing that serialization.
``rewrite_links`` here is a from-scratch DOM round-trip that emulates the
bs4-4.9.3 output rules (neither bs4 nor lxml is installed in this
environment):

- void elements with no children serialize self-closed: ``<link .../>``
  (bs4 ``HTMLTreeBuilder.empty_element_tags``)
- tag/attribute names lowercased (libxml2), first duplicate attribute wins
- minimal entity substitution on text and attribute values (``&`` ``<``
  ``>``; bs4 ``EntitySubstitution.substitute_xml``), script/style content
  emitted raw (bs4 ``Script``/``Stylesheet`` preformatted strings)
- attribute quoting prefers ``"``; a value containing ``"`` (and no ``'``)
  is single-quoted (bs4 ``quoted_attribute_value``)
- missing document structure is recovered libxml2-style: contents wrapped
  in ``<html>``, leading metadata elements into ``<head>``, the rest into
  ``<body>``

Documented divergences from real libxml2 recovery (exotic error paths):
bare top-level text is not wrapped in ``<p>``, unknown entities are kept
verbatim instead of dropped, and implied-end-tag rules (e.g. ``<p>``
closed by block elements) are not applied. The reference golden assert
(``/root/reference/tests/downloader/test_downloader.py:6-18``) passes
verbatim — see tests/test_rewrite.py.
"""

from __future__ import annotations

import urllib.parse
from html.parser import HTMLParser

# bs4 4.9.3 HTMLTreeBuilder.empty_element_tags
VOID_TAGS = frozenset(
    "area base br col embed hr img input keygen link menuitem meta param "
    "source track wbr basefont bgsound command frame image isindex nextid "
    "spacer".split()
)

HEAD_TAGS = frozenset("title meta link style script base noscript template".split())

_RAW_TEXT_TAGS = frozenset({"script", "style"})


def _rewrite_value(base_url: str, tag: str, attr: str, value: str | None) -> str | None:
    """The reference's predicate (downloader.py:119-136). Empty href=""
    would IndexError in the reference (``value[0]``); treated as
    not-rewritten here rather than mirroring the crash."""
    if not value:
        return None
    if attr != "href" and not (attr == "src" and tag in ("script", "img")):
        return None
    if urllib.parse.urlparse(value).netloc:
        return None
    if value.startswith("#"):
        return None
    return urllib.parse.urljoin(base_url, value)


# ------------------------------------------------------------- DOM nodes


class _El:
    __slots__ = ("tag", "attrs", "children")

    def __init__(self, tag: str, attrs: list[tuple[str, str]]):
        self.tag = tag
        seen: dict[str, int] = {}
        self.attrs: list[list] = []
        for k, v in attrs:
            k = k.lower()
            if k in seen:  # libxml2: first duplicate attribute wins
                continue
            seen[k] = 1
            self.attrs.append([k, v if v is not None else ""])
        self.children: list = []  # _El | _Text | _Comment | _Doctype


class _Text:
    __slots__ = ("data", "raw")

    def __init__(self, data: str, raw: bool = False):
        self.data = data
        self.raw = raw  # script/style content: no entity substitution


class _Comment:
    __slots__ = ("data",)

    def __init__(self, data: str):
        self.data = data


class _Decl:
    __slots__ = ("data",)

    def __init__(self, data: str):
        self.data = data


class _TreeBuilder(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.root: list = []
        self.stack: list[_El] = []

    def _append(self, node) -> None:
        (self.stack[-1].children if self.stack else self.root).append(node)

    def handle_starttag(self, tag, attrs):
        tag = tag.lower()
        el = _El(tag, attrs)
        self._append(el)
        if tag not in VOID_TAGS:
            self.stack.append(el)

    def handle_startendtag(self, tag, attrs):
        tag = tag.lower()
        self._append(_El(tag, attrs))

    def handle_endtag(self, tag):
        tag = tag.lower()
        for i in range(len(self.stack) - 1, -1, -1):
            if self.stack[i].tag == tag:
                del self.stack[i:]
                return
        # stray end tag: dropped (libxml2 recovery)

    def handle_data(self, data):
        raw = bool(self.stack) and self.stack[-1].tag in _RAW_TEXT_TAGS
        self._append(_Text(data, raw=raw))

    def handle_entityref(self, name):  # pragma: no cover (convert_charrefs)
        self._append(_Text(f"&{name};"))

    def handle_comment(self, data):
        self._append(_Comment(data))

    def handle_decl(self, decl):
        self._append(_Decl(decl))


def _ensure_structure(nodes: list) -> list:
    """libxml2-style recovery: guarantee an <html> root with head/body
    partitioning when the input has none. Documents that already carry an
    <html> element pass through untouched."""
    for n in nodes:
        if isinstance(n, _El) and n.tag == "html":
            return nodes
    pre: list = []  # doctype/comments stay above <html>
    content: list = []
    for n in nodes:
        if isinstance(n, _Decl) or (isinstance(n, _Comment) and not content):
            pre.append(n)
        else:
            content.append(n)
    if not content:
        return nodes
    head_kids: list = []
    body_kids: list = []
    in_head = True
    for n in content:
        if in_head and isinstance(n, _El) and n.tag in HEAD_TAGS:
            head_kids.append(n)
        elif in_head and isinstance(n, _Text) and not n.data.strip():
            head_kids.append(n)
        else:
            in_head = False
            body_kids.append(n)
    html_el = _El("html", [])
    if head_kids and any(isinstance(n, _El) for n in head_kids):
        head = _El("head", [])
        head.children = head_kids
        html_el.children.append(head)
    else:
        body_kids = head_kids + body_kids
    body = _El("body", [])
    body.children = body_kids
    html_el.children.append(body)
    return pre + [html_el]


_TEXT_SUB = [("&", "&amp;"), ("<", "&lt;"), (">", "&gt;")]


def _sub_minimal(s: str) -> str:
    for a, b in _TEXT_SUB:
        s = s.replace(a, b)
    return s


def _quoted_attr(value: str) -> str:
    """bs4 EntitySubstitution.quoted_attribute_value after substitute_xml."""
    value = _sub_minimal(value)
    quote = '"'
    if '"' in value:
        if "'" in value:
            value = value.replace('"', "&quot;")
        else:
            quote = "'"
    return f"{quote}{value}{quote}"


def _serialize(nodes: list, out: list[str]) -> None:
    for n in nodes:
        if isinstance(n, _Text):
            out.append(n.data if n.raw else _sub_minimal(n.data))
        elif isinstance(n, _Comment):
            out.append(f"<!--{n.data}-->")
        elif isinstance(n, _Decl):
            out.append(f"<!{n.data}>")
        elif isinstance(n, _El):
            attrs = "".join(f" {k}={_quoted_attr(v)}" for k, v in n.attrs)
            if n.tag in VOID_TAGS and not n.children:
                out.append(f"<{n.tag}{attrs}/>")
            else:
                out.append(f"<{n.tag}{attrs}>")
                _serialize(n.children, out)
                out.append(f"</{n.tag}>")


def _walk_rewrite(nodes: list, base_url: str) -> None:
    for n in nodes:
        if isinstance(n, _El):
            for pair in n.attrs:
                new = _rewrite_value(base_url, n.tag, pair[0], pair[1])
                if new is not None:
                    pair[1] = new
            _walk_rewrite(n.children, base_url)


def rewrite_links(html: str, base_url: str) -> str:
    """bs4+lxml-faithful rewrite: parse → absolutize → reserialize
    (reference downloader.py:117-138, golden test reproduced verbatim in
    tests/test_rewrite.py)."""
    p = _TreeBuilder()
    p.feed(html)
    p.close()
    tree = _ensure_structure(p.root)
    _walk_rewrite(tree, base_url)
    out: list[str] = []
    _serialize(tree, out)
    return "".join(out)


# ------------------------------------------------- minimal-diff variant


