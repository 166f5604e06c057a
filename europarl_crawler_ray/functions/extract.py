"""HTML → text extraction — the byte-identical contract.

The reference extracts text as ``BeautifulSoup(file.read(), "html.parser")
.get_text()`` with the file opened in TEXT mode
(``/root/reference/europarl/rules/extraction.py:40-43``) and pins
``beautifulsoup4==4.9.3`` (Pipfile.lock). bs4 is not available in this
environment, so this module is a from-scratch reimplementation of exactly
that call's observable semantics, in bs4 4.9.3 terms:

- character references are converted (``convert_charrefs=True``, the
  HTMLParserTreeBuilder default) — except inside script/style CDATA content,
  which is excluded anyway;
- ``get_text()`` yields strings whose concrete type is ``NavigableString``
  or ``CData`` (the 4.9.3 ``_all_strings`` default ``types=(NavigableString,
  CData)``): plain text and ``<![CDATA[...]]>`` contents are included;
  ``Comment``, ``Doctype``/``Declaration``, ``ProcessingInstruction`` are
  excluded; and — new in bs4 4.9 — the contents of ``<script>``, ``<style>``
  and ``<template>`` become ``Script``/``Stylesheet``/``TemplateString``
  nodes and are therefore excluded;
- consecutive data chunks between tree events merge into one string, and a
  merged string that is entirely ASCII whitespace (``" \\n\\t\\f\\r"``) is
  normalized to ``"\\n"`` if it contains a newline else ``" "`` — unless
  inside a ``<pre>``/``<textarea>`` (``preserve_whitespace_tags``);
- text-mode file read implies universal newlines: ``\\r\\n`` and ``\\r``
  become ``\\n`` before parsing (replicated in :func:`html_to_text`);
- any error (here: undecodable bytes) yields ``None``
  (``extraction.py:48-50``).

Two paths, one answer. :func:`get_text` first runs a one-pass tokenizer
(:func:`_fast_text`): one compiled regex whose every match consumes a run
of text plus the next construct, driving the same tree rules as the
collector (run merge and whitespace collapse, the ``_popToTag`` stack,
the ``template``/``pre``/``textarea`` depths, script/style raw text). It
accepts only a strict subset of HTML:

- tag names ``[a-zA-Z][a-zA-Z0-9]*``; attributes separated by ASCII
  whitespace whose values are quoted, or bare, not starting with ``=``
  and followed by whitespace or ``>`` (``<a b=c/>`` is a start tag to
  html.parser, not self-closing);
- end tags ``</name>`` with only whitespace before the ``>``;
- comments with no ``--`` inside that do not open with ``>``/``->``;
  ``<!DOCTYPE ...>`` with no quotes, brackets or ``<``; ``<?...>``;
  ``<![CDATA[...]]>`` with no ``]`` inside;
- ``&name;`` and ``&#...;`` only when they end in ``;``; a bare ``&``
  followed by something other than a letter or ``#``; a bare ``<``
  followed by something other than a letter, ``/``, ``!`` or ``?``;
- a script/style body whose first ``</script`` (any case, any leading
  whitespace) is a plain ``</script>`` with optional trailing whitespace;
- nothing left open at EOF (no unclosed tag, comment, script or ``&x``).

Anything else makes the tokenizer give up on the WHOLE document, and
:func:`get_text` runs :class:`_TextCollector` on it instead — a subclass of
stdlib ``html.parser`` (the parser bs4's "html.parser" builder wraps), so
every malformed-input quirk is html.parser's own. There is no hand-off in
the middle of a document and nothing selects the path but the input.

The collector stays as the fallback AND as the differential oracle:
``tests/test_extract_fast.py`` and ``tools/extract_diff.py`` check the
tokenizer against it on the golden corpus, the synthetic web and fuzzed
pages. html.parser's tokenizer has changed across CPython releases (comment
closing, script end tags, RCDATA elements); the subset keeps to constructs
CPython 3.11 handles in one way, and those differential tests re-check it on
whatever Python runs them.

Golden fixtures in ``tests/test_extract.py`` pin this contract with
hand-written expected outputs.
"""

from __future__ import annotations

import re
from html.parser import HTMLParser

ASCII_SPACES = " \n\t\x0c\r"  # bs4 4.9.3 BeautifulSoup.ASCII_SPACES
_PRESERVE_WS = ("pre", "textarea")  # HTMLTreeBuilder.preserve_whitespace_tags
_CDATA_ELEMS = ("script", "style")  # html.parser CDATA_CONTENT_ELEMENTS

# bs4 4.9.3 entity handling: the builder passes convert_charrefs=False and
# BeautifulSoupHTMLParser resolves entities ITSELF from the HTML4 table
# (html.entities.codepoint2name inverse) — HTML5-only names like &apos;
# stay literal, unlike stdlib convert_charrefs=True (HTML5 table).
from html.entities import codepoint2name as _cp2name

HTML4_ENTITY_TO_CHARACTER = {name: chr(cp) for cp, name in _cp2name.items()}

# bs4's empty-element (void) tags — never pushed on the open-tag stack
# (HTMLTreeBuilder.empty_element_tags)
_EMPTY_ELEMENT_TAGS = frozenset(
    "area base br col embed hr img input keygen link menuitem meta param source track wbr "
    "basefont bgsound command frame image isindex nextid spacer".split()
)


def _charref(name: str) -> str:
    """bs4 BeautifulSoupHTMLParser.handle_charref: numeric refs < 256 decode
    as windows-1252 first (original_encoding is None when a str was
    parsed), then chr(), then U+FFFD."""
    if name.lower().startswith("x"):
        real = int(name[1:], 16)
    else:
        real = int(name)
    data = None
    if real < 256:
        try:
            data = bytearray([real]).decode("windows-1252")
        except UnicodeDecodeError:
            pass
    if not data:
        try:
            data = chr(real)
        except (ValueError, OverflowError):
            pass
    return data or "\N{REPLACEMENT CHARACTER}"


# ------------------------------------------------------------ fast path
# The whitespace html.parser ends a tag name on; attribute separators are
# kept to it too (html.parser also takes Unicode \s there). A bare value
# may not start with "=": html.parser reads "==" as one value indicator.
# Every piece has one parse, so the quantifiers are possessive.
_WS = r"[ \t\n\r\f]"
_ATTR = (
    rf"{_WS}++[^\s\"'<>/=`]++"
    rf"(?:{_WS}*+={_WS}*+(?:\"[^\"]*+\"|'[^']*+'|[^\s\"'<>`=][^\s\"'<>`]*+(?={_WS}|>)))?+"
)
_TOKEN = re.compile(
    r"([^<&]*+)(?:"                                           # 1 text run
    rf"(<([a-zA-Z][a-zA-Z0-9]*+)(?:{_ATTR})*+{_WS}*+(/?)>)"   # 2 start tag: 3 name, 4 "/"
    rf"|(</([a-zA-Z][a-zA-Z0-9]*+){_WS}*+>)"                  # 5 end tag: 6 name
    r"|(<!--(?!-?>)[^-]*+(?:-[^-]++)*+-->"                    # 7 comment,
    r"|<![dD][oO][cC][tT][yY][pP][eE][^<>\"'\[\]]*+>"          #   doctype
    r"|<\?[^>]*+>)"                                           #   or PI
    r"|(<!\[CDATA\[([^\]]*+)\]\]>)"                            # 8 CDATA: 9 content
    r"|(\Z)"                                                  # 10 end of input
    r"|(&([a-zA-Z][a-zA-Z0-9]*+);)"                           # 11 entity: 12 name
    r"|&#([0-9]++|[xX][0-9a-fA-F]++);"                        # 13 char ref name
    r"|(&(?=[^a-zA-Z#])|<(?=[^a-zA-Z/!?]))"                   # 14 literal & or <
    r")"
)
# groups 2-10 are tree events that end the pending text run; 11-14 extend it
_START, _END, _CDATA, _EOF, _ENTITY, _CHARREF = 2, 5, 8, 10, 11, 13

# Raw-text end of script/style: the first "</" + optional whitespace + the
# name in any case (what html.parser searches for, Unicode case folding
# included) must be a plain ASCII-named end tag, else the tokenizer gives up.
_RAW_END = {
    name: re.compile(
        "</(?:" + "".join(f"[{c}{c.upper()}]" for c in name) + rf"{_WS}*(>)|\s*(?i:{name}))"
    )
    for name in _CDATA_ELEMS
}
_DEPTH_TAGS = frozenset(("template",) + _PRESERVE_WS)
# what a start tag does to the open-tag stack; absent tags are pushed
_VOID, _RAW, _DEPTH = 0, 1, 2
_START_ACTION = {
    **dict.fromkeys(_EMPTY_ELEMENT_TAGS, _VOID),
    **dict.fromkeys(_CDATA_ELEMS, _RAW),
    **dict.fromkeys(_DEPTH_TAGS, _DEPTH),
}


def _fast_text(html: str) -> str | None:
    """bs4-4.9.3 ``get_text()`` of ``html`` in one regex pass, or None when
    the document leaves the subset the module docstring lists."""
    parts: list[str] = []
    run: list[str] = []  # data chunks since the last tree event
    stack: list[str] = []  # open tags, as _TextCollector._stack
    template_depth = preserve_depth = 0
    match = _TOKEN.match
    pos = 0
    while True:
        m = match(html, pos)
        if m is None:
            return None
        pos = m.end()
        kind = m.lastindex
        if kind >= _ENTITY:  # a reference or a literal: the run goes on
            if m[1]:
                run.append(m[1])
            if kind == _ENTITY:
                run.append(HTML4_ENTITY_TO_CHARACTER.get(m[12]) or m[11])
            elif kind == _CHARREF:
                run.append(_charref(m[13]))
            else:
                run.append(m[14])
            continue
        # a tree event: the pending run ends here (bs4 endData)
        text = m[1]
        if run:
            if text:
                run.append(text)
            text = "".join(run)
            run.clear()
        if text and not template_depth:
            if not preserve_depth and not text.strip(ASCII_SPACES):
                text = "\n" if "\n" in text else " "
            parts.append(text)
        if kind == _START:
            if m[4]:
                continue  # <x/>: start + end, no net stack change
            tag = m[3].lower()
            action = _START_ACTION.get(tag)
            if action is None:
                stack.append(tag)
            elif action == _RAW:
                end = _RAW_END[tag].search(html, pos)
                if end is None or end[1] is None:
                    return None
                pos = end.end()  # body excluded; its push and pop cancel out
            elif action == _DEPTH:
                stack.append(tag)
                if tag == "template":
                    template_depth += 1
                else:
                    preserve_depth += 1
        elif kind == _END:
            tag = m[6].lower()
            if tag in stack:  # bs4 _popToTag; a stray end tag is ignored
                while True:
                    top = stack.pop()
                    if top in _DEPTH_TAGS:
                        if top == "template":
                            template_depth -= 1
                        else:
                            preserve_depth -= 1
                    if top == tag:
                        break
        elif kind == _CDATA:
            cdata = m[9]
            if cdata and not template_depth:
                if not preserve_depth and not cdata.strip(ASCII_SPACES):
                    cdata = "\n" if "\n" in cdata else " "
                parts.append(cdata)
        elif kind == _EOF:
            return "".join(parts)


# ------------------------------------------------------------ fallback


class _TextCollector(HTMLParser):
    """Collects exactly the strings bs4-4.9.3 ``get_text()`` would join."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=False)
        self.parts: list[str] = []
        self._run: list[str] = []          # consecutive data chunks buffer
        self._cdata_skip: str | None = None  # inside <script>/<style>
        # open-tag stack mirroring bs4's tagStack/_popToTag: an end tag
        # implicitly closes everything above its matching start tag, so an
        # unclosed <template>/<pre> ends when an ANCESTOR closes
        self._stack: list[str] = []
        self._template_depth = 0
        self._preserve_ws_depth = 0

    def updatepos(self, i: int, j: int) -> int:
        # html.parser calls this on every token to keep getpos()'s line and
        # column current by counting newlines in rawdata[i:j]; nothing on the
        # text path reads getpos(), so only the new position is returned
        return j

    # -- run buffering (bs4 current_data + endData) --------------------
    def _flush(self) -> None:
        if not self._run:
            return
        data = "".join(self._run)
        self._run.clear()
        if not data:
            return
        if self._preserve_ws_depth == 0 and not data.strip(ASCII_SPACES):
            data = "\n" if "\n" in data else " "
        if self._cdata_skip is None and self._template_depth == 0:
            self.parts.append(data)

    # -- bs4-style tag stack -------------------------------------------
    def _push(self, tag: str) -> None:
        self._stack.append(tag)
        if tag == "template":
            self._template_depth += 1
        elif tag in _PRESERVE_WS:
            self._preserve_ws_depth += 1

    def _pop_one(self) -> None:
        tag = self._stack.pop()
        if tag == "template":
            self._template_depth -= 1
        elif tag in _PRESERVE_WS:
            self._preserve_ws_depth -= 1

    def _pop_to(self, tag: str) -> None:
        """bs4 _popToTag: pop up to and including the most recent open
        ``tag``; a stray end tag with no open match is ignored."""
        if tag not in self._stack:
            return
        while self._stack:
            top = self._stack[-1]
            self._pop_one()
            if top == tag:
                break

    # -- parser events --------------------------------------------------
    def handle_data(self, data: str) -> None:
        self._run.append(data)

    def handle_entityref(self, name: str) -> None:
        # bs4 BeautifulSoupHTMLParser.handle_entityref: HTML4 lookup, else
        # the reference kept verbatim
        char = HTML4_ENTITY_TO_CHARACTER.get(name)
        self._run.append(char if char is not None else f"&{name};")

    def handle_charref(self, name: str) -> None:
        self._run.append(_charref(name))

    def handle_starttag(self, tag: str, attrs) -> None:
        self._flush()
        if tag in _CDATA_ELEMS:
            self._cdata_skip = tag
            self._push(tag)
        elif tag not in _EMPTY_ELEMENT_TAGS:
            self._push(tag)

    def handle_endtag(self, tag: str) -> None:
        self._flush()
        if self._cdata_skip is not None:
            # inside script/style the parser only surfaces the MATCHING
            # end tag; anything else arrived as raw data
            if tag == self._cdata_skip:
                self._cdata_skip = None
                self._pop_to(tag)
        else:
            self._pop_to(tag)

    def handle_startendtag(self, tag: str, attrs) -> None:
        # bs4 handles <x/> as start+immediate end: no net stack change; a
        # tree event still flushes the pending run (and never enters CDATA
        # mode — html.parser calls this instead of set_cdata_mode)
        self._flush()

    def handle_comment(self, data: str) -> None:
        self._flush()  # Comment nodes are excluded from get_text

    def handle_decl(self, decl: str) -> None:
        self._flush()  # Doctype — excluded

    def handle_pi(self, data: str) -> None:
        self._flush()  # ProcessingInstruction — excluded

    def unknown_decl(self, data: str) -> None:
        # bs4 turns <![CDATA[x]]> into CData("x"), which IS included by the
        # 4.9.3 get_text default (types=(NavigableString, CData)) — but
        # string_container() overrides the class inside <template>
        # containers, turning it into an excluded TemplateString.
        self._flush()
        if data.startswith("CDATA[") and self._template_depth == 0:
            cdata = data[len("CDATA["):]
            if cdata:
                if self._preserve_ws_depth == 0 and not cdata.strip(ASCII_SPACES):
                    cdata = "\n" if "\n" in cdata else " "
                self.parts.append(cdata)

    def text(self) -> str:
        self._flush()
        return "".join(self.parts)


def _collector_text(html: str) -> str:
    """``get_text`` through :class:`_TextCollector` alone (the fallback and
    the oracle the tokenizer is tested against)."""
    p = _TextCollector()
    p.feed(html)
    p.close()
    return p.text()


def get_text(html: str) -> str:
    """bs4-4.9.3-equivalent ``BeautifulSoup(html, "html.parser").get_text()``."""
    text = _fast_text(html)
    return _collector_text(html) if text is None else text


def html_to_text(html_bytes: bytes | None, encoding: str = "utf-8") -> str | None:
    """Full reference path: text-mode read → parse → get_text.

    Mirrors ``filecontent(filepath, ".html")`` (extraction.py:39-52):
    universal-newline decode, then get_text; any failure → None.
    """
    if html_bytes is None:
        return None
    try:
        s = html_bytes.decode(encoding)
        # text-mode read: universal newline translation
        if "\r" in s:
            s = s.replace("\r\n", "\n").replace("\r", "\n")
        return get_text(s)
    except Exception:
        return None


class LinkExtractor(HTMLParser):
    """Collect anchor hrefs the way a DOM walk would (crawl-frontier
    outlink discovery). Built on the same stdlib parser as the
    byte-identical text contract above, so script/style contents are
    CDATA (an ``<a href>`` string inside a script is NOT a link) and
    comments never surface — the failure modes a naive regex extractor
    has. Mirrors the reference's bs4 ``soup.find_all('a')`` usage
    (/root/reference/europarl/downloader.py:117-138) without bs4."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.hrefs: list[str] = []

    def handle_starttag(self, tag, attrs):
        if tag == "a":
            for name, value in attrs:
                if name == "href" and value is not None:
                    self.hrefs.append(value)
                    break

    handle_startendtag = handle_starttag


def extract_hrefs(html: str) -> list[str]:
    """All <a href> values in document order."""
    p = LinkExtractor()
    p.feed(html)
    p.close()
    return p.hrefs


class AnchorExtractor(HTMLParser):
    """Collect (href, anchor_text) pairs — the link-with-label walk an
    anchor-text index needs. Same DOM semantics as ``LinkExtractor``
    (script/style contents are CDATA, comments never surface) plus the
    text contract: character references inside the anchor are CONVERTED
    (``ref&#32;3`` reads back as ``ref 3``) and an ``<a>`` opening
    inside an open anchor implicitly closes it, per the HTML spec's
    no-nested-anchors rule."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.anchors: list[tuple[str, str]] = []
        self._href: str | None = None
        self._parts: list[str] = []

    def _close_open(self):
        if self._href is not None:
            self.anchors.append((self._href, "".join(self._parts)))
        self._href, self._parts = None, []

    def handle_starttag(self, tag, attrs):
        if tag == "a":
            self._close_open()
            for name, value in attrs:
                if name == "href" and value is not None:
                    self._href = value
                    break

    def handle_startendtag(self, tag, attrs):
        # <a href=... /> opens-and-closes: an empty-text anchor
        self.handle_starttag(tag, attrs)
        if tag == "a":
            self._close_open()

    def handle_endtag(self, tag):
        if tag == "a":
            self._close_open()

    def handle_data(self, data):
        if self._href is not None:
            self._parts.append(data)

    def close(self):
        super().close()
        self._close_open()


def extract_anchors(html: str) -> list[tuple[str, str]]:
    """All (href, text) anchor pairs in document order."""
    p = AnchorExtractor()
    p.feed(html)
    p.close()
    return p.anchors


class TableExtractor(HTMLParser):
    """Collect table cells as (row_idx, col_idx, text, is_header) with
    the same DOM semantics as the other extractors: script/style
    contents are CDATA (a ``<td>`` inside a script string never opens a
    cell), comments never surface, and character references inside
    cells are CONVERTED. ``row_idx`` counts ``<tr>`` per table (reset at
    ``<table>``); ``col_idx`` counts ``<td>``/``<th>`` per row. An
    opening ``<td>``/``<th>``/``<tr>`` implicitly closes any open cell
    (the HTML tree-construction rule browsers apply)."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.cells: list[tuple[int, int, str, bool]] = []
        self._row = -1
        self._col = -1
        self._open: bool | None = None  # is_header of the open cell, if any
        self._parts: list[str] = []

    def _close_cell(self):
        if self._open is not None:
            self.cells.append((self._row, self._col, "".join(self._parts), self._open))
        self._open, self._parts = None, []

    def handle_starttag(self, tag, attrs):
        if tag == "table":
            self._close_cell()
            self._row = -1
        elif tag == "tr":
            self._close_cell()
            self._row += 1
            self._col = -1
        elif tag in ("td", "th"):
            self._close_cell()
            self._col += 1
            self._open = tag == "th"

    def handle_endtag(self, tag):
        if tag in ("td", "th", "tr", "table"):
            self._close_cell()

    def handle_data(self, data):
        if self._open is not None:
            self._parts.append(data)

    def close(self):
        super().close()
        self._close_cell()


def extract_table_cells(html: str) -> list[tuple[int, int, str, bool]]:
    """All (row_idx, col_idx, text, is_header) cells in document order."""
    p = TableExtractor()
    p.feed(html)
    p.close()
    return p.cells
