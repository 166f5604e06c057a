"""Golden-corpus tests for the bs4-4.9.3-equivalent get_text().

Expected values are HAND-WRITTEN from the documented semantics of
``BeautifulSoup(html, "html.parser").get_text()`` at beautifulsoup4==4.9.3
(the reference's pinned version, /root/reference/Pipfile.lock):
whitespace-only runs collapse to "\\n" or " ", script/style/template
contents and comments/doctypes/PIs are excluded, CDATA contents and
character references are included/decoded.
"""

import pytest

from europarl_crawler_ray.functions.extract import get_text, html_to_text

CASES = [
    # plain text passthrough
    ("hello world", "hello world"),
    # tags stripped, no separator between adjacent text nodes
    ("<p>hello</p><p>world</p>", "helloworld"),
    # whitespace-only runs between tags: newline run -> "\n", space run -> " "
    ("<html>\n<body>\n<p>hi</p>\n</body>\n</html>", "\n\nhi\n\n"),
    ("<p>a</p>   <p>b</p>", "a b"),
    ("<p>a</p> \t <p>b</p>", "a b"),
    ("<p>a</p> \n <p>b</p>", "a\nb"),
    # whitespace WITHIN a text run is kept verbatim (not whitespace-only)
    ("<p>a   b</p>", "a   b"),
    # leading/trailing text runs with content keep their whitespace
    ("  x  ", "  x  "),
    # character references: bs4 4.9.3 resolves entities ITSELF from the
    # HTML4 table (convert_charrefs=False in its html.parser builder)
    ("<p>a &amp; b</p>", "a & b"),
    ("<p>&lt;tag&gt;</p>", "<tag>"),
    ("<p>&#65;&#x42;</p>", "AB"),
    # &nbsp; becomes U+00A0 which is NOT ASCII whitespace -> run kept
    ("<p>a</p>&nbsp;<p>b</p>", "a\xa0b"),
    # &apos; is HTML5/XML, NOT in the HTML4 table -> bs4 keeps it literal
    ("<p>x &apos;q&apos;</p>", "x &apos;q&apos;"),
    ("<p>&num;tag</p>", "&num;tag"),
    # unknown named entity stays literal
    ("<p>a&notanentity;b</p>", "a&notanentity;b"),
    # numeric refs < 256 decode as windows-1252 (bs4's CP1252 quirk):
    # &#150; is en dash U+2013 in cp1252, not U+0096
    ("<p>a&#150;b</p>", "a–b"),
    ("<p>&#128;</p>", "€"),  # cp1252 0x80 = euro sign
    # cp1252 undefined byte 0x81 falls through to chr()
    ("<p>&#129;</p>", "\x81"),
    # refs >= 256 use chr() directly
    ("<p>&#8212;</p>", "—"),
    # script/style contents excluded (bs4>=4.9 Script/Stylesheet strings)
    ("<p>a</p><script>var x = 1 < 2;</script><p>b</p>", "ab"),
    ("<style>p { color: red }</style>text", "text"),
    # entities inside script are NOT decoded (CDATA mode) and excluded anyway
    ("<script>a &amp; b</script>tail", "tail"),
    # unclosed script swallows the rest of the document
    ("<p>a</p><script>var x;", "a"),
    # self-closing script does not enter CDATA mode
    ("<script src='x.js'/>after", "after"),
    # template contents excluded, even nested ones
    ("<template><div>tpl text</div></template>visible", "visible"),
    # an UNCLOSED template is implicitly closed when an ancestor closes
    # (bs4 _popToTag pops it off the stack) — 'y' is normal text again
    ("<div><template>x</div>y", "y"),
    ("<div><pre> </div> <p>z</p>", "  z"),
    # CDATA inside template becomes a TemplateString in bs4 4.9.3 -> excluded
    ("<template><![CDATA[secret]]></template>v", "v"),
    # comments excluded but flush runs around them
    ("<p>a</p><!-- hidden -->b", "ab"),
    ("a<!--c-->b", "ab"),
    # doctype & processing instructions excluded
    ("<!DOCTYPE html><p>x</p>", "x"),
    ("<?php echo 1; ?>x", "x"),
    # CDATA sections included (bs4 4.9.3 default types includes CData)
    ("a<![CDATA[raw & text]]>b", "araw & textb"),
    # pre preserves whitespace-only runs verbatim
    ("<pre>\n  \n</pre>", "\n  \n"),
    ("<pre> </pre>", " "),
    ("<textarea>  </textarea>", "  "),
    # outside pre the same run would collapse
    ("<div>\n  \n</div>", "\n"),
    ("<div> </div>", " "),
    # nested structure, attributes ignored
    ('<div class="x"><span>a</span><b>b</b></div>', "ab"),
    # broken/unclosed tags: text still comes out in document order
    ("<div><p>a<p>b", "ab"),
    # empty document
    ("", ""),
    # stray end tags ignored
    ("</template>x</pre>y", "xy"),
    # multiple whitespace runs around inline markup
    ("x <b>y</b> z", "x y z"),
]


@pytest.mark.parametrize("html,expected", CASES, ids=range(len(CASES)))
def test_get_text_golden(html, expected):
    assert get_text(html) == expected


def test_html_to_text_bytes_roundtrip():
    assert html_to_text("<p>ümlaut €</p>".encode("utf-8")) == "ümlaut €"


def test_html_to_text_universal_newlines():
    # text-mode read translates \r\n and \r to \n BEFORE parsing, so the
    # whitespace-only run contains \n and collapses to "\n"
    assert html_to_text(b"<p>a</p> \r <p>b</p>") == "a\nb"
    assert html_to_text(b"line1\r\nline2") == "line1\nline2"


def test_html_to_text_error_paths():
    assert html_to_text(None) is None
    assert html_to_text(b"\xff\xfe\x00invalid \xc3") is None  # undecodable


